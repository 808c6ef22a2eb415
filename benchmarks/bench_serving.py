"""Bench — serving: snapshot warm start and cached query latency.

The production story of the paper (Section 7) is a *served* net: built
offline, answered online.  This benchmark measures the two properties the
serving layer exists for, and asserts both:

- **warm start**: loading a format-2 snapshot (digest checks, the store
  bulk-built from its relation columns, BM25 rehydration) must be at
  least 2x faster than a fresh ``build_alicoco`` + service init at the
  same scale;
- **caching**: the LRU must put the cached-search p50 at least 10x below
  the uncached p50.

A warm-started service must also answer a mixed query battery *identically*
to the service built from scratch — warm start is an acceleration, not an
approximation.

A third section exercises the concurrent-serving contract: a shared
service hammered from several threads must answer identically to serial
execution with consistent counters, and thread-pool batch fan-out
(``workers=N``) must return results byte-identical to serial batches —
in envelope mode too, where failures come back as ``BatchResult``
envelopes instead of aborting the batch.
"""

import copy
import gc
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.concepts import ConceptTagger
from repro.kg import serialize
from repro.kg.relations import Relation, RelationKind
from repro.kg.store import AliCoCoStore
from repro.matching import DSSMMatcher, KnowledgeMatcher, train_matcher
from repro.matching.base import matching_vocab
from repro.matching.dataset import pair_from_texts
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.pipeline.build import build_alicoco
from repro.serving import AliCoCoService, ServiceConfig
from repro.utils.timing import LatencyReservoir

from conftest import BENCH_SCALE, SMOKE

_TAGGER_EPOCHS = 2 if SMOKE else 3
_RERANKER_EPOCHS = 2 if SMOKE else 3
#: Restoring bundled weights must beat re-training by at least this much.
_MIN_BUNDLE_SPEEDUP = 1.5 if SMOKE else 3.0

_N_ITEMS = 160 if SMOKE else 480
_N_CONCEPTS = 40 if SMOKE else 110
#: Constant factors dominate at smoke scale; thresholds relax accordingly.
_MIN_WARM_SPEEDUP = 1.2 if SMOKE else 2.0
_MIN_CACHE_SPEEDUP = 3.0 if SMOKE else 10.0
_HIT_PASSES = 5
_HAMMER_THREADS = 4 if SMOKE else 8
_HAMMER_PASSES = 2 if SMOKE else 5
_BATCH_WORKERS = 4

#: Pool-scoring bench: candidate-pool sizes compared scalar vs batched.
_POOL_SIZES = (10, 50) if SMOKE else (10, 50, 200)
_POOL_QUERIES = 4 if SMOKE else 8
_POOL_PASSES = 2 if SMOKE else 3
#: Headline assertion at pool size 50 (= the default rerank_pool_k):
#: batched pool scoring must beat the scalar loop by this much.  Smoke
#: runs only guard against regression (batched never slower).
_MIN_POOL_SPEEDUP = 1.0 if SMOKE else 3.0


def _workload(built):
    """A mixed battery touching every endpoint, concept-card style."""
    requests = []
    for spec in built.concepts:
        concept_id = built.concept_ids[spec.text]
        requests.append(("search", spec.text))
        requests.append(("items_for_concept", concept_id, 10))
        requests.append(("interpretation", concept_id))
    for index in range(0, _N_ITEMS, 7):
        requests.append(("concepts_for_item", built.item_ids[index]))
    for primitive_id in list(built.primitive_ids.values())[::9]:
        requests.append(("hypernyms", primitive_id, True))
    return requests


def test_serving(tmp_path, report):
    scale = replace(BENCH_SCALE, n_items=_N_ITEMS)

    # Cold path: construct the net and fit the search index from scratch.
    start = time.perf_counter()
    built = build_alicoco(scale, n_concepts=_N_CONCEPTS)
    fresh = AliCoCoService.from_build(built, config_fingerprint=scale.fingerprint())
    cold_seconds = time.perf_counter() - start

    snapshot_path = tmp_path / "net.snapshot"
    snapshot_bytes = fresh.save_snapshot(snapshot_path)

    # Warm path: load the snapshot, rehydrate the index, skip the build.
    # Best of three loads = steady-state restart cost, insulated from
    # one-off page-cache/allocator warmup noise.
    warm_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        warm = AliCoCoService.from_snapshot(
            snapshot_path, expected_fingerprint=scale.fingerprint()
        )
        warm_seconds = min(warm_seconds, time.perf_counter() - start)

    warm_speedup = cold_seconds / max(warm_seconds, 1e-9)
    assert warm_speedup >= _MIN_WARM_SPEEDUP, (
        f"warm start should be >={_MIN_WARM_SPEEDUP}x a fresh build, "
        f"got {warm_speedup:.2f}x"
    )

    # Parity: the warm service answers exactly like the fresh one.
    requests = _workload(built)
    fresh_answers = fresh.batch(requests)
    warm_answers = warm.batch(requests)
    assert fresh_answers == warm_answers

    # Cached vs uncached: the first batch above was all misses; repeat
    # passes are all hits.
    for _ in range(_HIT_PASSES):
        warm.batch(requests)
    stats = warm.stats()
    search = stats.endpoint("search")
    assert search.cache_misses == _N_CONCEPTS
    assert search.cache_hits == _HIT_PASSES * _N_CONCEPTS
    cache_speedup = search.miss_p50_ms / max(search.hit_p50_ms, 1e-9)
    assert cache_speedup >= _MIN_CACHE_SPEEDUP, (
        f"cached search p50 should be >={_MIN_CACHE_SPEEDUP}x below "
        f"uncached, got {cache_speedup:.2f}x"
    )

    # Threaded throughput: hammer one shared service from several
    # threads; answers must match serial execution and no observation may
    # be lost to a race (hits + misses == lookups).
    expected = fresh.batch(requests)
    hammer_errors: list = []
    barrier = threading.Barrier(_HAMMER_THREADS)

    def hammer():
        try:
            barrier.wait()
            for _ in range(_HAMMER_PASSES):
                assert fresh.batch(requests) == expected
        except Exception as error:  # pragma: no cover - failure path
            hammer_errors.append(error)

    threads = [threading.Thread(target=hammer) for _ in range(_HAMMER_THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    hammer_seconds = time.perf_counter() - start
    assert hammer_errors == []
    cache = fresh._cache
    assert cache.hits + cache.misses == cache.lookups
    hammer_queries = _HAMMER_THREADS * _HAMMER_PASSES * len(requests)
    hammer_qps = hammer_queries / max(hammer_seconds, 1e-9)

    # Batch fan-out parity: workers=N must be byte-identical to serial,
    # with mid-batch failures enveloped instead of aborting the batch.
    faulty = requests + [("items_for_concept", "ec_999999999")]
    serial_envelopes = fresh.batch(faulty, on_error="envelope")
    parallel_envelopes = fresh.batch(
        faulty, on_error="envelope", workers=_BATCH_WORKERS
    )
    assert parallel_envelopes == serial_envelopes
    expected_ok = [True] * len(requests) + [False]
    assert [result.ok for result in serial_envelopes] == expected_ok
    assert fresh.batch(requests, workers=_BATCH_WORKERS) == expected

    lines = [
        f"Serving at {_N_ITEMS} items / {_N_CONCEPTS} concepts ({scale.name})",
        f"  snapshot: {snapshot_bytes} bytes (fingerprint {scale.fingerprint()})",
        f"  cold start (build + index fit):  {cold_seconds * 1e3:9.1f} ms",
        f"  warm start (snapshot + rehydrate): {warm_seconds * 1e3:7.1f} ms"
        f"  -> {warm_speedup:.1f}x",
        f"  cached search p50 vs uncached: {cache_speedup:.1f}x "
        f"({search.hit_p50_ms * 1e3:.2f}us vs {search.miss_p50_ms * 1e3:.2f}us)",
        f"  parity: {len(requests)} mixed queries identical fresh vs warm",
        f"  threaded: {_HAMMER_THREADS} threads x {_HAMMER_PASSES} passes = "
        f"{hammer_queries} queries in {hammer_seconds * 1e3:.1f} ms "
        f"({hammer_qps:,.0f} q/s), counters consistent",
        f"  batch fan-out: workers={_BATCH_WORKERS} byte-identical to serial "
        f"({len(faulty)} requests, 1 enveloped failure)",
        "",
        stats.format_table("warm service stats"),
    ]
    report("\n".join(lines))


def _train_models(built):
    """Tiny tagger + DSSM reranker trained on the built world."""
    sentences = [list(spec.tokens) for spec in built.concepts]
    tagger = ConceptTagger(
        Vocab.from_corpus(sentences),
        built.lexicon,
        PosTagger(built.lexicon.pos_lexicon()),
        use_fuzzy=False,
        word_dim=8,
        char_dim=4,
        hidden_dim=6,
        seed=1,
    )
    tagger.fit(built.concepts, epochs=_TAGGER_EPOCHS, lr=0.02, seed=1)

    pairs = []
    for spec in built.concepts[:10]:
        concept_id = built.concept_ids[spec.text]
        linked = {
            relation.source
            for relation in built.store.in_relations(
                concept_id, RelationKind.ITEM_ECOMMERCE
            )
        }
        for index in range(8):
            item_id = built.item_ids[index]
            title_tokens = built.store.get(item_id).title.split()
            pairs.append(
                pair_from_texts(
                    spec.tokens, title_tokens, label=int(item_id in linked)
                )
            )
    reranker = DSSMMatcher(matching_vocab(pairs), dim=8, hidden=8, seed=1)
    train_matcher(reranker, pairs, epochs=_RERANKER_EPOCHS, lr=0.05, seed=0)
    return tagger, reranker


def test_model_serving(tmp_path, report):
    """Model endpoints: warm-bundle start, rerank latency, parity."""
    scale = replace(BENCH_SCALE, n_items=_N_ITEMS)
    built = build_alicoco(scale, n_concepts=_N_CONCEPTS)

    # Cold model start: train both models from scratch, then serve them.
    start = time.perf_counter()
    tagger, reranker = _train_models(built)
    fresh = AliCoCoService.from_build(
        built,
        tagger=tagger,
        reranker=reranker,
        config_fingerprint=scale.fingerprint(),
    )
    cold_model_seconds = time.perf_counter() - start

    snapshot_path = tmp_path / "net.models.snapshot"
    snapshot_bytes = fresh.save_snapshot(snapshot_path)

    # Warm-bundle start: fresh (untrained) architectures, weights from
    # the snapshot's model bundle.  Best of three, as for the store.
    def fresh_architectures():
        sentences = [list(spec.tokens) for spec in built.concepts]
        untagger = ConceptTagger(
            Vocab.from_corpus(sentences),
            built.lexicon,
            PosTagger(built.lexicon.pos_lexicon()),
            use_fuzzy=False,
            word_dim=8,
            char_dim=4,
            hidden_dim=6,
            seed=99,
        )
        unranker = DSSMMatcher(reranker.vocab, dim=8, hidden=8, seed=99)
        return untagger, unranker

    warm_model_seconds = float("inf")
    for _ in range(3):
        new_tagger, new_reranker = fresh_architectures()
        start = time.perf_counter()
        warm = AliCoCoService.from_snapshot(
            snapshot_path,
            tagger=new_tagger,
            reranker=new_reranker,
            expected_fingerprint=scale.fingerprint(),
        )
        warm_model_seconds = min(warm_model_seconds, time.perf_counter() - start)

    bundle_speedup = cold_model_seconds / max(warm_model_seconds, 1e-9)
    assert bundle_speedup >= _MIN_BUNDLE_SPEEDUP, (
        f"warm-bundle model start should be >={_MIN_BUNDLE_SPEEDUP}x "
        f"faster than re-training, got {bundle_speedup:.2f}x"
    )

    # Parity: the restored models answer bit-identically to the trained
    # originals across the whole model battery.
    battery = []
    for spec in built.concepts[: min(12, len(built.concepts))]:
        concept_id = built.concept_ids[spec.text]
        battery.append(("tag", spec.text))
        battery.append(("items_for_concept_reranked", concept_id, 5))
        battery.append(("search_reranked", spec.text, 5))
    fresh_answers = fresh.batch(battery)
    warm_answers = warm.batch(battery)
    assert fresh_answers == warm_answers
    assert warm.batch(battery, workers=_BATCH_WORKERS) == warm_answers

    # Rerank cost: model-verified search vs BM25-only, uncached p50s.
    queries = [spec.text for spec in built.concepts]
    for text in queries:
        warm.search(text)
        warm.search_reranked(text)
    stats = warm.stats()
    bm25_p50 = stats.endpoint("search").miss_p50_ms
    rerank_p50 = stats.endpoint("search_reranked").miss_p50_ms
    rerank_cost = rerank_p50 / max(bm25_p50, 1e-9)

    report(
        "\n".join(
            [
                f"Model serving at {_N_ITEMS} items / {_N_CONCEPTS} "
                f"concepts ({scale.name})",
                f"  snapshot with model bundle: {snapshot_bytes} bytes",
                f"  cold model start (train tagger+reranker): "
                f"{cold_model_seconds * 1e3:9.1f} ms",
                f"  warm-bundle start (restore weights):      "
                f"{warm_model_seconds * 1e3:9.1f} ms -> {bundle_speedup:.1f}x",
                f"  search_reranked p50 vs search p50: {rerank_p50 * 1e3:.1f}us "
                f"vs {bm25_p50 * 1e3:.1f}us ({rerank_cost:.1f}x model cost)",
                f"  parity: {len(battery)} model queries bit-identical "
                f"fresh vs bundle-restored (serial and workers="
                f"{_BATCH_WORKERS})",
                "",
                stats.format_table("model service stats"),
            ]
        )
    )


def _train_reranker(built, cls, **kwargs):
    """Train one matcher on graph-labelled (concept, title) pairs."""
    pairs = []
    for spec in built.concepts[:10]:
        concept_id = built.concept_ids[spec.text]
        linked = {
            relation.source
            for relation in built.store.in_relations(
                concept_id, RelationKind.ITEM_ECOMMERCE
            )
        }
        for index in range(8):
            item_id = built.item_ids[index]
            title_tokens = built.store.get(item_id).title.split()
            pairs.append(
                pair_from_texts(
                    spec.tokens, title_tokens, label=int(item_id in linked)
                )
            )
    model = cls(matching_vocab(pairs), **kwargs)
    train_matcher(model, pairs, epochs=1, lr=0.05, seed=0)
    return model


def _knowledge_reranker(built):
    """The paper's matcher (Fig. 8), knowledge branch on."""
    vectors = {}

    def knowledge_lookup(token):
        if token not in vectors:
            seed = sum(ord(char) for char in token)
            vectors[token] = np.random.default_rng(seed).normal(size=6)
        return vectors[token]

    gloss_tokens = {
        spec.tokens[0]: list(spec.tokens[1:3]) for spec in built.concepts[:20]
    }

    def build(vocab):
        return KnowledgeMatcher(
            vocab,
            PosTagger(built.lexicon.pos_lexicon()),
            ner_lookup=lambda token: (len(token) * 7) % 5,
            num_ner_labels=5,
            knowledge_lookup=knowledge_lookup,
            gloss_tokens=gloss_tokens,
            knowledge_dim=6,
            dim=8,
            conv_dim=8,
            pyramid_layers=2,
            seed=1,
        )

    return _train_reranker(built, build)


def _time_pool_variants(matcher, queries, pool):
    """p50/p95 reservoirs for scalar vs pooled vs pooled+warm scoring."""
    reservoirs = {
        name: LatencyReservoir(256, seed=i)
        for i, name in enumerate(("scalar", "pooled", "warm"))
    }
    encoded = [matcher.encode_doc(doc) for doc in pool]
    for _ in range(_POOL_PASSES):
        for query in queries:
            start = time.perf_counter()
            scalar = [matcher.score_text(query, doc) for doc in pool]
            reservoirs["scalar"].record(time.perf_counter() - start)

            start = time.perf_counter()
            pooled = matcher.score_pool(query, pool)
            reservoirs["pooled"].record(time.perf_counter() - start)

            start = time.perf_counter()
            warm = matcher.score_pool(query, pool, doc_encodings=encoded)
            reservoirs["warm"].record(time.perf_counter() - start)

            assert np.abs(pooled - np.asarray(scalar)).max() <= 1e-9
            assert np.array_equal(warm, pooled)
    return {name: res.percentiles_ms() for name, res in reservoirs.items()}


def test_pool_scoring(report):
    """Batched pool scoring vs the scalar oracle, matcher and service level."""
    scale = replace(BENCH_SCALE, n_items=_N_ITEMS)
    built = build_alicoco(scale, n_concepts=_N_CONCEPTS)
    titles = [
        built.store.get(built.item_ids[index]).title.split()
        for index in range(min(max(_POOL_SIZES), _N_ITEMS))
    ]
    queries = [list(spec.tokens) for spec in built.concepts[:_POOL_QUERIES]]

    knowledge = _knowledge_reranker(built)
    dssm = _train_reranker(built, DSSMMatcher, dim=8, hidden=8, seed=1)

    lines = [
        f"Pool scoring at {_N_ITEMS} items / {_N_CONCEPTS} concepts "
        f"({scale.name}); {_POOL_QUERIES} queries x {_POOL_PASSES} passes",
        f"  {'matcher':<10} {'pool':>5} {'scalar p50':>11} {'pooled p50':>11} "
        f"{'warm p50':>10} {'speedup':>8} {'warm speedup':>13}",
    ]
    headline = {}
    for name, matcher in (("knowledge", knowledge), ("dssm", dssm)):
        for size in _POOL_SIZES:
            timings = _time_pool_variants(matcher, queries, titles[:size])
            scalar, pooled, warm = (
                timings["scalar"], timings["pooled"], timings["warm"]
            )
            speedup = scalar["p50"] / max(pooled["p50"], 1e-9)
            warm_speedup = scalar["p50"] / max(warm["p50"], 1e-9)
            if size == 50:
                headline[name] = speedup
            lines.append(
                f"  {name:<10} {size:>5} {scalar['p50']:>9.3f}ms "
                f"{pooled['p50']:>9.3f}ms {warm['p50']:>8.3f}ms "
                f"{speedup:>7.1f}x {warm_speedup:>12.1f}x"
            )
            lines.append(
                f"  {'':<10} {'p95':>5} {scalar['p95']:>9.3f}ms "
                f"{pooled['p95']:>9.3f}ms {warm['p95']:>8.3f}ms"
            )
    for name, speedup in headline.items():
        assert speedup >= _MIN_POOL_SPEEDUP, (
            f"{name} pool scoring at pool 50 should be "
            f">={_MIN_POOL_SPEEDUP}x the scalar loop, got {speedup:.2f}x"
        )

    # Service level: the reranked endpoints through the fast path +
    # pre-warmed doc cache vs the scalar oracle, a copy of the matcher
    # with fast_path = False (pair-by-pair scoring, no doc cache).  The
    # result LRU is disabled so every pass pays full scoring cost.
    fast = AliCoCoService.from_build(
        built,
        reranker=knowledge,
        config=ServiceConfig(cache_capacity=0, prewarm_doc_cache=True),
    )
    scalar_matcher = copy.copy(knowledge)
    scalar_matcher.fast_path = False
    oracle = AliCoCoService.from_build(
        built,
        reranker=scalar_matcher,
        config=ServiceConfig(cache_capacity=0),
    )
    # Concepts with actual item pools — a pool of zero measures nothing.
    linked = [
        spec
        for spec in built.concepts
        if built.store.in_relations(
            built.concept_ids[spec.text], RelationKind.ITEM_ECOMMERCE
        )
    ][:_POOL_QUERIES]
    texts = [spec.text for spec in linked]
    concept_ids = [built.concept_ids[spec.text] for spec in linked]
    for text, concept_id in zip(texts, concept_ids):
        fast_search = fast.search_reranked(text)
        oracle_search = oracle.search_reranked(text)
        assert [c for c, _ in fast_search] == [c for c, _ in oracle_search]
        assert all(
            abs(a[1] - b[1]) <= 1e-9
            for a, b in zip(fast_search, oracle_search)
        )
        fast_items = fast.items_for_concept_reranked(concept_id)
        oracle_items = oracle.items_for_concept_reranked(concept_id)
        assert [i for i, _ in fast_items] == [i for i, _ in oracle_items]
        assert all(
            abs(a[1] - b[1]) <= 1e-9
            for a, b in zip(fast_items, oracle_items)
        )
    for _ in range(_POOL_PASSES):
        for text, concept_id in zip(texts, concept_ids):
            fast.search_reranked(text)
            oracle.search_reranked(text)
            fast.items_for_concept_reranked(concept_id)
            oracle.items_for_concept_reranked(concept_id)

    fast_stats, oracle_stats = fast.stats(), oracle.stats()
    lines.append("")
    for endpoint in ("search_reranked", "items_for_concept_reranked"):
        fast_ep = fast_stats.endpoint(endpoint)
        oracle_ep = oracle_stats.endpoint(endpoint)
        endpoint_speedup = oracle_ep.miss_p50_ms / max(fast_ep.miss_p50_ms, 1e-9)
        assert endpoint_speedup >= 1.0, (
            f"{endpoint} fast path should not be slower than the scalar "
            f"oracle, got {endpoint_speedup:.2f}x"
        )
        lines.append(
            f"  {endpoint}: fast p50 {fast_ep.miss_p50_ms:.3f}ms / "
            f"p95 {fast_ep.miss_p95_ms:.3f}ms vs scalar "
            f"p50 {oracle_ep.miss_p50_ms:.3f}ms / "
            f"p95 {oracle_ep.miss_p95_ms:.3f}ms -> {endpoint_speedup:.1f}x"
        )
    doc = fast_stats
    lines.append(
        f"  doc cache: {doc.doc_cache_entries} entries pre-warmed, "
        f"{doc.doc_cache_hits} hits / {doc.doc_cache_misses} misses"
    )
    lines.append(
        f"  parity: rankings identical, scores within 1e-9, "
        f"{len(texts)} queries x 2 endpoints"
    )
    report("\n".join(lines))


#: Load-stage bench: the snapshot it splits is of a net at the perfbench
#: scale (4800 items, 220 concepts), so its per-edge figures compare with
#: the warm-start profiles in ROADMAP.md.
_LOAD_ITEMS = 160 if SMOKE else 4800
_LOAD_CONCEPTS = 40 if SMOKE else 220
_LOAD_PASSES = 3 if SMOKE else 7


def _load_stages(path):
    """``load_snapshot``'s steps on a one-block snapshot, under one
    collector pause as the loader runs them: the store they build, and
    stage name -> seconds."""
    times = {}

    def timed(stage, call, *args):
        start = time.perf_counter()
        result = call(*args)
        times[stage] = times.get(stage, 0.0) + time.perf_counter() - start
        return result

    verify, insert = "verify (digests, header)", "trusted insert"
    with serialize.gc_paused():
        record, sections = timed(verify, serialize.read_sections, path)
        header, kinds, names = timed(verify, serialize._parse_header, record)
        block = timed("node decode", serialize._decode_block, "base", sections["base"])
        check = serialize._check_tables
        timed("table check", check, [block], header, kinds, len(names))
        relations = timed(
            "relation build",
            lambda: serialize._relations(
                block,
                serialize._objects([node.id for node in block.nodes]),
                serialize._objects(kinds),
                serialize._objects(names),
            ),
        )
        store = AliCoCoStore()
        timed(f"{insert} (nodes)", store.add_nodes_trusted, block.nodes)
        timed(f"{insert} (relations)", store.add_relations_trusted, relations)
    return store, times


def _collections_during(call):
    """Run ``call``; its wall seconds and every collection the cyclic
    collector ran inside it, as ``(generation, seconds)`` pairs."""
    collections, started = [], []

    def probe(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        else:
            seconds = time.perf_counter() - started.pop()
            collections.append((info["generation"], seconds))

    gc.callbacks.append(probe)
    try:
        start = time.perf_counter()
        call()
        wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(probe)
    return wall, collections


def test_load_stages(tmp_path, report):
    """Where a snapshot load goes: ``load_snapshot`` split into its steps,
    the collection the bulk build's pause defers, and bytes per edge.

    Reports only: the staged steps must rebuild the store the build
    made, and no timing is asserted.
    """
    scale = replace(BENCH_SCALE, n_items=_LOAD_ITEMS)
    built = build_alicoco(scale, n_concepts=_LOAD_CONCEPTS)
    path = tmp_path / "net.snapshot"
    snapshot_bytes = serialize.save_store(built.store, path)
    n_relations = built.store.stats().relations_total

    passes = [_load_stages(path) for _ in range(_LOAD_PASSES)]
    staged = passes[-1][0]
    assert list(staged.relations()) == list(built.store.relations())
    assert staged.stats() == built.store.stats()
    stages = {
        stage: float(np.median([times[stage] for _, times in passes]))
        for stage in passes[0][1]
    }
    del passes, staged

    # The whole load with the collector on, as a server runs it: the bulk
    # build runs paused, and the collection the pause deferred runs as
    # soon as it ends, still inside load_snapshot.
    loads = []
    for _ in range(_LOAD_PASSES):
        gc.collect()
        loads.append(_collections_during(lambda: serialize.load_snapshot(path)))
    walls = [wall for wall, _ in loads]
    collected = [sum(seconds for _, seconds in found) for _, found in loads]
    generations = sorted({generation for _, found in loads for generation, _ in found})
    full = sum(generation == 2 for _, found in loads for generation, _ in found)

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = serialize.load_snapshot(path).store
        net_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    edge = next(held.relations())
    assert type(edge) is Relation

    total = sum(stages.values())
    lines = [
        f"Snapshot load stages at {_LOAD_ITEMS} items / {_LOAD_CONCEPTS} concepts "
        f"({scale.name}): {len(built.store)} nodes, {n_relations} relations, "
        f"{snapshot_bytes} bytes",
        f"  median of {_LOAD_PASSES} staged loads, collector paused:",
    ]
    lines += [
        f"    {stage:<28} {seconds * 1e3:8.2f} ms  {seconds / total:6.1%}"
        for stage, seconds in stages.items()
    ]
    lines += [
        f"    {'sum':<28} {total * 1e3:8.2f} ms",
        f"  load_snapshot with the collector on: median {np.median(walls) * 1e3:.2f} "
        f"ms, of which collections {np.median(collected) * 1e3:.2f} ms (the walk "
        f"the pause defers; generations {generations}, {full} full collections "
        f"in {_LOAD_PASSES} loads)",
        f"  tracemalloc after one load: {net_bytes / 1e6:.2f} MB held, "
        f"{net_bytes / max(n_relations, 1):.0f} bytes per relation (nodes and "
        f"indexes included); one Relation is {sys.getsizeof(edge)} bytes",
    ]
    report("\n".join(lines))
