"""Serving demo (Section 7): build once, snapshot, restart, query.

Walks the offline/online split the paper deploys at Alibaba: construct
the net offline, persist it as a checksummed snapshot (format 2, see
``repro.kg.serialize``), then warm-start the online service from that
snapshot (no rebuild, no index re-fit; a damaged file is refused) and
answer concept queries — including an enveloped batch, where a bad
request comes back as a ``BatchResult`` error envelope instead of
throwing away its neighbours' completed work.

The second half serves *models*: a trained concept tagger answers
``tag`` (free text -> linked concept mentions) and a trained matcher
reranks BM25 candidates (``search_reranked``); both ride the same
snapshot as a model bundle, so the restarted service warm-starts graph,
index and weights from one file.

Run:
    python examples/serve_snapshot.py
"""

import tempfile
import threading
import time
from pathlib import Path

from repro import build_alicoco, TINY
from repro.concepts import ConceptTagger
from repro.errors import DataError, OverloadedError
from repro.kg import GenerationalStore
from repro.kg.relations import RelationKind
from repro.pipeline import EvolutionConfig, EvolutionDriver
from repro.matching import DSSMMatcher, train_matcher
from repro.matching.base import matching_vocab
from repro.matching.dataset import pair_from_texts
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.serving import (
    AliCoCoCluster,
    AliCoCoService,
    ClusterConfig,
    ServiceConfig,
)


def make_tagger(built, seed=1):
    """An untrained tagger architecture over the built world's text."""
    sentences = [list(spec.tokens) for spec in built.concepts]
    return ConceptTagger(
        Vocab.from_corpus(sentences),
        built.lexicon,
        PosTagger(built.lexicon.pos_lexicon()),
        use_fuzzy=False,
        word_dim=8,
        char_dim=4,
        hidden_dim=6,
        seed=seed,
    )


def training_pairs(built):
    """(concept text, item title) pairs for the reranker, from the graph."""
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
            pairs.append(
                pair_from_texts(
                    spec.tokens,
                    built.store.get(item_id).title.split(),
                    label=int(item_id in linked),
                )
            )
    return pairs


def make_reranker(built, seed=1):
    """An untrained DSSM architecture over the reranker's pair vocab."""
    return DSSMMatcher(
        matching_vocab(training_pairs(built)), dim=8, hidden=8, seed=seed
    )


def main() -> None:
    # --- offline: build the net and bring up a cold service --------------
    start = time.perf_counter()
    built = build_alicoco(TINY)
    service = AliCoCoService.from_build(built, config_fingerprint=TINY.fingerprint())
    cold_ms = (time.perf_counter() - start) * 1e3
    print(f"cold start (build + index fit): {cold_ms:.0f} ms")

    # --- persist: one checksummed, atomically written snapshot file -----
    snapshot = Path(tempfile.mkdtemp()) / "net.snapshot"
    size = service.save_snapshot(snapshot)
    print(f"snapshot: {size} bytes at {snapshot}")

    # A flipped bit anywhere fails a digest before anything is built.
    damaged = bytearray(snapshot.read_bytes())
    damaged[len(damaged) // 2] ^= 1
    damaged_path = snapshot.with_name("damaged.snapshot")
    damaged_path.write_bytes(bytes(damaged))
    try:
        AliCoCoService.from_snapshot(damaged_path)
    except DataError as error:
        print(f"damaged copy refused: {error}")
    else:
        raise AssertionError("a damaged snapshot must not load")

    # --- restart: warm-start a fresh service from the snapshot -----------
    start = time.perf_counter()
    service = AliCoCoService.from_snapshot(
        snapshot, expected_fingerprint=TINY.fingerprint()
    )
    warm_ms = (time.perf_counter() - start) * 1e3
    print(f"warm start (snapshot load): {warm_ms:.0f} ms")

    # --- query: the production surface, one concept card's worth ---------
    spec = built.concepts[0]
    print(f"\nquery: {spec.text!r}")
    for concept_id, score in service.search(spec.text, k=3):
        concept = service.store.get(concept_id)
        print(f"  {score:6.2f}  {concept.text!r}")

    concept_id = built.concept_ids[spec.text]
    print("\nconcept card:")
    for item_id, weight in service.items_for_concept(concept_id, top_k=3):
        print(f"  {weight:6.2f}  {service.store.get(item_id).title}")
    for primitive_id in service.interpretation(concept_id):
        primitive = service.store.get(primitive_id)
        print(f"  sense: {primitive.name} ({primitive.domain})")

    # --- batch with envelopes: failures are data, not lost work ----------
    requests = [
        ("search", spec.text),
        ("items_for_concept", "ec_999999999"),  # bad id, mid-batch
        ("items_for_concept", concept_id, 3),
    ]
    print("\nenvelope batch (one bad request in the middle, workers=2):")
    for request, result in zip(
        requests, service.batch(requests, on_error="envelope", workers=2)
    ):
        if result.ok:
            print(f"  ok    {request[0]}: {len(result.value)} results")
        else:
            print(
                f"  FAIL  {request[0]}: {result.error_type}: "
                f"{result.error_message}"
            )

    # --- observe: cache, latency and error stats after a repeat batch ----
    requests = [("search", spec.text), ("items_for_concept", concept_id, 3)]
    for _ in range(3):
        service.batch(requests)
    print("\n" + service.stats().format_table("service stats"))

    # --- model serving: train once, bundle in the snapshot ---------------
    print("\ntraining models (tagger + reranker)...")
    start = time.perf_counter()
    tagger = make_tagger(built)
    tagger.fit(built.concepts, epochs=3, lr=0.02, seed=1)
    reranker = make_reranker(built)
    train_matcher(reranker, training_pairs(built), epochs=2, lr=0.05, seed=0)
    train_ms = (time.perf_counter() - start) * 1e3
    modelled = AliCoCoService.from_build(
        built,
        tagger=tagger,
        reranker=reranker,
        config_fingerprint=TINY.fingerprint(),
    )
    print(f"trained in {train_ms:.0f} ms; serving {modelled.models}")

    bundle_path = snapshot.with_name("net.models.snapshot")
    modelled.save_snapshot(bundle_path)

    # Restart with weights from the bundle: fresh architectures, no
    # re-training; outputs are bit-identical to the trained originals.
    start = time.perf_counter()
    modelled = AliCoCoService.from_snapshot(
        bundle_path,
        tagger=make_tagger(built, seed=99),
        reranker=make_reranker(built, seed=99),
        expected_fingerprint=TINY.fingerprint(),
    )
    restore_ms = (time.perf_counter() - start) * 1e3
    print(
        f"warm-bundle restart: {restore_ms:.0f} ms (vs {train_ms:.0f} ms "
        "of training)"
    )

    print(f"\ntag: {spec.text!r}")
    for span in modelled.tag(spec.text):
        link = span.primitive_id or "<no node>"
        print(
            f"  [{span.start}:{span.stop}] {span.surface!r} "
            f"({span.domain}) -> {link}"
        )

    print("\nmodel-reranked search vs BM25:")
    for (bm25_id, bm25_score), (model_id, prob) in zip(
        modelled.search(spec.text, k=3), modelled.search_reranked(spec.text, 3)
    ):
        print(
            f"  bm25 {bm25_score:6.2f} {bm25_id:>6}   "
            f"model p={prob:.3f} {model_id:>6}"
        )

    # --- inference fast path: pre-warm the doc-encoding cache ------------
    # Reranked endpoints batch their pool through score_pool (query
    # encoded once, tape-free kernels); warming encodes the frozen
    # catalog up front so first queries pay no doc-encoding cost either.
    warmed = modelled.warm_doc_cache()
    start = time.perf_counter()
    modelled.search_reranked(built.concepts[1].text, 3)
    warm_query_ms = (time.perf_counter() - start) * 1e3
    doc_stats = modelled.stats()
    print(
        f"\nfast path: {warmed} doc encodings pre-warmed; "
        f"first warm reranked query {warm_query_ms:.2f} ms "
        f"({doc_stats.doc_cache_hits} doc-cache hits)"
    )

    # --- hybrid retrieval: exact dense + BM25 fused with RRF --------------
    # The first stage behind the reranked endpoints is configurable
    # (ServiceConfig(retriever=...)): "bm25" (default), "dense" (an exact
    # index over the reranker's own doc vectors), or "hybrid" (both arms
    # fused with Reciprocal Rank Fusion).  The dense index embeds the
    # frozen catalog once at startup — through the same doc-encoding
    # cache — and its *fitted* state rides the snapshot, so a restart
    # encodes nothing.
    hybrid_config = ServiceConfig(retriever="hybrid")
    hybrid = AliCoCoService.from_build(
        built,
        tagger=tagger,
        reranker=reranker,
        config=hybrid_config,
        config_fingerprint=TINY.fingerprint(),
    )
    print("\nhybrid-reranked search (RRF over dense + BM25 arms):")
    answers = hybrid.search_reranked(spec.text, 3)
    for concept_id, prob in answers:
        print(f"  p={prob:.3f}  {hybrid.store.get(concept_id).text!r}")

    hybrid_path = snapshot.with_name("net.hybrid.snapshot")
    hybrid.save_snapshot(hybrid_path)
    start = time.perf_counter()
    warm_hybrid = AliCoCoService.from_snapshot(
        hybrid_path,
        tagger=make_tagger(built, seed=7),
        reranker=make_reranker(built, seed=7),
        config=hybrid_config,
        expected_fingerprint=TINY.fingerprint(),
    )
    hybrid_warm_ms = (time.perf_counter() - start) * 1e3
    assert warm_hybrid.search_reranked(spec.text, 3) == answers
    print(
        f"  warm hybrid restart: {hybrid_warm_ms:.0f} ms, answers "
        "bit-identical (fitted dense index state rides the snapshot)"
    )

    # --- cluster serving: shards, coalescing, load shedding ---------------
    # The same store and models behind a sharded scatter-gather façade:
    # `ec`/`item` hash-partitioned, the taxonomy replicated, concurrent
    # duplicate rerank requests coalesced into one computation — and
    # answers bit-identical to the single service.  Result caches are off
    # and the admission limits are deliberately tight here so the demo
    # can actually shed.
    cluster = AliCoCoCluster(
        modelled.store,
        config=ClusterConfig(
            n_shards=2,
            cache_capacity=0,
            max_inflight=1,
            max_queue_depth=1,
            max_queue_wait_ms=100.0,
        ),
        service_config=ServiceConfig(cache_capacity=0),
        reranker=reranker,
    )
    assert cluster.search(spec.text, k=3) == modelled.search(spec.text, k=3)
    assert cluster.search_reranked(spec.text, 3) == (
        modelled.search_reranked(spec.text, 3)
    )
    print("\ncluster (2 shards): search + reranked answers bit-identical")

    # Under overload the cluster sheds with a typed error instead of
    # queueing without bound; a client's discipline is retry-with-backoff.
    def search_with_retry(text, k, retries=5, backoff_s=0.02):
        for attempt in range(retries):
            try:
                return cluster.search_reranked(text, k)
            except OverloadedError as error:
                print(f"  overloaded ({error.reason}); backing off...")
                time.sleep(backoff_s * (attempt + 1))
        return cluster.search_reranked(text, k)

    def hammer(texts):
        for text in texts:
            try:
                cluster.search_reranked(text, 3)
            except OverloadedError:
                pass

    print("cluster under a 4-client burst (max_inflight=1, queue=1):")
    burst = [
        threading.Thread(
            target=hammer,
            args=([candidate.text] * 3,),
        )
        for candidate in built.concepts[2:6]
    ]
    for thread in burst:
        thread.start()
    answers = search_with_retry(spec.text, 3)
    for thread in burst:
        thread.join()
    assert answers == modelled.search_reranked(spec.text, 3)
    admission = cluster.stats().admission
    print(
        f"  retried query served correctly; admitted {admission.admitted}, "
        f"shed {admission.shed_total} "
        f"({', '.join(f'{r} x{c}' for r, c in admission.shed) or 'none'})"
    )
    cluster.close()

    # --- out-of-process shards: escape the GIL, survive worker crashes ----
    # executor="process" serves every shard from its own interpreter:
    # the parent snapshots each shard store to disk, spawns one worker
    # per shard, and speaks a compact framed RPC over pipes.  Answers
    # stay bit-identical to the thread executor and the single service;
    # what changes is that scattered rerank compute runs on all cores.
    process_cluster = AliCoCoCluster(
        modelled.store,
        config=ClusterConfig(n_shards=2, executor="process"),
        service_config=ServiceConfig(),
        reranker=reranker,
    )
    assert process_cluster.search(spec.text, k=3) == (
        modelled.search(spec.text, k=3)
    )
    expected = modelled.search_reranked(spec.text, 3)
    assert process_cluster.search_reranked(spec.text, 3) == expected
    workers = process_cluster.stats().workers
    print(
        f"\nprocess cluster (2 shards): answers bit-identical; workers "
        f"{[w.pid for w in workers.workers]} alive={workers.all_alive}"
    )

    # Crash and recover: kill a worker out from under the cluster.  The
    # next call that needs it respawns the worker from its bootstrap
    # snapshot (plus any published deltas) and the answer is the same —
    # bounded restarts, then typed ShardUnavailableError degradation.
    victim = process_cluster.worker_pool.worker_process(0)
    victim.kill()
    victim.join()
    fresh_query = built.concepts[1].text
    assert process_cluster.search_reranked(fresh_query, 3) == (
        modelled.search_reranked(fresh_query, 3)
    )
    workers = process_cluster.stats().workers
    print(
        f"  killed shard 0 (pid {victim.pid}); auto-restarted as pid "
        f"{workers.workers[0].pid}, answers still bit-identical "
        f"({workers.total_restarts} restart)"
    )
    process_cluster.close()

    # --- closing the loop: background mining, drain, compact, restart -----
    # The deployed net keeps growing.  An EvolutionDriver runs the
    # construction stages (mine -> classify -> link -> match) against
    # fresh corpus batches on a background thread and publishes
    # generations into the live service; new concepts become searchable
    # without a restart and readers never block.
    evolving = AliCoCoService(
        GenerationalStore(built.store), config=ServiceConfig()
    )
    driver = EvolutionDriver.from_build(
        built,
        evolving,
        config=EvolutionConfig(
            seed=23,
            n_good=3,
            n_bad=2,
            n_queries=12,
            n_guides=8,
            publish_min_nodes=1,
            cycle_interval=0.0,
        ),
    )
    print("\nevolution: background mining into the live service...")
    driver.start()
    while evolving.generation_id < 2:
        time.sleep(0.005)

    # Drain flushes whatever is staged and stops the loop; the newest
    # mined concept is searchable with no restart.  Compaction then
    # folds the published segment chain into a fresh frozen base —
    # bit-identical answers, same generation id.
    final_generation = driver.drain()
    store = evolving.store  # the GenerationalStore behind the service
    newest = list(store.nodes("ec"))[-1]
    hits = evolving.search(newest.text)
    assert hits and hits[0][0] == newest.id
    print(
        f"  mined concept {newest.text!r} searchable at generation "
        f"{evolving.generation_id}, no restart"
    )
    before = hits
    folded = store.compact()
    assert evolving.search(newest.text) == before
    print(
        f"  drained at generation {final_generation}; compacted "
        f"{folded} segments into the base (answers bit-identical)"
    )

    # The folded generation rides the snapshot: a warm restart resumes
    # the numbering and keeps growing from where the driver left off.
    evolved_path = snapshot.with_name("evolved.snapshot")
    evolving.save_snapshot(evolved_path)
    warm_evolved = AliCoCoService.from_snapshot(evolved_path)
    assert warm_evolved.generation_id == final_generation
    assert warm_evolved.search(newest.text) == before
    resumed = EvolutionDriver.from_build(
        built,
        warm_evolved,
        config=EvolutionConfig(
            seed=29, n_good=2, n_bad=1, n_queries=10, n_guides=6,
            publish_min_nodes=1, cycle_interval=0.0,
        ),
    )
    report = resumed.run_cycle()
    print(
        f"  warm restart resumed at generation {final_generation}; one "
        f"more cycle published generation {report.published_generation} "
        f"({report.accepted} concepts, {report.links + report.matches} "
        "relations)"
    )


if __name__ == "__main__":
    main()
