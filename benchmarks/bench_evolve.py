"""Bench — evolve: generation swaps under live read traffic.

The net the paper serves is rebuilt offline, but the catalog keeps
moving between rebuilds.  The generational store lets the serving tier
absorb that drift without a restart: writes land in copy-on-write delta
segments and ``publish()`` swaps the next generation in atomically while
readers keep answering.  This benchmark gates the three properties that
story stands on:

- **published-generation parity**: a service that has published a
  generation answers all eight endpoints exactly like a fresh service
  over ``flatten()`` of its store — an overlay of segments, with
  incrementally extended indexes, is indistinguishable from the
  monolithic net;
- **swap atomicity under load**: while generations publish mid-flight,
  every concurrent answer must be *exactly* a generation-g answer for
  some published g.  A third value would mean a reader saw a mixed
  state (new documents with old corpus statistics, say);
- **read latency under swap**: publishing happens off the read path
  (readers never take the publish lock), so the p99 of reads taken
  while generations swap must stay within a generous multiple of the
  no-swap p99 — a swap must never stall the read side.

A final freshness check asserts the last generation's concepts answer
immediately after ``publish()`` returns, and that the incrementally
extended BM25 index is bit-identical to a refit over the flattened
store.

Two more gates close the evolution loop:

- **compaction parity**: folding the segment chain into a fresh base
  (``compact()``, or ``compact_after_segments`` auto-compaction) keeps
  every answer bit-identical, keeps the generation id, and bounds the
  chain length while generations keep publishing;
- **driver freshness**: the background ``EvolutionDriver`` mines real
  candidates from fresh corpus batches and every concept it accepts is
  searchable the moment its publish returns — end to end, no restart.

A last section reports **compaction scaling**: the same ten-segment
delta folded by ``compact()`` over bases of two sizes (4800 and 9600
items at full scale).  A fold that costs the delta stays nearly flat as
the base doubles; one that copies whole-net lists doubles with it.  The
section checks that each fold reads like ``flatten`` and reports the
fold times; it asserts no timing, which a shared host makes noisy.
"""

import gc
import statistics
import threading
import time
from dataclasses import replace

from repro.concepts import ConceptTagger
from repro.errors import NodeNotFoundError
from repro.kg import GenerationalStore, Relation, RelationKind, flatten
from repro.matching import DSSMMatcher, train_matcher
from repro.matching.base import matching_vocab
from repro.matching.dataset import pair_from_texts
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.pipeline.build import build_alicoco
from repro.pipeline.evolve import EvolutionConfig, EvolutionDriver
from repro.serving import AliCoCoService, ServiceConfig, fit_concept_index
from repro.utils.timing import LatencyReservoir

from conftest import BENCH_SCALE, SMOKE

_N_ITEMS = 160 if SMOKE else 480
_N_CONCEPTS = 40 if SMOKE else 110
_TAGGER_EPOCHS = 2 if SMOKE else 3
_RERANKER_EPOCHS = 2 if SMOKE else 3
_READER_THREADS = 4 if SMOKE else 8
_GENERATIONS = 3 if SMOKE else 6
_BASELINE_SECONDS = 0.2 if SMOKE else 0.5
#: Publishes are spread out so swaps land mid-read-traffic.
_PUBLISH_GAP_SECONDS = 0.01 if SMOKE else 0.02
#: Read p99 while swapping vs without: a generous bound (publish clones
#: indexes off the read path; readers only ever load one attribute), with
#: an absolute floor because toy-scale p99s are single-digit micros.
_MAX_P99_RATIO = 50.0
_P99_FLOOR_SECONDS = 0.05
#: Compaction scaling: base sizes (items; concepts fixed) and folds timed
#: per size.
_FOLD_BASE_ITEMS = (160, 320) if SMOKE else (4800, 9600)
_FOLD_CONCEPTS = 40 if SMOKE else 220
_FOLD_SEGMENTS = 10
_FOLD_REPEATS = 3 if SMOKE else 15


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


def _eight_endpoint_battery(built):
    """One request per endpoint family, several keys each."""
    requests = []
    for spec in built.concepts[:8]:
        concept_id = built.concept_ids[spec.text]
        requests += [
            ("search", spec.text),
            ("items_for_concept", concept_id, 5),
            ("interpretation", concept_id),
            ("tag", spec.text),
            ("items_for_concept_reranked", concept_id, 5),
            ("search_reranked", spec.text, 5),
        ]
    for index in range(6):
        requests.append(("concepts_for_item", built.item_ids[index]))
    for primitive_id in list(built.primitive_ids.values())[:6]:
        requests.append(("hypernyms", primitive_id, True))
    return requests


def _grow(store, generation):
    """One generation's writes: a concept, an item, and the link."""
    concept = store.create_ecommerce(f"fresh evolve {generation} concept")
    item = store.create_item(f"fresh evolve {generation} item title")
    store.add_relation(
        Relation(
            kind=RelationKind.ITEM_ECOMMERCE,
            source=item.id,
            target=concept.id,
            weight=0.9,
        )
    )
    return concept


def _observe(service, probes):
    results = []
    for endpoint, *args in probes:
        try:
            results.append(getattr(service, endpoint)(*args))
        except NodeNotFoundError:
            results.append("absent")
    return tuple(results)


def test_evolve(report):
    scale = replace(BENCH_SCALE, n_items=_N_ITEMS)
    built = build_alicoco(scale, n_concepts=_N_CONCEPTS)
    tagger, reranker = _train_models(built)
    config = ServiceConfig(seed=0)

    # ---- Gate 1: a published generation answers like flatten().
    evolving = GenerationalStore(built.store)
    evolvable = AliCoCoService(
        evolving, config=config, tagger=tagger, reranker=reranker
    )
    concept = _grow(evolving, 0)
    assert evolvable.publish() == 1
    flat = AliCoCoService(
        flatten(evolving), config=config, tagger=tagger, reranker=reranker
    )
    battery = _eight_endpoint_battery(built) + [
        ("search", concept.text),
        ("items_for_concept", concept.id, 5),
        ("search_reranked", concept.text, 5),
    ]
    assert evolvable.batch(battery) == flat.batch(battery), (
        "a service after a publish must answer every endpoint exactly like "
        "a fresh service over flatten() of its store"
    )

    # ---- Reference run: per-generation expected answers.  Node ids
    # allocate deterministically, so an identical store taken through
    # the same writes predicts each generation's answers exactly.
    probe_concept = GenerationalStore(built.store).create_ecommerce("x").id
    probes = [
        ("search", f"fresh evolve {_GENERATIONS} concept"),
        ("search", built.concepts[0].text),
        ("items_for_concept", probe_concept, 5),
    ]
    reference = GenerationalStore(built.store)
    reference_service = AliCoCoService(reference, config=config)
    expected = [_observe(reference_service, probes)]
    for generation in range(1, _GENERATIONS + 1):
        _grow(reference, generation)
        reference_service.publish()
        expected.append(_observe(reference_service, probes))
    allowed = [
        {answers[index] for answers in expected} for index in range(len(probes))
    ]

    # ---- Gate 3 baseline: read p99 with no swaps in flight.
    store = GenerationalStore(built.store)
    service = AliCoCoService(store, config=config)
    baseline = LatencyReservoir(capacity=512, seed=0)
    under_swap = LatencyReservoir(capacity=512, seed=0)
    reservoir = baseline
    errors: list = []
    stop = threading.Event()
    barrier = threading.Barrier(_READER_THREADS + 1)
    query_count = [0]

    def reader():
        try:
            barrier.wait()
            while not stop.is_set():
                start = time.perf_counter()
                observed = _observe(service, probes)
                reservoir.record(time.perf_counter() - start)
                query_count[0] += 1  # benign race: approximate count
                for index, answer in enumerate(observed):
                    assert answer in allowed[index], (index, answer)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(_READER_THREADS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(_BASELINE_SECONDS)

    # ---- Gate 2 + 3: publish every generation while readers hammer.
    reservoir = under_swap
    swap_start = time.perf_counter()
    for generation in range(1, _GENERATIONS + 1):
        _grow(store, generation)
        published = service.publish()
        assert published == generation
        time.sleep(_PUBLISH_GAP_SECONDS)
    swap_seconds = time.perf_counter() - swap_start
    time.sleep(_PUBLISH_GAP_SECONDS)
    stop.set()
    for thread in threads:
        thread.join()
    assert errors == [], errors[:1]

    p99_baseline = baseline.quantile(0.99)
    p99_swap = under_swap.quantile(0.99)
    p99_bound = max(_MAX_P99_RATIO * p99_baseline, _P99_FLOOR_SECONDS)
    assert p99_swap <= p99_bound, (
        f"read p99 under swap {p99_swap * 1e3:.2f} ms exceeds "
        f"{p99_bound * 1e3:.2f} ms "
        f"(baseline p99 {p99_baseline * 1e3:.2f} ms x {_MAX_P99_RATIO})"
    )

    # ---- Freshness: the final generation answers immediately, and the
    # incrementally extended BM25 index equals a refit bit-for-bit.
    final = _observe(service, probes)
    assert final == expected[_GENERATIONS]
    assert service.generation_id == _GENERATIONS
    hits = service.search(f"fresh evolve {_GENERATIONS} concept")
    assert hits and service._gen.store.get(hits[0][0]).text == (
        f"fresh evolve {_GENERATIONS} concept"
    )
    refit = fit_concept_index(flatten(store))
    assert service._search_index.to_state() == refit.to_state()

    counters = service._cache.counters()
    assert counters.hits + counters.misses == counters.lookups

    # ---- Gate 4: compaction parity.  Folding the chain is a
    # representation change: answers and the generation id must not
    # move — also when a second fold builds on the first one's base —
    # and auto-compaction must bound the chain while generations keep
    # publishing.
    before_compaction = _observe(service, probes)
    assert len(store.published_segments) == _GENERATIONS
    assert store.compact() == _GENERATIONS
    assert store.published_segments == ()
    assert service.generation_id == _GENERATIONS
    assert _observe(service, probes) == before_compaction, (
        "compaction changed an answer: folding the segment chain must be "
        "bit-identical"
    )
    for generation in range(_GENERATIONS + 1, 2 * _GENERATIONS + 1):
        _grow(reference, generation)
        reference_service.publish()
        _grow(store, generation)
        service.publish()
    assert store.compact() == 2 * _GENERATIONS
    assert store.published_segments == ()
    assert _observe(service, probes) == _observe(reference_service, probes), (
        "a fold of a fold must answer exactly like the never-compacted reference"
    )
    compacting = GenerationalStore(built.store, compact_after_segments=2)
    compacting_service = AliCoCoService(compacting, config=config)
    for generation in range(1, _GENERATIONS + 1):
        _grow(compacting, generation)
        compacting_service.publish()
        assert len(compacting.published_segments) <= 2, (
            "auto-compaction must bound the segment chain"
        )
    assert compacting.base_generation > 0
    assert _observe(compacting_service, probes) == expected[_GENERATIONS], (
        "an auto-compacting store must answer exactly like the "
        "never-compacted reference"
    )

    # ---- Gate 5: driver freshness.  The background evolution loop
    # mines candidates from fresh corpus batches; every accepted
    # concept must be searchable the moment its publish returns.
    driver_store = GenerationalStore(built.store, compact_after_segments=3)
    driver_service = AliCoCoService(driver_store, config=config)
    driver = EvolutionDriver.from_build(
        built,
        driver_service,
        config=EvolutionConfig(
            seed=23,
            n_good=3,
            n_bad=2,
            n_queries=12 if SMOKE else 24,
            n_guides=8 if SMOKE else 16,
            publish_min_nodes=1,
            cycle_interval=0.0,
        ),
    )
    publishes_needed = 2 if SMOKE else 3
    cycles = 0
    while driver.stats().publishes < publishes_needed:
        cycles += 1
        assert cycles <= 10 * publishes_needed, (
            f"driver freshness: {publishes_needed} publishes did not "
            f"happen within {cycles} cycles"
        )
        cycle = driver.run_cycle()
        if cycle.published_generation is not None:
            newest = list(driver_store.nodes("ec"))[-1]
            hits = driver_service.search(newest.text)
            assert hits and hits[0][0] == newest.id, (
                f"concept {newest.text!r} not searchable immediately "
                f"after publish {cycle.published_generation}"
            )
    final_generation = driver.drain()
    driver_stats = driver.stats()
    assert driver_service.generation_id == final_generation
    assert driver_stats.concepts_accepted > 0
    assert len(driver_store.published_segments) <= 3, (
        "the driver's store must auto-compact to a bounded chain"
    )

    lines = [
        f"Evolvable serving at {_N_ITEMS} items / {_N_CONCEPTS} concepts "
        f"({scale.name})",
        f"  published-generation parity: {len(battery)} requests across all "
        f"eight endpoints bit-identical to a service over flatten()",
        f"  swaps: {_GENERATIONS} generations published in "
        f"{swap_seconds * 1e3:.1f} ms under {_READER_THREADS} reader threads "
        f"(~{query_count[0]} probe batteries, every answer a whole "
        f"generation)",
        f"  read p99: baseline {p99_baseline * 1e6:.0f} us, under swap "
        f"{p99_swap * 1e6:.0f} us (bound {p99_bound * 1e3:.1f} ms)",
        f"  freshness: generation {_GENERATIONS} searchable immediately; "
        f"incremental BM25 state == refit",
        f"  cache: {counters.hits} hits / {counters.misses} misses, "
        f"generation-keyed (never cleared)",
        f"  compaction: {_GENERATIONS} segments folded bit-identically at "
        f"generation {_GENERATIONS}, {_GENERATIONS} more folded over that "
        f"base at generation {2 * _GENERATIONS}; auto-compaction held the "
        f"chain at <= 2 segments",
        f"  evolution driver: {driver_stats.cycles} cycles mined "
        f"{driver_stats.concepts_accepted} concepts "
        f"(+{driver_stats.relations_staged} relations) across "
        f"{driver_stats.publishes} publishes to generation "
        f"{final_generation}; every concept searchable on publish",
    ]
    report("\n".join(lines))


def _fold_delta(store):
    """Ten published segments shaped like evolution publishes: a new
    concept linked from existing items and interpreted by primitives."""
    items = [node.id for node in store.nodes("item")][:100]
    primitives = [node.id for node in store.nodes("pc")][:20]
    for segment in range(_FOLD_SEGMENTS):
        concept = store.create_ecommerce(f"fold scaling {segment} concept")
        edges = [
            Relation(
                RelationKind.ITEM_ECOMMERCE,
                items[(7 * segment + k) % len(items)],
                concept.id,
                0.5,
            )
            for k in range(40)
        ]
        edges += [
            Relation(
                RelationKind.INTERPRETED_BY,
                concept.id,
                primitives[(segment + k) % len(primitives)],
            )
            for k in range(2)
        ]
        store.add_relations(edges)
        store.publish()


def test_compaction_scaling(report):
    lines = [
        f"Compaction scaling: {_FOLD_SEGMENTS} published segments folded by "
        f"compact(), median of {_FOLD_REPEATS} folds per base"
    ]
    medians = []
    for n_items in _FOLD_BASE_ITEMS:
        built = build_alicoco(
            replace(BENCH_SCALE, n_items=n_items), n_concepts=_FOLD_CONCEPTS
        )
        stats = built.store.stats()
        seconds = []
        for repeat in range(_FOLD_REPEATS):
            store = GenerationalStore(built.store)
            _fold_delta(store)
            if repeat == 0:
                oracle = flatten(store)
            gc.collect()
            start = time.perf_counter()
            store.compact()
            seconds.append(time.perf_counter() - start)
            assert store.published_segments == ()
        assert store.stats() == oracle.stats()
        assert list(store.relations()) == list(oracle.relations()), (
            "a fold must read like the flattened store"
        )
        medians.append(statistics.median(seconds))
        lines.append(
            f"  base of {n_items} items ({len(built.store)} nodes, "
            f"{stats.relations_total} relations): fold "
            f"{medians[-1] * 1e3:.3f} ms"
        )
    lines.append(
        f"  fold time ratio {medians[-1] / medians[0]:.2f} for a base "
        f"{_FOLD_BASE_ITEMS[-1] / _FOLD_BASE_ITEMS[0]:.0f}x as large"
    )
    report("\n".join(lines))
