"""Evolvable generations: copy-on-write deltas over a frozen base.

The paper's net is rebuilt offline and served frozen; between rebuilds
the catalog still moves.  :class:`~repro.kg.generations.GenerationalStore`
lets the serving tier absorb that drift without unfreezing anything:
writes land in an open delta, ``publish()`` freezes it into the next
segment and publishes the next numbered generation, and readers always
see base + published deltas through the unchanged store/query API.

These tests pin the three contracts the design stands on:

- **overlay reads == flattened reads**: every read API over the overlay
  must agree with a monolithic ``AliCoCoStore`` holding the same nodes
  in the same insertion order (``flatten`` is the oracle);
- **generation 0 is bit-identical**: a service over a zero-delta
  generational store answers all eight endpoints exactly like a service
  over the frozen base — including reranked tie-breaks;
- **publish is atomic and exact**: the incrementally-extended BM25 index
  equals a refit bit-for-bit, caches are generation-keyed instead of
  cleared, and snapshots round-trip the full generation history.
"""

from itertools import islice

import pytest

from repro.concepts import ConceptTagger
from repro.errors import (
    ConfigError,
    DataError,
    DuplicateNodeError,
    FrozenStoreError,
    GraphError,
    NodeNotFoundError,
    RelationError,
)
from repro.kg import (
    AliCoCoStore,
    GenerationalStore,
    Item,
    Relation,
    RelationKind,
    flatten,
)
from repro.kg.ids import layer_of
from repro.kg.generations import GenerationView
from repro.kg.serialize import (
    _BLOCK_PREFIX,
    load_snapshot,
    read_sections,
    save_generations,
    write_sections,
)
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.retrieval import BruteForceDense
from repro.serving import (
    AliCoCoService,
    CacheCounters,
    LRUCache,
    ServiceConfig,
    fit_concept_index,
)
from repro.serving.cache import GENERATION_WINDOWS

from tests.conftest import make_trained_reranker


@pytest.fixture(scope="module")
def reranker(built_tiny):
    return make_trained_reranker(built_tiny)


@pytest.fixture(scope="module")
def tagger(built_tiny):
    sentences = [list(spec.tokens) for spec in built_tiny.concepts]
    model = ConceptTagger(
        Vocab.from_corpus(sentences),
        built_tiny.lexicon,
        PosTagger(built_tiny.lexicon.pos_lexicon()),
        use_fuzzy=False,
        word_dim=8,
        char_dim=4,
        hidden_dim=6,
        seed=1,
    )
    model.fit(built_tiny.concepts, epochs=3, lr=0.02, seed=1)
    return model


def _grow(store: GenerationalStore, tag: str) -> tuple:
    """One writer round: a concept, an item, and the linking relation."""
    concept = store.create_ecommerce(f"fresh {tag} concept")
    item = store.create_item(f"fresh {tag} item title")
    store.add_relation(
        Relation(
            kind=RelationKind.ITEM_ECOMMERCE,
            source=item.id,
            target=concept.id,
            weight=0.9,
        )
    )
    return concept, item


# ----------------------------------------------------------- store semantics
class TestGenerationalStore:
    def test_generation_zero_reads_pass_through(self, built_tiny):
        base = built_tiny.store
        store = GenerationalStore(base)
        assert store.generation_id == 0
        assert len(store) == len(base)
        assert store.stats() == base.stats()
        node = next(base.nodes("ec"))
        assert store.get(node.id) == node
        assert store.count_nodes("item") == base.count_nodes("item")

    def test_store_is_frozen_for_the_serving_tier(self, built_tiny):
        """The base is frozen in place; writes go to the open delta."""
        store = GenerationalStore(built_tiny.store)
        assert built_tiny.store.frozen is True
        with pytest.raises(FrozenStoreError):
            built_tiny.store.create_item("contraband")
        item = store.create_item("staged item title")
        assert store.open_counts == (1, 0)
        assert item.id not in built_tiny.store

    def test_a_view_keeps_its_base_segments_and_numbering(self, built_tiny):
        source = GenerationalStore(built_tiny.store)
        for tag in ("v1", "v2"):
            _grow(source, tag)
            source.publish()
        source.compact()
        _grow(source, "v3")
        source.publish()
        view = source.current()
        store = GenerationalStore(view)
        assert store.current() is view
        assert store.generation_id == view.generation_id == 3
        assert store.base_generation == view.base_generation == 2
        assert store.published_segments == view._segments
        concept, _ = _grow(store, "v4")
        assert store.publish() == view.generation_id + 1
        assert store.base_generation == 2
        assert len(store.published_segments) == 2
        assert concept.id in store and concept.id not in source
        flat = flatten(store)
        assert list(store.relations()) == list(flat.relations())

    def test_writes_stay_invisible_until_publish(self, built_tiny):
        base = built_tiny.store
        store = GenerationalStore(base)
        concept, item = _grow(store, "pending")
        # Open-delta writes are tracked but not readable: the store's
        # read API always answers from the *published* view, so readers
        # can never observe a half-written generation.
        assert store.open_counts == (2, 1)
        assert concept.id not in store
        with pytest.raises(NodeNotFoundError):
            store.get(concept.id)
        with pytest.raises(NodeNotFoundError):
            base.get(concept.id)
        generation = store.publish()
        assert generation == 1
        assert store.open_counts == (0, 0)
        assert store.get(concept.id).text == "fresh pending concept"
        assert [
            node.id for node in store.targets(item.id, RelationKind.ITEM_ECOMMERCE)
        ] == [concept.id]

    def test_id_allocation_never_reuses_base_ids(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        taken = {node.id for node in built_tiny.store.nodes()}
        created = [store.create_ecommerce(f"alloc probe {i}") for i in range(3)]
        assert len({c.id for c in created}) == 3
        assert not taken & {c.id for c in created}

    def test_a_flattened_or_loaded_net_allocates_fresh_ids(
        self, built_tiny, tmp_path
    ):
        """A plain store whose nodes were not made by its own ``create_*``
        (``flatten()`` of a published view, or of a loaded snapshot)
        still hands out ids it does not hold, in every layer."""
        store = GenerationalStore(built_tiny.store)
        _grow(store, "ids")
        store.publish()
        path = tmp_path / "ids.snap"
        save_generations(store, path)
        for view in (store.current(), load_snapshot(path).store):
            flat = flatten(view)
            taken = {node.id for node in flat.nodes()}
            parent = next(flat.nodes("cls"))
            created = [
                flat.create_class("fresh class", parent.domain, parent.id),
                flat.create_primitive("fresh primitive", parent.id),
                flat.create_ecommerce("fresh ids concept"),
                flat.create_ecommerce("fresh ids concept two"),
                flat.create_item("fresh ids item"),
            ]
            ids = [node.id for node in created]
            assert len(set(ids)) == len(ids) and not taken & set(ids)
            assert len(flat) == len(taken) + len(ids)

    def test_duplicate_and_dangling_writes_rejected(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        existing = next(built_tiny.store.nodes("item"))
        with pytest.raises(DuplicateNodeError):
            store.add_node(Item(id=existing.id, title="imposter"))
        concept, item = _grow(store, "dup")
        with pytest.raises(DuplicateNodeError):
            store.add_node(Item(id=item.id, title="imposter"))
        with pytest.raises(NodeNotFoundError):
            store.add_relation(
                Relation(
                    kind=RelationKind.ITEM_ECOMMERCE,
                    source="item_999999999",
                    target=concept.id,
                )
            )
        with pytest.raises(RelationError):  # endpoint in the wrong layer
            store.add_relation(
                Relation(
                    kind=RelationKind.ITEM_ECOMMERCE,
                    source=concept.id,
                    target=concept.id,
                )
            )
        # Duplicate triples are ignored, matching AliCoCoStore semantics.
        first = store.add_relation(
            Relation(
                kind=RelationKind.ITEM_ECOMMERCE,
                source=item.id,
                target=concept.id,
                weight=0.4,
            )
        )
        assert first.weight == 0.9  # the original edge, not the retry

    def test_sealed_segments_are_immutable(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        _grow(store, "sealed")
        store.publish()
        (segment,) = store.published_segments
        assert segment.frozen
        with pytest.raises(FrozenStoreError):
            segment.add_node(Item(id="item_999999998", title="late"))

    def test_writes_into_a_sealed_segment_raise(self, built_tiny):
        """A sealed segment is a frozen store: every write path refuses,
        and the segment reads as it did when it was sealed."""
        store = GenerationalStore(built_tiny.store)
        _grow(store, "sealed")
        store.publish()
        (segment,) = store.published_segments
        assert segment.frozen
        before = (list(segment.nodes()), list(segment.relations()))
        (item,) = segment.nodes("item")
        (concept,) = segment.nodes("ec")
        edge = Relation(RelationKind.ITEM_ECOMMERCE, item.id, concept.id, weight=0.1)
        late = Item(id="item_999999997", title="late")
        for write, argument in (
            (segment.add_node, late),
            (segment.add_nodes_trusted, [late]),
            (segment.add_relation, edge),
            (segment.add_relations, [edge]),
            (segment.add_relations_trusted, [edge]),
        ):
            with pytest.raises(FrozenStoreError):
                write(argument)
        with pytest.raises(FrozenStoreError):
            segment.create_ecommerce("late concept")
        assert (list(segment.nodes()), list(segment.relations())) == before

    def test_empty_publish_is_a_noop(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        assert store.publish() == 0
        assert store.published_segments == ()
        _grow(store, "real")
        assert store.publish() == 1
        assert store.publish() == 1  # nothing new written
        assert len(store.published_segments) == 1

    def test_generations_are_monotonic(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        for expected in (1, 2, 3):
            _grow(store, f"round-{expected}")
            assert store.publish() == expected
        assert [segment.frozen for segment in store.published_segments] == [True] * 3


# ------------------------------------------------- overlay vs flatten oracle
class TestOverlayReads:
    @pytest.fixture(scope="class")
    def grown(self, built_tiny):
        """Two published generations plus open writes, and the oracle."""
        store = GenerationalStore(built_tiny.store)
        _grow(store, "g1")
        store.publish()
        _grow(store, "g2a")
        _grow(store, "g2b")
        store.publish()
        oracle = flatten(store)
        return store, oracle

    def test_flatten_is_a_plain_store(self, grown):
        store, oracle = grown
        assert isinstance(oracle, AliCoCoStore)
        assert len(oracle) == len(store)

    def test_every_read_api_matches_the_oracle(self, grown):
        store, oracle = grown
        assert store.stats() == oracle.stats()
        for layer in ("cls", "pc", "ec", "item"):
            assert [n.id for n in store.nodes(layer)] == [
                n.id for n in oracle.nodes(layer)
            ]
            assert store.count_nodes(layer) == oracle.count_nodes(layer)
        assert [n.id for n in store.nodes()] == [n.id for n in oracle.nodes()]
        for kind in RelationKind:
            assert list(store.relations(kind)) == list(oracle.relations(kind))
            assert store.count_relations(kind) == oracle.count_relations(kind)

    def test_point_reads_match_the_oracle(self, grown):
        store, oracle = grown
        for node in oracle.nodes("ec"):
            assert store.get(node.id) == node
            assert node.id in store
            assert store.in_relations(
                node.id, RelationKind.ITEM_ECOMMERCE
            ) == oracle.in_relations(node.id, RelationKind.ITEM_ECOMMERCE)
            assert store.targets(
                node.id, RelationKind.INTERPRETED_BY
            ) == oracle.targets(node.id, RelationKind.INTERPRETED_BY)
        assert store.find_by_name("ec", "fresh g2a concept") == oracle.find_by_name(
            "ec", "fresh g2a concept"
        )

    def test_domain_queries_match_the_oracle(self, grown):
        store, oracle = grown
        domains = {node.domain for node in oracle.nodes("cls")}
        for domain in domains:
            assert store.classes_in_domain(domain) == oracle.classes_in_domain(domain)
            assert store.primitives_in_domain(domain) == (
                oracle.primitives_in_domain(domain)
            )

    def test_flatten_rejects_foreign_types(self):
        with pytest.raises(ConfigError):
            flatten(object())


# ------------------------------------------- zero-delta serving bit-identity
class TestZeroDeltaServingParity:
    """A generational service with no deltas answers exactly like frozen."""

    @pytest.fixture(scope="class", params=["bm25", "hybrid"])
    def services(self, request, built_tiny, tagger, reranker):
        config = ServiceConfig(seed=0, retriever=request.param)
        frozen = AliCoCoService(
            built_tiny.store, config=config, tagger=tagger, reranker=reranker
        )
        generational = AliCoCoService(
            GenerationalStore(built_tiny.store),
            config=config,
            tagger=tagger,
            reranker=reranker,
        )
        return frozen, generational

    def test_all_eight_endpoints_bit_identical(self, services, built_tiny):
        frozen, generational = services
        assert generational.generation_id == 0
        requests = []
        for spec in built_tiny.concepts[:6]:
            concept_id = built_tiny.concept_ids[spec.text]
            requests += [
                ("search", spec.text),
                ("items_for_concept", concept_id, 5),
                ("interpretation", concept_id),
                ("tag", spec.text),
                ("items_for_concept_reranked", concept_id, 5),
                ("search_reranked", spec.text, 5),
            ]
        for index in range(4):
            requests.append(("concepts_for_item", built_tiny.item_ids[index]))
        for primitive_id in list(built_tiny.primitive_ids.values())[:4]:
            requests.append(("hypernyms", primitive_id, True))
        assert generational.batch(requests) == frozen.batch(requests)


# ------------------------------------------------------------- publish flow
class TestPublishServing:
    def test_publish_serves_new_nodes_and_keeps_old_answers(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        service = AliCoCoService(store, config=ServiceConfig(seed=0))
        spec = built_tiny.concepts[0]
        before = service.search(spec.text)
        concept, item = _grow(store, "served")
        assert service.search("fresh served concept") == ()  # pinned at gen 0
        generation = service.publish()
        assert generation == 1
        assert service.generation_id == 1
        hits = service.search("fresh served concept")
        assert hits and hits[0][0] == concept.id
        items = service.items_for_concept(concept.id, 5)
        assert [entry[0] for entry in items] == [item.id]
        # Graph answers for old keys are untouched; BM25 *scores* for old
        # queries legitimately shift (idf/avgdl are corpus statistics),
        # but exactly as a refit over the flattened store would shift them.
        old_id = built_tiny.concept_ids[spec.text]
        assert service.items_for_concept(old_id, 5) == tuple(
            (r.source, r.weight)
            for r in sorted(
                built_tiny.store.in_relations(old_id, RelationKind.ITEM_ECOMMERCE),
                key=lambda r: -r.weight,
            )[:5]
        )
        refit = AliCoCoService(flatten(store), config=ServiceConfig(seed=0))
        assert service.search(spec.text) == refit.search(spec.text)
        assert before[0][0] == service.search(spec.text)[0][0]

    @pytest.mark.parametrize("retriever", ["bm25", "hybrid"])
    def test_publish_delta_answers_like_a_fresh_service_over_flatten(
        self, built_tiny, tagger, reranker, retriever
    ):
        config = ServiceConfig(seed=0, retriever=retriever)
        store = GenerationalStore(built_tiny.store)
        service = AliCoCoService(store, config=config, tagger=tagger, reranker=reranker)
        # A span the served net cannot link yet: the delta's primitive
        # gives it a node, and ``tag`` must link to it after publish.
        text, span = next(
            (spec.text, span)
            for spec in built_tiny.concepts
            for span in service.tag(spec.text)
            if span.primitive_id is None and store.classes_in_domain(span.domain)
        )
        primitive_index = service._gen.primitive_index
        _grow(store, "no-primitive")
        service.publish()
        assert service._gen.primitive_index is primitive_index
        class_id = store.classes_in_domain(span.domain)[0].id
        primitive = store.create_primitive(span.surface, class_id)
        concept, item = _grow(store, "delta")
        store.add_relation(Relation(RelationKind.ITEM_PRIMITIVE, item.id, primitive.id))
        store.add_relation(
            Relation(RelationKind.INTERPRETED_BY, concept.id, primitive.id)
        )
        service.publish()
        assert (span.surface, span.domain, primitive.id) in {
            (s.surface, s.domain, s.primitive_id) for s in service.tag(text)
        }
        fresh = AliCoCoService(
            flatten(store), config=config, tagger=tagger, reranker=reranker
        )
        requests = [
            ("tag", text),
            ("search", "fresh delta concept"),
            ("search_reranked", "fresh delta concept", 5),
            ("items_for_concept", concept.id, 5),
            ("items_for_concept_reranked", concept.id, 5),
            ("interpretation", concept.id),
            ("concepts_for_item", item.id),
            ("hypernyms", primitive.id, True),
        ]
        for spec in built_tiny.concepts[:4]:
            concept_id = built_tiny.concept_ids[spec.text]
            requests += [
                ("search", spec.text),
                ("search_reranked", spec.text, 5),
                ("items_for_concept_reranked", concept_id, 5),
                ("tag", spec.text),
            ]
        assert service.batch(requests) == fresh.batch(requests)

    def test_publish_over_a_plain_store_is_a_noop(self, built_tiny):
        service = AliCoCoService(built_tiny.store)
        assert isinstance(service.store, GenerationalStore)
        assert service.publish() == 0
        concept, _ = _grow(service.store, "plain")
        assert service.publish() == 1
        assert service.search(concept.text)[0][0] == concept.id

    def test_swap_keys_the_cache_instead_of_clearing_it(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        service = AliCoCoService(store, config=ServiceConfig(seed=0))
        spec = built_tiny.concepts[0]
        service.search(spec.text)
        service.search(spec.text)
        assert service._cache.counters().hits == 1
        populated = len(service._cache)
        _grow(store, "cache-key")
        service.publish()
        # The old generation's entries are still in the cache (retired
        # keys age out by LRU, they are never torched)...
        assert len(service._cache) == populated
        # ...and the new generation starts with a fresh stats window.
        service.search(spec.text)  # miss: new generation, new key
        windows = service.stats().cache_generations
        assert [label for label, *_ in windows] == ["gen-0", "gen-1"]
        assert windows[1][2] >= 1  # misses in the gen-1 window

    def test_cache_windows_stay_capped_and_sum_to_the_totals(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        service = AliCoCoService(store, config=ServiceConfig(seed=0))
        spec = built_tiny.concepts[0]
        for round_index in range(GENERATION_WINDOWS + 5):
            service.search(spec.text)
            service.search(spec.text)
            _grow(store, f"window-{round_index}")
            service.publish()
        service.search(spec.text)
        windows = service.stats().cache_generations
        assert len(windows) == GENERATION_WINDOWS
        assert windows[0][0] == "gen-0..gen-6"
        assert windows[-1][0] == f"gen-{GENERATION_WINDOWS + 5}"
        total = service._cache.counters()
        assert sum(hits for _, hits, _, _ in windows) == total.hits
        assert sum(misses for _, _, misses, _ in windows) == total.misses
        assert sum(evicted for *_, evicted in windows) == total.evictions

    def test_incremental_bm25_equals_refit_bit_for_bit(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        service = AliCoCoService(store, config=ServiceConfig(seed=0))
        for round_tag in ("inc-a", "inc-b"):
            _grow(store, round_tag)
            service.publish()
        refit = fit_concept_index(flatten(store))
        assert service._search_index.to_state() == refit.to_state()

    def test_noop_publish_keeps_the_generation_bundle(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        service = AliCoCoService(store, config=ServiceConfig(seed=0))
        bundle = service._gen
        assert service.publish() == 0
        assert service._gen is bundle


# -------------------------------------------------------- snapshot round trip
class TestGenerationSnapshots:
    @pytest.fixture()
    def grown(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        _grow(store, "snap-1")
        store.publish()
        _grow(store, "snap-2")
        store.publish()
        return store

    def test_round_trip_restores_generation_history(self, grown, tmp_path):
        path = tmp_path / "net.gen.jsonl"
        save_generations(grown, path)
        view = load_snapshot(path).store
        assert isinstance(view, GenerationView)
        assert view.generation_id == 2
        assert view.base_generation == 0
        assert all(segment.frozen for segment in view._stores)
        restored = GenerationalStore(view)
        assert len(restored.published_segments) == 2
        assert restored.stats() == grown.stats()
        assert [n.id for n in restored.nodes()] == [n.id for n in grown.nodes()]
        # The restored store keeps evolving from where it left off.
        _grow(restored, "snap-3")
        assert restored.publish() == 3

    def test_open_writes_never_ride_a_snapshot(self, grown, tmp_path):
        _grow(grown, "snap-open")  # written but unpublished
        path = tmp_path / "net.gen.jsonl"
        save_generations(grown, path)
        restored = load_snapshot(path).store
        assert restored.generation_id == 2
        assert not restored.find_by_name("ec", "fresh snap-open concept")

    def test_load_store_flattens_the_deltas(self, grown, tmp_path):
        path = tmp_path / "net.gen.snap"
        save_generations(grown, path)
        flat = flatten(load_snapshot(path).store)
        assert isinstance(flat, AliCoCoStore)
        assert flat.stats() == grown.stats()
        assert list(flat.relations()) == list(grown.relations())

    def test_save_generations_rejects_plain_stores(self, built_tiny, tmp_path):
        with pytest.raises(ConfigError):
            save_generations(built_tiny.store, tmp_path / "bad.jsonl")

    def test_corrupt_generation_numbering_is_loud(self, grown, tmp_path):
        """Files whose digests are all valid but whose deltas are not
        ``delta:1`` … ``delta:n``, or hold an empty delta, are refused by
        the load itself."""
        path = tmp_path / "net.gen.snap"
        save_generations(grown, path)
        header, sections = read_sections(path)
        assert list(sections)[1:3] == ["delta:1", "delta:2"]
        base, first, second, *states = sections.items()
        empty = _BLOCK_PREFIX.pack(2, 0) + b"[]"
        last = grown.published_segments[1]
        emptied = {
            **header,
            "nodes": header["nodes"] - len(last),
            "relations": header["relations"] - len(list(last.relations())),
        }
        forgeries = {
            "skipped": (header, [base, first, ("delta:7", second[1]), *states]),
            "repeated": (header, [base, first, ("delta:1", second[1]), *states]),
            "out of order": (
                header,
                [base, ("delta:2", first[1]), ("delta:1", second[1]), *states],
            ),
            "empty": (emptied, [base, first, ("delta:2", empty), *states]),
        }
        for name, (forged_header, forged) in forgeries.items():
            forged_path = tmp_path / f"{name}.snap"
            write_sections(forged_path, forged_header, forged)
            with pytest.raises(DataError):
                load_snapshot(forged_path)
        # The emptied file is refused for its empty delta alone.
        with pytest.raises(DataError, match="delta is empty"):
            load_snapshot(tmp_path / "empty.snap")

    def test_service_snapshot_round_trip_keeps_generations(self, built_tiny, tmp_path):
        store = GenerationalStore(built_tiny.store)
        service = AliCoCoService(store, config=ServiceConfig(seed=0))
        concept, _ = _grow(store, "svc-snap")
        service.publish()
        path = tmp_path / "svc.gen.jsonl"
        service.save_snapshot(path)
        warm = AliCoCoService.from_snapshot(path)
        assert warm.generation_id == 1
        assert warm.search("fresh svc-snap concept") == service.search(
            "fresh svc-snap concept"
        )
        assert warm.items_for_concept(concept.id, 5) == service.items_for_concept(
            concept.id, 5
        )


# ------------------------------------------------------------- cache counters
class TestCacheCounters:
    def test_snapshot_is_consistent(self):
        cache = LRUCache(capacity=4)
        for key in range(6):
            cache.get(key)
            cache.put(key, key)
        cache.get(5)
        counters = cache.counters()
        assert isinstance(counters, CacheCounters)
        assert counters.hits == 1
        assert counters.misses == 6
        assert counters.evictions == 2
        assert counters.lookups == counters.hits + counters.misses

    def test_clear_keeps_counters_by_default(self):
        cache = LRUCache(capacity=4)
        cache.get("k")
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.counters().misses == 1
        cache.clear(reset_counters=True)
        assert cache.counters() == CacheCounters()

    def test_generation_windows_partition_the_totals(self):
        cache = LRUCache(capacity=8)
        cache.get("a")
        cache.put("a", 1)
        cache.begin_generation("gen-1")
        cache.get("a")
        cache.get("b")
        windows = cache.generation_counters()
        assert [label for label, _ in windows] == ["gen-0", "gen-1"]
        total = cache.counters()
        assert sum(w.hits for _, w in windows) == total.hits
        assert sum(w.misses for _, w in windows) == total.misses


# ------------------------------------------------------- dense index growth
class TestRetrieverAdd:
    def test_bruteforce_extended_equals_refit_and_leaves_the_old_index(self):
        import numpy as np

        rng = np.random.default_rng(3)
        vectors = [rng.normal(size=6) for _ in range(12)]
        old = BruteForceDense().fit(list(range(8)), vectors[:8])
        state = old.to_state()
        grown = old.extended(list(range(8, 12)), vectors[8:])
        refit = BruteForceDense().fit(list(range(12)), vectors)
        assert grown is not old
        assert grown.to_state() == refit.to_state()
        for query in [rng.normal(size=6) for _ in range(5)]:
            assert grown.retrieve(query, 12) == refit.retrieve(query, 12)
        assert old.to_state() == state
        assert old.extended([], []) is old


# ------------------------------------------------------- delta-only publish
class TestPublishReadsTheDelta:
    """The publish helpers read only the nodes past the old counts, and
    must read exactly what walking the whole layer would."""

    @staticmethod
    def _grown(built_tiny):
        store = GenerationalStore(built_tiny.store)
        class_id = next(store.nodes("cls")).id
        for tag in ("d1", "d2", "d3"):
            store.create_primitive(f"fresh {tag} primitive", class_id)
            _grow(store, tag)
            store.publish()
        return store

    def test_helpers_equal_the_islice_walk_at_every_start(self, built_tiny):
        from types import SimpleNamespace

        from repro.serving.service import (
            _POPULATIONS,
            _build_primitive_index,
            index_documents,
        )

        store = self._grown(built_tiny)
        for stage in ("segments", "compacted", "plain"):
            if stage == "compacted":
                store.compact()
            view = built_tiny.store if stage == "plain" else store.current()
            for layer in (None, "cls", "pc", "ec", "item"):
                for count in (0, 1, 40, 500, len(view)):
                    assert list(view.nodes_since(count, layer)) == list(
                        islice(view.nodes(layer), count, None)
                    ), (stage, layer, count)
            for name, (layer, tokens_of) in _POPULATIONS.items():
                for start in range(view.count_nodes(layer) + 2):
                    walked = islice(view.nodes(layer), start, None)
                    assert index_documents(name, view, start) == [
                        (node.id, tokens_of(node)) for node in walked if tokens_of(node)
                    ], (stage, name, start)
            primitives = list(view.nodes("pc"))
            full: dict = {}
            for node in primitives:
                full.setdefault((node.name, node.domain), node.id)
            assert _build_primitive_index(view) == full
            for start in range(len(primitives) + 1):
                covered: dict = {}
                for node in primitives[:start]:
                    covered.setdefault((node.name, node.domain), node.id)
                old = SimpleNamespace(
                    store=SimpleNamespace(count_nodes=lambda layer, start=start: start),
                    primitive_index=covered,
                )
                assert _build_primitive_index(view, old) == full, (stage, start)

    def test_evolved_dense_indexes_equal_a_refit(self, built_tiny, tagger, reranker):
        from repro.pipeline import EvolutionConfig, EvolutionDriver
        from repro.serving.service import (
            _POPULATIONS,
            DENSE_CONCEPT_INDEX,
            DENSE_ITEM_INDEX,
        )

        config = ServiceConfig(seed=0, retriever="hybrid")
        store = GenerationalStore(built_tiny.store, compact_after_segments=4)
        service = AliCoCoService(store, config=config, tagger=tagger, reranker=reranker)
        driver = EvolutionDriver.from_build(
            built_tiny,
            service,
            config=EvolutionConfig(
                seed=5,
                n_queries=10,
                n_guides=6,
                n_good=3,
                n_bad=2,
                publish_min_nodes=1,
                cycle_interval=0.0,
            ),
        )
        while driver.stats().publishes < 12:
            driver.run_cycle()
        assert service.generation_id == 12
        refit = AliCoCoService(
            flatten(store), config=config, tagger=tagger, reranker=reranker
        )
        for name in (DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX):
            layer, tokens_of = _POPULATIONS[name]
            served = service._gen.dense_indexes[name]
            fresh = refit._gen.dense_indexes[name]
            assert served is not None and served.to_state() == fresh.to_state()
            for node in list(store.nodes(layer))[-5:]:
                query = service._dense_vector(node.id, tokens_of(node))
                assert served.retrieve(query, 10) == fresh.retrieve(query, 10)


# ---------------------------------------------------------------- compaction
class TestCompaction:
    """Folding the segment chain is invisible to every reader."""

    def _grown(self, built_tiny, **kwargs):
        store = GenerationalStore(built_tiny.store, **kwargs)
        for tag in ("c1", "c2", "c3"):
            _grow(store, tag)
            store.publish()
        return store

    @staticmethod
    def _reads(store):
        """Every keyed and bulk read the store answers, for exact
        comparison.  The delta reads are checked here against the
        store's own walk at every count, so every chunk and segment
        boundary is crossed: ``relations_since`` against ``relations()``
        and ``nodes_since`` against ``nodes(layer)``."""
        nodes = list(store.nodes())
        relations = list(store.relations())
        reads = {
            "nodes": [n.id for n in nodes],
            "relations": relations,
            "stats": store.stats(),
        }
        for count in range(len(relations) + 2):
            assert list(store.relations_since(count)) == relations[count:], count
        for kind in RelationKind:
            reads["relations", kind] = list(store.relations(kind))
            reads["count", kind] = store.count_relations(kind)
        for layer in (None, "cls", "pc", "ec", "item"):
            layer_nodes = list(store.nodes(layer))
            reads["nodes", layer] = [n.id for n in layer_nodes]
            for count in range(len(layer_nodes) + 2):
                assert list(store.nodes_since(count, layer)) == layer_nodes[count:], (
                    layer,
                    count,
                )
        for node in nodes:
            layer = layer_of(node.id)
            name = AliCoCoStore._name_of(node)
            reads["name", layer, name] = [n.id for n in store.find_by_name(layer, name)]
            for kind in RelationKind:
                reads["out", node.id, kind] = store.out_relations(node.id, kind)
                reads["in", node.id, kind] = store.in_relations(node.id, kind)
        for domain in {n.domain for n in nodes if layer_of(n.id) in ("cls", "pc")}:
            reads["classes", domain] = [n.id for n in store.classes_in_domain(domain)]
            reads["primitives", domain] = [
                n.id for n in store.primitives_in_domain(domain)
            ]
        return reads

    def _assert_reads_match(self, store, oracle):
        assert store.stats() == oracle.stats()
        assert self._reads(store) == self._reads(oracle)
        assert [n.id for n in store.nodes()] == [n.id for n in oracle.nodes()]
        for kind in RelationKind:
            assert list(store.relations(kind)) == list(oracle.relations(kind))
        for node in oracle.nodes("ec"):
            assert store.get(node.id) == node
            assert store.in_relations(
                node.id, RelationKind.ITEM_ECOMMERCE
            ) == oracle.in_relations(node.id, RelationKind.ITEM_ECOMMERCE)
        assert store.find_by_name("ec", "fresh c2 concept") == oracle.find_by_name(
            "ec", "fresh c2 concept"
        )

    def test_compact_is_bit_identical_and_keeps_the_generation(self, built_tiny):
        store = self._grown(built_tiny)
        oracle = flatten(store)
        assert len(store.published_segments) == 3
        assert store.compact() == 3
        assert store.generation_id == 3  # a representation change, not a publish
        assert store.base_generation == 3
        assert store.published_segments == ()
        self._assert_reads_match(store, oracle)

    def test_delta_reads_equal_the_islice_walk_across_compaction(self, built_tiny):
        """``nodes_since``/``relations_since`` skip whole parts by length
        and must still yield exactly the walk past every count — over
        segments, over a compacted base, and over both at once."""
        store = self._grown(built_tiny)
        for stage, n_segments in (("segments", 3), ("compacted", 0), ("both", 2)):
            if stage == "compacted":
                store.compact()
            elif stage == "both":
                for tag in ("c4", "c5"):
                    _grow(store, tag)
                    store.publish()
            assert len(store.published_segments) == n_segments
            view = store.current()
            for layer in (None, "cls", "pc", "ec", "item"):
                for count in range(len(view) + 2):
                    assert list(view.nodes_since(count, layer)) == list(
                        islice(view.nodes(layer), count, None)
                    ), (stage, layer, count)
            n_relations = sum(view.count_relations(kind) for kind in RelationKind)
            for count in range(n_relations + 2):
                assert list(view.relations_since(count)) == list(
                    islice(view.relations(), count, None)
                ), (stage, count)

    def test_fold_of_a_fold_matches_flatten_and_mutates_nothing(self, built_tiny):
        """Segments that hit the same keys as each other and as the base:
        a name shared by every segment and by a base concept, a base
        concept and a fresh one gaining edges in several segments, and
        new primitives under a base class.  Compacting twice (the second
        folds over the first fold) must match ``flatten`` each time, and
        every earlier view must answer exactly as before — a fold that
        appended to a list it shares would show up here."""
        store = GenerationalStore(built_tiny.store)
        base_concept = next(built_tiny.store.nodes("ec"))
        base_class = next(built_tiny.store.nodes("cls"))
        pinned = [store.current()]
        earlier = None
        for round_index in range(2):
            for tag in ("a", "b"):
                tag = f"{round_index}{tag}"
                concept = store.create_ecommerce("colliding fresh concept")
                store.create_ecommerce(base_concept.text)
                item = store.create_item(f"fold {tag} item title")
                primitive = store.create_primitive(
                    f"fold {tag} primitive", base_class.id
                )
                targets = [concept.id, base_concept.id]
                if earlier is not None:
                    targets.append(earlier.id)
                for target in targets:
                    store.add_relation(
                        Relation(RelationKind.ITEM_ECOMMERCE, item.id, target, 0.5)
                    )
                store.add_relation(
                    Relation(RelationKind.ITEM_PRIMITIVE, item.id, primitive.id)
                )
                earlier = concept
                store.publish()
            pinned.append(store.current())
            oracle = flatten(store)
            expected = [self._reads(view) for view in pinned]
            assert store.compact() == store.generation_id
            assert store.published_segments == ()
            self._assert_reads_match(store, oracle)
            assert [self._reads(view) for view in pinned] == expected
            pinned.append(store.current())  # the folded base
        assert len(oracle.find_by_name("ec", "colliding fresh concept")) == 4
        assert len(oracle.find_by_name("ec", base_concept.text)) == 5

    def test_three_folds_deep_read_like_flatten(self, built_tiny):
        """Every keyed and bulk read, three folds deep, each fold over the
        last one's base: deltas that touch new and old keys of several
        kinds, and one segment of nodes only (no relation chunk)."""
        store = GenerationalStore(built_tiny.store)
        base_class = next(built_tiny.store.nodes("cls"))
        base_item = next(built_tiny.store.nodes("item"))
        pinned = [(store.current(), self._reads(store.current()))]
        for depth in range(3):
            concept, item = _grow(store, f"deep {depth}")
            primitive = store.create_primitive(f"deep {depth} primitive", base_class.id)
            store.add_relations(
                [
                    Relation(RelationKind.ITEM_PRIMITIVE, item.id, primitive.id),
                    Relation(RelationKind.ITEM_PRIMITIVE, base_item.id, primitive.id),
                    Relation(RelationKind.INTERPRETED_BY, concept.id, primitive.id),
                ]
            )
            store.publish()
            store.create_ecommerce(f"deep {depth} lone concept")
            store.publish()
            pinned.append((store.current(), self._reads(store.current())))
            oracle = flatten(store)
            assert store.compact() == store.generation_id
            self._assert_reads_match(store, oracle)
            for view, expected in pinned:
                assert self._reads(view) == expected
            pinned.append((store.current(), self._reads(store.current())))
        # The build's chunk, then one per fold.
        assert len(store.current()._base._relations) == 4

    def test_a_fold_shares_every_base_chunk_and_untouched_list(self, built_tiny):
        """The guard on a fold's cost: it shares every chunk of its base's
        relation sequences by identity and adds the delta as one new
        chunk, so no whole-net or per-kind list is copied; every keyed
        list no segment touches is shared too.  Checked on a fold of a
        fold as well."""
        store = self._grown(built_tiny)
        for _ in range(2):
            view = store.current()
            base, segments = view._base, view._segments
            store.compact()
            folded = store.current()._base
            added = [r for s in segments for r in s.relations()]
            assert folded._relations[:-1] == base._relations
            assert all(
                new is old for new, old in zip(folded._relations, base._relations)
            )
            assert folded._relations[-1] == added
            for kind in RelationKind:
                old = base._by_kind.get(kind, [])
                new = folded._by_kind.get(kind, [])
                kind_added = [r for s in segments for r in s.relations(kind)]
                if kind_added:
                    assert len(new) == len(old) + 1 and new[-1] == kind_added
                else:
                    assert new == old
                assert all(a is b for a, b in zip(new, old)), kind
            for index in ("_out", "_in"):
                touched = {key for s in segments for key in getattr(s, index)}
                for key, values in getattr(base, index).items():
                    if key not in touched:
                        assert getattr(folded, index)[key] is values
            _grow(store, "next fold")
            _grow(store, "next fold again")
            store.publish()

    def test_fold_needs_a_frozen_base(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        _grow(store, "unfrozen")
        store.publish()
        with pytest.raises(GraphError):
            AliCoCoStore().fold(store.published_segments)

    def test_compact_on_a_zero_segment_store_is_a_noop(self, built_tiny):
        store = GenerationalStore(built_tiny.store)
        assert store.compact() == 0
        assert store.base_generation == 0

    def test_pinned_readers_survive_compaction(self, built_tiny):
        store = self._grown(built_tiny)
        view = store.current()
        expected = [n.id for n in view.nodes("ec")]
        store.compact()
        assert [n.id for n in view.nodes("ec")] == expected
        assert view.get(expected[-1]).id == expected[-1]

    def test_open_writes_survive_compaction(self, built_tiny):
        store = self._grown(built_tiny)
        concept, _ = _grow(store, "open")
        store.compact()
        assert not store.find_by_name("ec", "fresh open concept")
        assert store.publish() == 4
        assert store.find_by_name("ec", "fresh open concept")
        assert store.get(concept.id) == concept

    def test_auto_compaction_bounds_the_chain(self, built_tiny):
        store = GenerationalStore(built_tiny.store, compact_after_segments=2)
        twin = GenerationalStore(built_tiny.store)
        for round_index in range(5):
            _grow(store, f"auto-{round_index}")
            _grow(twin, f"auto-{round_index}")
            assert store.publish() == twin.publish()
            assert len(store.published_segments) <= 2
        assert store.base_generation > 0
        self._assert_reads_match(store, flatten(twin))

    def test_snapshot_round_trip_after_compaction(self, built_tiny, tmp_path):
        store = self._grown(built_tiny)
        store.compact()
        path = tmp_path / "compacted.gen.jsonl"
        save_generations(store, path)
        restored = GenerationalStore(load_snapshot(path).store)
        assert restored.generation_id == 3
        assert restored.base_generation == 3
        assert restored.stats() == store.stats()
        assert [n.id for n in restored.nodes()] == [n.id for n in store.nodes()]
        _grow(restored, "after-compact")
        assert restored.publish() == 4

    def test_all_eight_endpoints_bit_identical_across_compaction(
        self, built_tiny, tagger, reranker, tmp_path
    ):
        config = ServiceConfig(seed=0)
        store = GenerationalStore(built_tiny.store)
        _grow(store, "c1")
        store.publish()
        # The service publishes the rest of the history itself, so its
        # indexes are extended delta by delta — one delta with a primitive.
        service = AliCoCoService(
            store, config=config, tagger=tagger, reranker=reranker
        )
        _grow(store, "c2")
        service.publish()
        _grow(store, "c3")
        base_class = next(built_tiny.store.nodes("cls"))
        primitive = store.create_primitive("fresh c3 primitive", base_class.id)
        service.publish()
        requests = []
        for spec in built_tiny.concepts[:4]:
            concept_id = built_tiny.concept_ids[spec.text]
            requests += [
                ("search", spec.text),
                ("items_for_concept", concept_id, 5),
                ("interpretation", concept_id),
                ("tag", spec.text),
                ("items_for_concept_reranked", concept_id, 5),
                ("search_reranked", spec.text, 5),
            ]
        requests.append(("search", "fresh c2 concept"))
        for index in range(3):
            requests.append(("concepts_for_item", built_tiny.item_ids[index]))
        for primitive_id in list(built_tiny.primitive_ids.values())[:3]:
            requests.append(("hypernyms", primitive_id, True))
        requests += [("hypernyms", primitive.id, True), ("tag", "fresh c3 primitive")]
        before = service.batch(requests)
        fresh = AliCoCoService(
            flatten(store), config=config, tagger=tagger, reranker=reranker
        )
        assert fresh.batch(requests) == before
        assert store.compact() == 3
        assert service.generation_id == 3
        assert service.batch(requests) == before
        # ...and the compacted net snapshots and warm-starts identically.
        path = tmp_path / "compact.svc.jsonl"
        service.save_snapshot(path)
        warm = AliCoCoService.from_snapshot(
            path, config=config, tagger=tagger, reranker=reranker
        )
        assert warm.generation_id == 3
        assert warm.batch(requests) == before
