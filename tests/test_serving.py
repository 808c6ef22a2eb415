"""The serving layer: endpoints, caching, metrics, and read-only safety."""

import pytest

from repro import build_alicoco, TINY
from repro.errors import (
    ConfigError,
    DataError,
    FrozenStoreError,
    NodeNotFoundError,
    RelationError,
    ReproError,
    error_by_name,
)
from repro.kg import query as kgq
from repro.matching.bm25 import BM25Index
from repro.serving import AliCoCoService, BatchResult, LRUCache, ServiceConfig
from repro.utils.timing import LatencyReservoir, quantile


@pytest.fixture(scope="module")
def built():
    return build_alicoco(TINY)


@pytest.fixture(scope="module")
def service(built):
    return AliCoCoService.from_build(built)


class TestEndpoints:
    def test_items_for_concept_matches_query_layer(self, built, service):
        for spec in built.concepts[:10]:
            concept_id = built.concept_ids[spec.text]
            expected = kgq.items_for_concept(built.store, concept_id, top_k=5)
            expected_ids = [item.id for item in expected]
            served = service.items_for_concept(concept_id, top_k=5)
            served_ids = [item_id for item_id, _ in served]
            assert served_ids == expected_ids

    def test_items_ranked_by_weight(self, built, service):
        for spec in built.concepts:
            concept_id = built.concept_ids[spec.text]
            weights = [w for _, w in service.items_for_concept(concept_id)]
            assert weights == sorted(weights, reverse=True)
            if len(weights) >= 3:
                return
        pytest.fail("no concept with enough items at TINY scale")

    def test_concepts_for_item_matches_query_layer(self, built, service):
        item_id = built.item_ids[0]
        expected = [c.id for c in kgq.concepts_for_item(built.store, item_id)]
        assert list(service.concepts_for_item(item_id)) == expected

    def test_interpretation_matches_query_layer(self, built, service):
        concept_id = built.concept_ids[built.concepts[0].text]
        expected = [p.id for p in kgq.interpretation(built.store, concept_id)]
        assert list(service.interpretation(concept_id)) == expected

    def test_hypernym_expansion(self, built, service):
        for (surface, domain), primitive_id in built.primitive_ids.items():
            nodes = kgq.hypernyms(built.store, primitive_id, transitive=True)
            expected = [p.id for p in nodes]
            if expected:
                served = service.hypernyms(primitive_id, transitive=True)
                assert list(served) == expected
                return
        pytest.fail("no primitive with hypernyms at TINY scale")

    def test_search_finds_concept_by_own_text(self, built, service):
        spec = built.concepts[0]
        results = service.search(spec.text)
        assert results[0][0] == built.concept_ids[spec.text]

    def test_search_k_limits_results(self, built, service):
        spec = built.concepts[0]
        assert len(service.search(spec.text, k=2)) <= 2
        with pytest.raises(ConfigError):
            service.search(spec.text, k=0)

    def test_search_empty_text_returns_nothing(self, service):
        assert service.search("   ") == ()

    def test_batch_dispatches_in_order(self, built, service):
        spec = built.concepts[0]
        concept_id = built.concept_ids[spec.text]
        requests = [
            ("search", spec.text),
            ("items_for_concept", concept_id, 3),
            ("interpretation", concept_id),
        ]
        results = service.batch(requests)
        assert len(results) == 3
        assert results[0] == service.search(spec.text)
        assert results[1] == service.items_for_concept(concept_id, 3)

    def test_batch_unknown_endpoint_rejected(self, service):
        with pytest.raises(ConfigError, match="unknown endpoint"):
            service.batch([("teleport", "ec_0")])

    def test_unknown_id_raises(self, service):
        with pytest.raises(NodeNotFoundError):
            service.items_for_concept("ec_999999")

    def test_wrong_layer_id_raises(self, built, service):
        item_id = built.item_ids[0]
        with pytest.raises(RelationError, match="layer"):
            service.items_for_concept(item_id)

    def test_non_positive_top_k_rejected(self, built, service):
        # Regression: top_k=-1 used to slice relations[:-1], silently
        # dropping the *last* item instead of rejecting the request.
        concept_id = built.concept_ids[built.concepts[0].text]
        for bad in (0, -1):
            with pytest.raises(ConfigError, match="top_k"):
                service.items_for_concept(concept_id, top_k=bad)

    def test_search_cache_key_is_token_tuple(self, built):
        # Regression: "a  b" and "a b" tokenise identically but used to
        # occupy separate LRU entries (the key was the raw text).
        service = AliCoCoService.from_build(built)
        spec = built.concepts[0]
        spaced = "  " + "   ".join(spec.text.split()) + " "
        assert service.search(spec.text) == service.search(spaced)
        stats = service.stats().endpoint("search")
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1


class TestBatchEnvelope:
    def test_envelope_preserves_completed_work(self, built):
        """A mid-batch failure yields an envelope, not a lost batch."""
        service = AliCoCoService.from_build(built)
        spec = built.concepts[0]
        concept_id = built.concept_ids[spec.text]
        requests = [
            ("search", spec.text),
            ("items_for_concept", "ec_999999"),  # fails mid-batch
            ("items_for_concept", concept_id, 3),  # still answered
        ]
        results = service.batch(requests, on_error="envelope")
        assert [result.ok for result in results] == [True, False, True]
        assert results[0].value == service.search(spec.text)
        assert results[1].error_type == "NodeNotFoundError"
        assert "ec_999999" in results[1].error_message
        assert results[2].value == service.items_for_concept(concept_id, 3)

    def test_envelope_order_matches_requests(self, built):
        service = AliCoCoService.from_build(built)
        spec = built.concepts[0]
        requests = [
            ("teleport", "x"),
            ("search", spec.text),
            ("hypernyms", "ec_0"),  # wrong layer
        ]
        results = service.batch(requests, on_error="envelope")
        assert [result.error_type for result in results] == [
            "ConfigError",
            None,
            "RelationError",
        ]

    def test_unwrap_reraises_original_type(self, built):
        service = AliCoCoService.from_build(built)
        (result,) = service.batch(
            [("items_for_concept", "ec_999999")], on_error="envelope"
        )
        with pytest.raises(NodeNotFoundError):
            result.unwrap()
        ok = BatchResult(ok=True, value=42)
        assert ok.unwrap() == 42
        foreign = BatchResult(ok=False, error_type="TypeError", error_message="boom")
        with pytest.raises(ReproError, match="TypeError: boom"):
            foreign.unwrap()

    def test_error_by_name_walks_hierarchy(self):
        assert error_by_name("NodeNotFoundError") is NodeNotFoundError
        assert error_by_name("ConfigError") is ConfigError
        assert error_by_name("KeyError") is None

    def test_raise_mode_is_default_and_unchanged(self, built, service):
        with pytest.raises(NodeNotFoundError):
            service.batch([("items_for_concept", "ec_999999")])
        with pytest.raises(ConfigError, match="on_error"):
            service.batch([], on_error="ignore")

    def test_envelope_requests_are_metered(self, built):
        service = AliCoCoService.from_build(built)
        spec = built.concepts[0]
        service.batch(
            [("search", spec.text), ("items_for_concept", "ec_999999")],
            on_error="envelope",
        )
        stats = service.stats()
        assert stats.endpoint("search").calls == 1
        errors = stats.endpoint("items_for_concept").errors
        assert errors == (("NodeNotFoundError", 1),)
        assert stats.total_errors == 1


class TestErrorCounters:
    def test_errors_grouped_by_exception_type(self, built):
        service = AliCoCoService.from_build(built)
        concept_id = built.concept_ids[built.concepts[0].text]
        for _ in range(2):
            with pytest.raises(NodeNotFoundError):
                service.items_for_concept("ec_999999")
        with pytest.raises(ConfigError):
            service.items_for_concept(concept_id, top_k=0)
        stats = service.stats().endpoint("items_for_concept")
        assert stats.errors == (("ConfigError", 1), ("NodeNotFoundError", 2))
        assert stats.error_total == 3
        assert stats.calls == 0  # failures are not answers

    def test_error_counters_in_report(self, built):
        service = AliCoCoService.from_build(built)
        with pytest.raises(NodeNotFoundError):
            service.concepts_for_item("item_999999999")
        table = service.stats().format_table()
        assert "errors" in table
        assert "NodeNotFoundError x1" in table

    def test_format_table_aligns_long_endpoint_names(self, built):
        """Regression: ``items_for_concept_reranked`` (25 chars) used to
        overflow the fixed 20-character endpoint column and shear every
        numeric column after it out of alignment."""
        service = AliCoCoService.from_build(built)
        table = service.stats().format_table()
        lines = table.splitlines()
        header = next(line for line in lines if "endpoint" in line)
        rows = [
            line
            for line in lines
            if any(line.strip().startswith(name) for name in service.endpoints)
        ]
        assert len(rows) == len(service.endpoints)
        calls_column = header.index("calls")
        for row in rows:
            # The endpoint cell must end (and the calls cell start) at
            # the same offset on every row, longest name included.
            assert len(row) >= calls_column
            name = row.strip().split()[0]
            assert row[2 : 2 + len(name)] == name
            cell = row[2:calls_column]
            assert cell.rstrip() == name  # nothing bleeds past the column


class TestCachingAndStats:
    def test_repeat_queries_hit_the_cache(self, built):
        service = AliCoCoService.from_build(built)
        spec = built.concepts[0]
        first = service.search(spec.text)
        second = service.search(spec.text)
        assert first == second
        stats = service.stats().endpoint("search")
        assert stats.calls == 2
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.hit_rate == 0.5

    def test_stats_report_totals_and_format(self, built):
        service = AliCoCoService.from_build(built)
        concept_id = built.concept_ids[built.concepts[0].text]
        service.items_for_concept(concept_id)
        stats = service.stats()
        assert stats.nodes == len(built.store)
        assert stats.total_calls == 1
        assert "items_for_concept" in stats.format_table()
        with pytest.raises(KeyError):
            stats.endpoint("nonexistent")

    def test_cache_disabled_still_serves(self, built):
        service = AliCoCoService.from_build(
            built, config=ServiceConfig(cache_capacity=0)
        )
        spec = built.concepts[0]
        assert service.search(spec.text) == service.search(spec.text)
        stats = service.stats().endpoint("search")
        assert stats.cache_hits == 0
        assert stats.cache_misses == 2

    def test_store_is_frozen_by_serving(self, built):
        AliCoCoService.from_build(built)
        with pytest.raises(FrozenStoreError):
            built.store.create_item("contraband")

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(cache_capacity=-1)
        with pytest.raises(ConfigError):
            ServiceConfig(search_top_k=0)
        with pytest.raises(ConfigError):
            ServiceConfig(reservoir_capacity=0)

    def test_empty_store_serves_no_search_results(self):
        from repro.kg.store import AliCoCoStore

        service = AliCoCoService(AliCoCoStore())
        assert service.search("anything") == ()


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_cached_none_is_a_hit(self):
        cache = LRUCache(capacity=2)
        cache.put("k", None)
        sentinel = object()
        assert cache.get("k", sentinel) is None
        assert cache.hits == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(capacity=0)

    def test_clear_keeps_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class TestLatencyReservoir:
    def test_quantiles_on_known_data(self):
        reservoir = LatencyReservoir(capacity=100)
        for value in range(1, 101):
            reservoir.record(value / 1000.0)
        assert reservoir.quantile(0.0) == pytest.approx(0.001)
        assert reservoir.quantile(1.0) == pytest.approx(0.100)
        assert reservoir.quantile(0.5) == pytest.approx(0.0505)

    def test_capacity_bounds_memory_not_count(self):
        reservoir = LatencyReservoir(capacity=8, seed=1)
        for value in range(1000):
            reservoir.record(float(value))
        assert reservoir.count == 1000
        assert len(reservoir._samples) == 8

    def test_reservoir_is_deterministic(self):
        def fill(seed):
            reservoir = LatencyReservoir(capacity=4, seed=seed)
            for value in range(100):
                reservoir.record(float(value))
            return reservoir._samples

        assert fill(3) == fill(3)

    def test_percentiles_ms_shape(self):
        reservoir = LatencyReservoir()
        reservoir.record(0.002)
        summary = reservoir.percentiles_ms()
        assert set(summary) == {"p50", "p95", "p99"}
        assert summary["p50"] == pytest.approx(2.0)

    def test_quantile_validation(self):
        assert quantile([], 0.5) == 0.0
        assert quantile([3.0], 0.99) == 3.0
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestBM25State:
    def test_malformed_state_rejected(self):
        with pytest.raises(DataError, match="malformed BM25"):
            BM25Index.from_state({"k1": 1.5})

    def test_state_round_trip_scores_identically(self):
        documents = {
            "d1": ["red", "dress"],
            "d2": ["red", "shoes"],
            "d3": ["winter", "coat"],
        }
        fitted = BM25Index().fit(documents)
        rehydrated = BM25Index.from_state(fitted.to_state())
        for query in (["red"], ["red", "dress"], ["winter", "coat"]):
            assert rehydrated.top_k(query, 3) == fitted.top_k(query, 3)
