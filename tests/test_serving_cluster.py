"""The cluster serving tier: sharding, scatter-gather, coalescing, shedding.

The contract under test is *bit-identity*: an ``AliCoCoCluster`` over N
shards must answer every endpoint exactly like one ``AliCoCoService``
over the same store — placement, BM25 projection and the deterministic
merges are implementation detail, not observable behaviour.  On top of
that sit the traffic-shaping layers: the coalescer's singleflight
semantics (one computation per concurrent duplicate set, exceptions
shared, never a hang) and admission control's typed, bounded shedding.
"""

import json
import threading
import time
import zlib

import pytest

from repro.errors import (
    ConfigError,
    DataError,
    NodeNotFoundError,
    OverloadedError,
    RelationError,
    error_by_name,
)
from repro.kg.ids import (
    CLASS_PREFIX,
    ECOMMERCE_PREFIX,
    ITEM_PREFIX,
    PRIMITIVE_PREFIX,
)
from repro.matching.bm25 import BM25Index
from repro.serving import (
    AdmissionController,
    AliCoCoCluster,
    AliCoCoService,
    BatchResult,
    CLUSTER_META,
    Coalescer,
    ClusterConfig,
    ClusterStats,
    ServiceConfig,
    merge_ranked,
    owned_ids,
    project_bm25_index,
    shard_of,
    shard_sizes,
    split_store,
)
from repro.serving.service import fit_concept_index
from repro.serving.shard import (
    owned_counts,
    owner_map,
    owner_of,
    place_relations,
)

from tests.conftest import assert_same_store, oracle_owner_shards, oracle_split

SHARD_COUNTS = (1, 2, 3)


@pytest.fixture(scope="module")
def built(built_tiny):
    return built_tiny


@pytest.fixture(scope="module")
def store(built):
    return built.store


@pytest.fixture(scope="module")
def service(store):
    return AliCoCoService(store)


def _cluster(store, n_shards, **kwargs):
    return AliCoCoCluster(store, config=ClusterConfig(n_shards=n_shards), **kwargs)


class TestShardOf:
    def test_matches_crc32_and_is_stable(self):
        for node_id in ("ec_0", "ec_17", "item_3", "pc_5"):
            expected = zlib.crc32(node_id.encode("utf-8")) % 4
            assert shard_of(node_id, 4) == expected
            assert shard_of(node_id, 4) == shard_of(node_id, 4)

    def test_single_shard_owns_everything(self):
        assert shard_of("ec_123", 1) == 0

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigError, match="n_shards"):
            shard_of("ec_0", 0)

    def test_placement_roughly_balances(self):
        counts = [0, 0, 0, 0]
        for index in range(2000):
            counts[shard_of(f"ec_{index}", 4)] += 1
        assert min(counts) > 300  # CRC32 spreads sequential ids evenly


class TestSplitStore:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_partitioned_layers_are_partitioned(self, store, n_shards):
        shards = split_store(store, n_shards)
        for layer in (ECOMMERCE_PREFIX, ITEM_PREFIX):
            for node in store.nodes(layer):
                owner = shard_of(node.id, n_shards)
                assert node.id in shards[owner]

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_replicated_layers_are_everywhere(self, store, n_shards):
        shards = split_store(store, n_shards)
        for layer in (CLASS_PREFIX, PRIMITIVE_PREFIX):
            ids = [node.id for node in store.nodes(layer)]
            for shard in shards:
                assert all(node_id in shard for node_id in ids)

    def test_owner_shard_holds_incident_relations_in_global_order(self, store):
        """The placement invariant the routed endpoints stand on."""
        from repro.kg.relations import RelationKind

        n_shards = 3
        shards = split_store(store, n_shards)
        for node in store.nodes(ECOMMERCE_PREFIX):
            owner = shards[shard_of(node.id, n_shards)]
            for kind in RelationKind:
                assert owner.in_relations(node.id, kind) == store.in_relations(
                    node.id, kind
                )
                assert owner.out_relations(node.id, kind) == store.out_relations(
                    node.id, kind
                )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_split_equals_the_per_relation_oracle(self, store, n_shards):
        owners = owner_map(store, n_shards)
        for given in (None, owners):
            shards = split_store(store, n_shards, given)
            for actual, expected in zip(shards, oracle_split(store, n_shards)):
                assert_same_store(actual, expected)
        assert shard_sizes(store, n_shards) == owned_counts(owners.values(), n_shards)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_placement_equals_the_oracle_per_relation(self, store, n_shards):
        owners = owner_map(store, n_shards)
        placed = {}
        for home, ghost, relation in place_relations(
            store.relations(), owners.get, n_shards
        ):
            placed.setdefault(relation, []).append(home)
            if ghost is not None:
                assert ghost in (relation.source, relation.target)
                assert owners[ghost] != home  # owned elsewhere
        for relation in store.relations():
            homes = placed[relation]
            assert tuple(sorted(homes)) == oracle_owner_shards(relation, n_shards)
        assert owners == {
            node.id: owner_of(node.id, n_shards)
            for node in store.nodes()
            if owner_of(node.id, n_shards) is not None
        }

    def test_split_is_deterministic(self, store):
        first = split_store(store, 2)
        second = split_store(store, 2)
        for shard_a, shard_b in zip(first, second):
            assert [n.id for n in shard_a.nodes()] == [n.id for n in shard_b.nodes()]
            assert list(shard_a.relations()) == list(shard_b.relations())

    def test_owned_ids_excludes_ghosts(self, store):
        n_shards = 3
        shards = split_store(store, n_shards)
        for shard_id, shard in enumerate(shards):
            owned = set(owned_ids(shard, shard_id, n_shards, ECOMMERCE_PREFIX))
            present = {node.id for node in shard.nodes(ECOMMERCE_PREFIX)}
            assert owned <= present
            for node_id in owned:
                assert shard_of(node_id, n_shards) == shard_id


class TestBM25Projection:
    def test_projected_scores_equal_global_scores(self, store):
        index = fit_concept_index(store)
        n_shards = 3
        doc_ids = index.to_state()["doc_ids"]
        position = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        queries = [tuple(store.get(doc_id).tokens) for doc_id in doc_ids[:10]]
        projections = [
            project_bm25_index(
                index,
                [d for d in doc_ids if shard_of(d, n_shards) == shard],
            )
            for shard in range(n_shards)
        ]
        for tokens in queries:
            expected = tuple(index.top_k(tokens, k=10))
            arms = [
                tuple(projection.top_k(tokens, k=10))
                if projection is not None
                else ()
                for projection in projections
            ]
            assert merge_ranked(arms, position, 10) == expected

    def test_empty_subset_projects_to_none(self, store):
        index = fit_concept_index(store)
        assert project_bm25_index(index, []) is None
        assert project_bm25_index(None, ["ec_0"]) is None

    @staticmethod
    def _projected_through_state(index, keep):
        """The oracle: project the serialised state, then rehydrate."""
        keep = set(keep)
        state = index.to_state()
        kept = [p for p, doc_id in enumerate(state["doc_ids"]) if doc_id in keep]
        remap = {old: new for new, old in enumerate(kept)}
        postings = {}
        for term, entries in state["postings"].items():
            projected = [[remap[p], f] for p, f in entries if p in remap]
            if projected:
                postings[term] = projected
        return BM25Index.from_state(
            {
                "k1": state["k1"],
                "b": state["b"],
                "doc_ids": [state["doc_ids"][p] for p in kept],
                "postings": postings,
                "norms": [state["norms"][p] for p in kept],
                "idf": state["idf"],
            }
        )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_projection_state_is_byte_identical_to_the_state_oracle(
        self, store, n_shards
    ):
        index = fit_concept_index(store)
        for shard in range(n_shards):
            keep = [d for d in index.doc_ids if shard_of(d, n_shards) == shard]
            projection = project_bm25_index(index, keep)
            oracle = self._projected_through_state(index, keep)
            assert json.dumps(projection.to_state()) == json.dumps(oracle.to_state())


class TestClusterParity:
    """Every endpoint answers exactly like the monolithic service."""

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_point_lookups(self, store, service, n_shards):
        cluster = _cluster(store, n_shards)
        for node in store.nodes(ECOMMERCE_PREFIX):
            assert cluster.items_for_concept(node.id) == service.items_for_concept(
                node.id
            )
            assert cluster.items_for_concept(node.id, 3) == (
                service.items_for_concept(node.id, 3)
            )
            assert cluster.interpretation(node.id) == service.interpretation(node.id)
        for node in list(store.nodes(ITEM_PREFIX))[:30]:
            assert cluster.concepts_for_item(node.id) == service.concepts_for_item(
                node.id
            )
        for node in store.nodes(PRIMITIVE_PREFIX):
            assert cluster.hypernyms(node.id) == service.hypernyms(node.id)
            assert cluster.hypernyms(node.id, transitive=True) == (
                service.hypernyms(node.id, transitive=True)
            )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_search_is_bit_identical(self, store, service, n_shards):
        cluster = _cluster(store, n_shards)
        queries = [
            " ".join(node.tokens)
            for node in list(store.nodes(ECOMMERCE_PREFIX))[:15]
        ] + ["gift", "unknown zzz tokens", ""]
        for query in queries:
            assert cluster.search(query) == service.search(query)
            assert cluster.search(query, 3) == service.search(query, 3)

    def test_error_parity(self, store, service):
        cluster = _cluster(store, 2)
        cases = [
            (lambda target: target.items_for_concept("ec_999999"), NodeNotFoundError),
            (lambda target: target.items_for_concept("bogus"), NodeNotFoundError),
            (lambda target: target.items_for_concept("item_0"), RelationError),
            (lambda target: target.items_for_concept("ec_0", -1), ConfigError),
            (lambda target: target.search("x", 0), ConfigError),
            (lambda target: target.hypernyms("ec_0"), RelationError),
            (lambda target: target.tag("text"), ConfigError),  # no tagger
            (lambda target: target.search_reranked("x"), ConfigError),
        ]
        for call, expected in cases:
            with pytest.raises(expected):
                call(service)
            with pytest.raises(expected):
                call(cluster)

    def test_batch_parity_including_envelopes(self, store, service, built):
        cluster = _cluster(store, 3)
        concept_id = built.concept_ids[built.concepts[0].text]
        requests = [
            ("search", built.concepts[0].text),
            ("items_for_concept", concept_id, 5),
            ("interpretation", concept_id),
            ("items_for_concept", "ec_999999"),
            ("teleport", concept_id),
            ("search", "x", -2),
        ]
        enveloped = cluster.batch(requests, on_error="envelope")
        assert enveloped == service.batch(requests, on_error="envelope")
        assert enveloped == cluster.batch(requests, on_error="envelope", workers=4)
        assert all(isinstance(result, BatchResult) for result in enveloped)
        with pytest.raises(NodeNotFoundError):
            cluster.batch(requests)  # raise mode propagates the first failure
        with pytest.raises(ConfigError, match="on_error"):
            cluster.batch(requests, on_error="explode")

    def test_shard_calls_are_tracked(self, store):
        cluster = _cluster(store, 3)
        cluster.search("gift")  # scatter: every shard
        stats = cluster.stats()
        assert all(count >= 1 for count in stats.shard_calls)
        assert stats.imbalance >= 1.0
        concept_id = next(iter(store.nodes(ECOMMERCE_PREFIX))).id
        owner = shard_of(concept_id, 3)
        before = cluster.stats().shard_calls[owner]
        cluster.items_for_concept(concept_id)
        assert cluster.stats().shard_calls[owner] == before + 1


class TestRerankedParity:
    @pytest.fixture(scope="class", params=["bm25", "dense", "hybrid"])
    def mode(self, request):
        return request.param

    def test_reranked_endpoints_bit_identical(
        self, store, built, trained_reranker, mode
    ):
        config = ServiceConfig(retriever=mode)
        service = AliCoCoService(store, config=config, reranker=trained_reranker)
        concept_ids = [node.id for node in store.nodes(ECOMMERCE_PREFIX)]
        vocabulary = {token for spec in built.concepts for token in spec.tokens}
        unmatched = "zzqx wvvk"
        assert not vocabulary & set(unmatched.split())
        queries = [spec.text for spec in built.concepts] + ["", unmatched]
        for n_shards in SHARD_COUNTS:
            cluster = _cluster(
                store, n_shards, service_config=config, reranker=trained_reranker
            )
            for concept_id in concept_ids:
                for top_k in (None, 5):
                    assert cluster.items_for_concept_reranked(concept_id, top_k) == (
                        service.items_for_concept_reranked(concept_id, top_k)
                    )
            for query in queries:
                for k in (None, 5):
                    assert cluster.search_reranked(query, k) == (
                        service.search_reranked(query, k)
                    )
        assert service.search_reranked("") == ()
        # No shared token: BM25 proposes nothing, the dense arm still does.
        assert bool(service.search_reranked(unmatched)) == (mode != "bm25")

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_one_query_encode_per_request(
        self, store, built, trained_reranker, monkeypatch, n_shards
    ):
        # The dense arm and every shard's pool scoring share the request's
        # one query encoding (hybrid: dense arm + pools on both shards).
        config = ServiceConfig(retriever="hybrid")
        if n_shards is None:
            server = AliCoCoService(store, config=config, reranker=trained_reranker)
        else:
            server = _cluster(
                store, n_shards, service_config=config, reranker=trained_reranker
            )
        calls = []
        encode_query = trained_reranker.encode_query

        def counting_encode_query(tokens):
            calls.append(tuple(tokens))
            return encode_query(tokens)

        monkeypatch.setattr(trained_reranker, "encode_query", counting_encode_query)
        concept_ids = [node.id for node in store.nodes(ECOMMERCE_PREFIX)][:4]
        for concept_id in concept_ids:
            calls.clear()
            assert server.items_for_concept_reranked(concept_id, 5)
            assert len(calls) == 1
        for spec in built.concepts[:4]:
            calls.clear()
            assert server.search_reranked(spec.text, 5)
            assert calls == [tuple(spec.text.split())]


class TestClusterSnapshot:
    def test_same_shard_count_warm_start_is_bit_identical(
        self, store, built, trained_reranker, tmp_path
    ):
        from tests.conftest import make_trained_reranker

        config = ServiceConfig(retriever="hybrid")
        cluster = _cluster(
            store, 3, service_config=config, reranker=trained_reranker
        )
        query = built.concepts[0].text
        expected = cluster.search_reranked(query, 5)
        path = tmp_path / "cluster.snapshot.jsonl"
        assert cluster.save_snapshot(path) > 0

        fresh = make_trained_reranker(built)
        warm = AliCoCoCluster.from_snapshot(
            path,
            config=ClusterConfig(n_shards=3),
            service_config=config,
            reranker=fresh,
        )
        assert warm.search_reranked(query, 5) == expected
        # Per-shard indexes really came from the snapshot, not a re-fit.
        from repro.kg.serialize import load_snapshot

        snapshot = load_snapshot(path)
        assert snapshot.index_states[CLUSTER_META] == {"n_shards": 3}
        assert any("@shard" in name for name in snapshot.index_states)

    def test_different_shard_count_resplits_deterministically(
        self, store, built, trained_reranker, tmp_path
    ):
        from tests.conftest import make_trained_reranker

        cluster = _cluster(store, 3, reranker=trained_reranker)
        query = built.concepts[1].text
        expected = cluster.search_reranked(query, 5)
        path = tmp_path / "cluster.snapshot.jsonl"
        cluster.save_snapshot(path)
        resplit = AliCoCoCluster.from_snapshot(
            path,
            config=ClusterConfig(n_shards=2),
            reranker=make_trained_reranker(built),
        )
        assert resplit.n_shards == 2
        assert resplit.search_reranked(query, 5) == expected

    def test_single_service_reads_a_cluster_snapshot(self, store, built, tmp_path):
        cluster = _cluster(store, 2)
        path = tmp_path / "cluster.snapshot.jsonl"
        cluster.save_snapshot(path)
        service = AliCoCoService.from_snapshot(path)
        query = built.concepts[0].text
        assert service.search(query) == cluster.search(query)

    def test_fingerprint_mismatch_is_rejected(self, store, tmp_path):
        cluster = AliCoCoCluster(
            store, config=ClusterConfig(n_shards=2), config_fingerprint="abc"
        )
        path = tmp_path / "cluster.snapshot.jsonl"
        cluster.save_snapshot(path)
        with pytest.raises(DataError, match="fingerprint"):
            AliCoCoCluster.from_snapshot(path, expected_fingerprint="other")


class TestCoalescer:
    def test_concurrent_duplicates_share_one_computation(self):
        coalescer = Coalescer()
        release = threading.Event()
        computed = []

        def compute():
            release.wait(5)
            computed.append(1)
            return ("result",)

        results = []
        leader = threading.Thread(
            target=lambda: results.append(coalescer.submit("key", compute))
        )
        leader.start()
        while "key" not in coalescer._flights and leader.is_alive():
            time.sleep(0.001)  # leader registered its flight

        joiners = [
            threading.Thread(
                target=lambda: results.append(
                    coalescer.submit("key", lambda: pytest.fail("joiner computed"))
                )
            )
            for _ in range(4)
        ]
        for thread in joiners:
            thread.start()
        while coalescer.stats().joined < 4:
            time.sleep(0.001)
        release.set()
        leader.join(5)
        for thread in joiners:
            thread.join(5)
        assert computed == [1]  # exactly one execution
        assert len(results) == 5
        assert all(result is results[0] for result in results)
        stats = coalescer.stats()
        assert stats.flights == 1
        assert stats.joined == 4
        assert stats.requests == 5
        assert stats.max_batch == 5
        assert stats.mean_batch == 5.0

    def test_joiners_reraise_the_leaders_exception(self):
        coalescer = Coalescer()
        release = threading.Event()
        boom = ConfigError("bad request")

        def explode():
            release.wait(5)
            raise boom

        caught = []

        def leader():
            with pytest.raises(ConfigError):
                coalescer.submit("key", explode)

        def joiner():
            try:
                coalescer.submit("key", lambda: None)
            except ConfigError as error:
                caught.append(error)

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        while "key" not in coalescer._flights and leader_thread.is_alive():
            time.sleep(0.001)
        joiner_thread = threading.Thread(target=joiner)
        joiner_thread.start()
        while coalescer.stats().joined < 1:
            time.sleep(0.001)
        release.set()
        leader_thread.join(5)
        joiner_thread.join(5)
        assert caught == [boom]  # the very same exception object

    def test_sequential_submissions_do_not_coalesce(self):
        coalescer = Coalescer()
        assert coalescer.submit("key", lambda: 1) == 1
        assert coalescer.submit("key", lambda: 2) == 2  # fresh flight
        stats = coalescer.stats()
        assert stats.flights == 2
        assert stats.joined == 0

    def test_window_sleeps_before_computing(self):
        slept = []
        coalescer = Coalescer(window_seconds=0.25, sleep=slept.append)
        assert coalescer.submit("key", lambda: "value") == "value"
        assert slept == [0.25]

    def test_zero_window_never_sleeps(self):
        coalescer = Coalescer(sleep=lambda _: pytest.fail("slept at window=0"))
        assert coalescer.submit("key", lambda: "value") == "value"

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            Coalescer(window_seconds=-0.1)


class TestAdmission:
    def test_immediate_admission_records_zero_wait(self):
        controller = AdmissionController(2, 4, 1.0)
        with controller.admit() as waited:
            assert waited == 0.0
            assert controller.inflight == 1
        assert controller.inflight == 0
        stats = controller.stats()
        assert stats.admitted == 1
        assert stats.shed == ()

    def test_queue_full_sheds_immediately(self):
        controller = AdmissionController(1, 0, 1.0)
        with controller.admit():
            start = time.perf_counter()
            with pytest.raises(OverloadedError) as excinfo:
                with controller.admit():
                    pass
            assert excinfo.value.reason == "queue_full"
            assert time.perf_counter() - start < 0.5  # no waiting at depth 0
        stats = controller.stats()
        assert stats.shed == (("queue_full", 1),)
        assert stats.shed_rate == pytest.approx(0.5)

    def test_queue_timeout_sheds_within_the_bound(self):
        controller = AdmissionController(1, 4, 0.05)
        with controller.admit():
            start = time.perf_counter()
            with pytest.raises(OverloadedError) as excinfo:
                with controller.admit():
                    pass
            elapsed = time.perf_counter() - start
            assert excinfo.value.reason == "queue_timeout"
            assert 0.05 <= elapsed < 1.0  # bounded, not unbounded queueing
        assert controller.stats().shed == (("queue_timeout", 1),)
        assert controller.stats().shed_wait_p99_ms >= 50.0

    def test_queued_request_admits_when_a_slot_frees(self):
        controller = AdmissionController(1, 4, 5.0)
        release = threading.Event()
        admitted = threading.Event()

        def holder():
            with controller.admit():
                admitted.set()
                release.wait(5)

        thread = threading.Thread(target=holder)
        thread.start()
        admitted.wait(5)
        waits = []

        def waiter():
            with controller.admit() as waited:
                waits.append(waited)

        waiting = threading.Thread(target=waiter)
        waiting.start()
        while controller.queued == 0 and waiting.is_alive():
            time.sleep(0.001)
        release.set()
        thread.join(5)
        waiting.join(5)
        assert len(waits) == 1 and waits[0] > 0.0
        stats = controller.stats()
        assert stats.admitted == 2
        assert stats.shed == ()

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="max_inflight"):
            AdmissionController(0, 1, 1.0)
        with pytest.raises(ConfigError, match="max_queue_depth"):
            AdmissionController(1, -1, 1.0)
        with pytest.raises(ConfigError, match="max_queue_wait"):
            AdmissionController(1, 1, 0.0)

    def test_overloaded_error_is_reconstructible_by_name(self):
        """Batch envelopes can re-raise a shed as its original type."""
        assert error_by_name("OverloadedError") is OverloadedError
        result = BatchResult(
            ok=False, error_type="OverloadedError", error_message="shed"
        )
        with pytest.raises(OverloadedError):
            result.unwrap()


class TestAdmissionLostWakeup:
    """Regression: a timeout-shed waiter must hand its wakeup on.

    ``_release()`` notifies exactly one waiter.  If that waiter's
    deadline has already expired and the slot is busy again by the time
    it wakes (a fresh arrival barged into the freed slot, or ``notify``
    raced the waiter's own timeout inside ``Condition.wait``), it sheds
    with ``queue_timeout`` — and before the fix the notification died
    with it, leaving every waiter queued behind it to sleep out its full
    real-time wait next to state it should react to.

    The reproduction is deterministic: an injectable clock controls the
    deadlines, a holder keeps the slot busy, and a single injected
    wakeup stands in for the consumed notification.  CPython wakes
    condition waiters in FIFO order, so the expired waiter A is woken
    first; the fix's re-notify must cascade to waiter B within a tight
    real-time bound even though B's own wait has ~30 real seconds left.
    """

    @staticmethod
    def _poll(predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() > deadline:  # pragma: no cover - failure
                raise AssertionError("condition never became true")
            time.sleep(0.001)

    def test_timeout_shed_passes_its_wakeup_on(self):
        clock = {"now": 0.0}
        controller = AdmissionController(
            1, 4, 30.0, clock=lambda: clock["now"]
        )
        release = threading.Event()
        holding = threading.Event()
        outcomes = {}
        done = {"a": threading.Event(), "b": threading.Event()}

        def holder():
            with controller.admit():
                holding.set()
                release.wait(10)

        def waiter(name):
            try:
                with controller.admit():
                    outcomes[name] = "admitted"
            except OverloadedError as error:
                outcomes[name] = error.reason
            finally:
                done[name].set()

        threads = [threading.Thread(target=holder)]
        threads[0].start()
        assert holding.wait(5)
        threads.append(threading.Thread(target=waiter, args=("a",)))
        threads[1].start()  # queues at t=0, deadline t=30
        self._poll(lambda: controller.queued == 1)
        clock["now"] = 100.0  # A's deadline long past
        threads.append(threading.Thread(target=waiter, args=("b",)))
        threads[2].start()  # queues at t=100, deadline t=130
        self._poll(lambda: controller.queued == 2)
        clock["now"] = 200.0  # both deadlines now expired

        # One wakeup, slot still busy: exactly the state the bug leaves
        # behind after a shed consumes a release's notification.
        with controller._condition:
            controller._condition.notify()

        assert done["a"].wait(5.0)
        assert outcomes["a"] == "queue_timeout"
        # Without the re-notify, B sleeps its remaining ~30 real seconds
        # and this bounded wait times out.
        assert done["b"].wait(2.0), "waiter B never received the wakeup"
        assert outcomes["b"] == "queue_timeout"

        release.set()
        for thread in threads:
            thread.join(5)
        stats = controller.stats()
        assert stats.shed == (("queue_timeout", 2),)
        assert stats.admitted == 1  # the holder only

    def test_stats_reads_percentiles_inside_the_counter_lock(self):
        """Regression: ``stats()`` read the wait percentiles after
        releasing the condition lock, so ``admitted`` and the
        percentiles could disagree mid-burst.  Pin the contract: the
        reservoirs are consulted while the lock is still held.
        """
        controller = AdmissionController(1, 2, 1.0)
        with controller.admit():
            pass

        class LockCheckingReservoir:
            def __init__(self, inner):
                self._inner = inner
                self.checked = 0

            def percentiles_ms(self):
                assert controller._condition._is_owned(), (
                    "wait percentiles read outside the admission lock"
                )
                self.checked += 1
                return self._inner.percentiles_ms()

        controller.queue_wait = LockCheckingReservoir(controller.queue_wait)
        controller.shed_wait = LockCheckingReservoir(controller.shed_wait)
        stats = controller.stats()
        assert controller.queue_wait.checked == 1
        assert controller.shed_wait.checked == 1
        assert stats.admitted == 1
        assert stats.queue_wait_p99_ms == 0.0  # immediate admission

    def test_stats_snapshots_stay_consistent_under_churn(self):
        """Concurrent ``stats()`` during admit/shed churn: every
        snapshot internally consistent and monotonic."""
        controller = AdmissionController(2, 2, 0.01)
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    try:
                        with controller.admit():
                            pass
                    except OverloadedError:
                        pass
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def snapshot():
            try:
                last = controller.stats()
                while not stop.is_set():
                    now = controller.stats()
                    assert now.admitted >= last.admitted
                    assert now.shed_total >= last.shed_total
                    if now.admitted + now.shed_total == 0:
                        assert now.queue_wait_p99_ms == 0.0
                        assert now.shed_wait_p99_ms == 0.0
                    last = now
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        workers = [threading.Thread(target=churn) for _ in range(4)]
        readers = [threading.Thread(target=snapshot) for _ in range(2)]
        for thread in workers + readers:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in workers + readers:
            thread.join(5)
        assert errors == []
        final = controller.stats()
        assert final.admitted > 0
        assert final.inflight == 0 and final.queued == 0


class TestClusterShedding:
    def test_overload_sheds_with_typed_error_and_meters_it(self, store):
        cluster = AliCoCoCluster(
            store,
            config=ClusterConfig(
                n_shards=2,
                max_inflight=1,
                max_queue_depth=0,
                max_queue_wait_ms=50,
                cache_capacity=0,
            ),
        )
        hold = threading.Event()
        entered = threading.Event()
        original = cluster._search_scattered

        def blocked(tokens, k, cgen):
            entered.set()
            hold.wait(5)
            return original(tokens, k, cgen)

        cluster._search_scattered = blocked
        thread = threading.Thread(target=lambda: cluster.search("gift"))
        thread.start()
        assert entered.wait(5)
        start = time.perf_counter()
        with pytest.raises(OverloadedError) as excinfo:
            cluster.search("other")
        elapsed = time.perf_counter() - start
        assert excinfo.value.reason == "queue_full"
        assert elapsed < 1.0  # shed fast, never hang
        hold.set()
        thread.join(5)
        stats = cluster.stats()
        assert stats.admission.shed == (("queue_full", 1),)
        assert ("OverloadedError", 1) in stats.endpoint("search").errors
        assert "shed" in stats.format_table()

    def test_cache_hits_bypass_admission(self, store):
        """A hot repeat must never consume a slot or shed."""
        cluster = AliCoCoCluster(
            store,
            config=ClusterConfig(
                n_shards=2, max_inflight=1, max_queue_depth=0, max_queue_wait_ms=50
            ),
        )
        first = cluster.search("gift")
        admitted_before = cluster.stats().admission.admitted
        assert cluster.search("gift") == first
        assert cluster.stats().admission.admitted == admitted_before


class TestClusterStatsReport:
    def test_format_table_sections(self, store):
        cluster = _cluster(store, 2)
        cluster.search("gift")
        table = cluster.stats().format_table()
        for fragment in ("shards: 2", "coalescer:", "admission:", "shard calls:"):
            assert fragment in table

    def test_unknown_endpoint_raises(self, store):
        with pytest.raises(KeyError):
            _cluster(store, 2).stats().endpoint("teleport")

    def test_config_validation(self, store):
        with pytest.raises(ConfigError, match="n_shards"):
            ClusterConfig(n_shards=0)
        with pytest.raises(ConfigError, match="coalesce_window_ms"):
            ClusterConfig(coalesce_window_ms=-1)
        with pytest.raises(ConfigError, match="fanout_workers"):
            ClusterConfig(fanout_workers=0)

    def test_bad_admission_knobs_surface_at_construction(self, store):
        with pytest.raises(ConfigError, match="max_inflight"):
            AliCoCoCluster(store, config=ClusterConfig(max_inflight=0))

    def test_ownership_imbalance_is_inf_safe(self, store):
        # Regression: with more shards than partitioned nodes, some
        # shard owns nothing and max/min used to divide by zero.
        n_shards = sum(shard_sizes(store, 1)) + 3
        sizes = shard_sizes(store, n_shards)
        assert 0 in sizes
        with AliCoCoCluster(
            store, config=ClusterConfig(n_shards=n_shards)
        ) as cluster:
            stats = cluster.stats()
            assert stats.ownership_imbalance == float("inf")
            table = stats.format_table()  # must not raise
            assert "ownership imbalance inf" in table

    @pytest.mark.parametrize(
        ("owned", "expected"),
        [
            ((), 1.0),
            ((0, 0), 1.0),
            ((6, 2), 3.0),
            ((4, 0), float("inf")),
        ],
    )
    def test_ownership_imbalance_edge_ratios(self, store, owned, expected):
        with AliCoCoCluster(store, config=ClusterConfig(n_shards=2)) as c:
            from dataclasses import replace

            stats = replace(c.stats(), shard_owned=owned)
        assert stats.ownership_imbalance == expected

    def test_shard_sizes_census(self, store):
        sizes = shard_sizes(store, 3)
        totals = sum(
            1
            for layer in (ECOMMERCE_PREFIX, ITEM_PREFIX)
            for _ in store.nodes(layer)
        )
        assert sum(sizes) == totals
        assert sizes == [
            len(owned_ids(store, shard, 3, ECOMMERCE_PREFIX))
            + len(owned_ids(store, shard, 3, ITEM_PREFIX))
            for shard in range(3)
        ]
        with pytest.raises(ConfigError, match="n_shards"):
            shard_sizes(store, 0)

    def test_fanout_executor_matches_serial(self, store, service):
        with AliCoCoCluster(
            store, config=ClusterConfig(n_shards=3, fanout_workers=3)
        ) as cluster:
            for node in list(store.nodes(ECOMMERCE_PREFIX))[:5]:
                query = " ".join(node.tokens)
                assert cluster.search(query) == service.search(query)


# --------------------------------------------------------------- generations
def _grow_round(store, tag):
    """One deterministic writer round against a generational store."""
    from repro.kg import Relation, RelationKind

    concept = store.create_ecommerce(f"fresh {tag} cluster concept")
    item = store.create_item(f"fresh {tag} cluster item title")
    primitive = next(iter(store.nodes(PRIMITIVE_PREFIX)))
    store.add_relation(Relation(RelationKind.INTERPRETED_BY, concept.id,
                                primitive.id, name=primitive.domain))
    store.add_relation(Relation(RelationKind.ITEM_ECOMMERCE, item.id,
                                concept.id, weight=0.9))
    return concept, item


class TestClusterGenerations:
    """cluster.publish() advances in lockstep with a single service."""

    def _assert_parity(self, cluster, service, store, fresh_ids):
        for node in store.nodes(ECOMMERCE_PREFIX):
            assert cluster.items_for_concept(node.id) == (
                service.items_for_concept(node.id)
            )
            assert cluster.interpretation(node.id) == (
                service.interpretation(node.id)
            )
        queries = [
            " ".join(node.tokens)
            for node in list(store.nodes(ECOMMERCE_PREFIX))[:8]
        ] + [store.get(concept_id).text for concept_id in fresh_ids]
        for query in queries:
            assert cluster.search(query) == service.search(query)
            assert cluster.search(query, 3) == service.search(query, 3)
        for node in list(store.nodes(ITEM_PREFIX))[-10:]:
            assert cluster.concepts_for_item(node.id) == (
                service.concepts_for_item(node.id)
            )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_publish_parity_with_single_service(self, built, n_shards):
        from repro.kg import GenerationalStore

        source = GenerationalStore(built.store)
        reference = GenerationalStore(built.store)
        cluster = _cluster(source, n_shards)
        service = AliCoCoService(reference, config=ServiceConfig(seed=0))
        fresh = []
        for round_index in range(2):
            concept, _ = _grow_round(source, f"g{round_index}")
            twin, _ = _grow_round(reference, f"g{round_index}")
            assert concept.id == twin.id  # ids allocate deterministically
            fresh.append(concept.id)
            assert cluster.publish() == service.publish() == round_index + 1
            assert cluster.generation_id == round_index + 1
            assert cluster.stats().generation_id == round_index + 1
            self._assert_parity(cluster, service, source, fresh)

    def test_publish_routes_by_the_placement_oracle(self, built):
        """Published relations land on their oracle shards, in global
        order; the ownership census grows with the fresh nodes."""
        from repro.kg import GenerationalStore

        n_shards = 3
        source = GenerationalStore(built.store)
        cluster = _cluster(source, n_shards)
        for round_index in range(3):
            _grow_round(source, f"route-{round_index}")
            cluster.publish()
        view = cluster.store
        for shard, service in enumerate(cluster.services):
            expected = [
                relation
                for relation in view.relations()
                if shard in oracle_owner_shards(relation, n_shards)
            ]
            assert list(service.store.relations()) == expected
        assert list(cluster._shard_owned) == shard_sizes(view, n_shards)

    def test_publish_needs_a_generational_source(self, store):
        cluster = _cluster(store, 2)
        with pytest.raises(ConfigError, match="GenerationalStore"):
            cluster.publish()

    def test_noop_publish_keeps_the_generation_bundle(self, built):
        from repro.kg import GenerationalStore

        cluster = _cluster(GenerationalStore(built.store), 2)
        bundle = cluster._cgen
        assert cluster.publish() == 0
        assert cluster._cgen is bundle

    def test_new_concepts_are_served_without_restart(self, built):
        from repro.kg import GenerationalStore

        source = GenerationalStore(built.store)
        cluster = _cluster(source, 3)
        concept, item = _grow_round(source, "live")
        assert cluster.search(concept.text) == ()  # pinned at generation 0
        assert cluster.publish() == 1
        hits = cluster.search(concept.text)
        assert hits and hits[0][0] == concept.id
        assert cluster.items_for_concept(concept.id) == ((item.id, 0.9),)

    def test_snapshot_round_trip_resumes_the_generation(self, built, tmp_path):
        from repro.kg import GenerationalStore

        source = GenerationalStore(built.store)
        cluster = _cluster(source, 2)
        concept, _ = _grow_round(source, "snap")
        cluster.publish()
        expected = cluster.search(concept.text)
        path = tmp_path / "cluster.gen.jsonl"
        assert cluster.save_snapshot(path) > 0
        warm = AliCoCoCluster.from_snapshot(
            path, config=ClusterConfig(n_shards=2))
        assert warm.generation_id == 1
        assert warm.search(concept.text) == expected
        # The restored cluster keeps evolving from where it left off.
        grown, _ = _grow_round(warm.source, "snap-2")
        assert warm.publish() == 2
        assert warm.search(grown.text)[0][0] == grown.id

    def test_compaction_is_invisible_to_the_cluster(self, built):
        from repro.kg import GenerationalStore

        source = GenerationalStore(built.store)
        cluster = _cluster(source, 3)
        fresh = []
        for round_index in range(3):
            concept, _ = _grow_round(source, f"fold-{round_index}")
            fresh.append(concept.id)
            cluster.publish()
        queries = [source.get(concept_id).text for concept_id in fresh]
        before = [cluster.search(query) for query in queries] + [
            cluster.items_for_concept(concept_id) for concept_id in fresh
        ]
        assert source.compact() == 3
        assert cluster.generation_id == 3
        after = [cluster.search(query) for query in queries] + [
            cluster.items_for_concept(concept_id) for concept_id in fresh
        ]
        assert after == before
        # ...and the next round of growth still publishes cleanly.
        concept, _ = _grow_round(source, "post-fold")
        assert cluster.publish() == 4
        assert cluster.search(concept.text)[0][0] == concept.id
