"""Out-of-process shard workers: RPC framing, parity, crash recovery.

Contract under test: ``ClusterConfig(executor="process")`` answers every
endpoint **bit-identically** to the thread executor (and therefore to a
single ``AliCoCoService``) at 1, 2 and 4 shards — routed and scattered,
reranked and hybrid included — while actually escaping the GIL.  On top
of parity sit the lifecycle guarantees: a killed worker restarts from
its bootstrap snapshot plus the replayed delta log and answers
bit-identically again; past the bounded restart budget the shard
degrades to a typed ``ShardUnavailableError`` while healthy shards keep
serving; and a closed cluster leaves no child processes behind.
"""

import multiprocessing
import pickle

import pytest

from repro.errors import (
    ConfigError,
    DataError,
    NodeNotFoundError,
    OverloadedError,
    RelationError,
    ShardUnavailableError,
)
from repro.kg.ids import ECOMMERCE_PREFIX, PRIMITIVE_PREFIX
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.serving import (
    AliCoCoCluster,
    AliCoCoService,
    ClusterConfig,
    ServiceConfig,
    decode_frame,
    encode_frame,
)
from repro.serving.rpc import (
    MAX_FRAME_BYTES,
    error_envelope,
    raise_remote,
)

from tests.conftest import make_trained_reranker, oracle_census

SHARD_COUNTS = (1, 2, 4)


# ------------------------------------------------------------- RPC framing
class TestRPCFraming:
    def test_roundtrip(self):
        payload = ("search_arm", (3, ("gift", "mother"), 10))
        assert decode_frame(encode_frame(payload)) == payload

    def test_short_frame_is_loud(self):
        with pytest.raises(DataError, match="too short"):
            decode_frame(b"AR")

    def test_bad_magic_is_loud(self):
        frame = bytearray(encode_frame("x"))
        frame[0:2] = b"ZZ"
        with pytest.raises(DataError, match="magic"):
            decode_frame(bytes(frame))

    def test_version_mismatch_is_loud(self):
        frame = bytearray(encode_frame("x"))
        frame[2] = 99
        with pytest.raises(DataError, match="version 99"):
            decode_frame(bytes(frame))

    def test_torn_payload_is_loud(self):
        frame = encode_frame({"a": 1})
        with pytest.raises(DataError, match="payload bytes"):
            decode_frame(frame[:-2])

    def test_absurd_length_is_refused_before_allocation(self):
        import struct

        header = struct.pack(">2sBBI", b"AR", 1, 0, MAX_FRAME_BYTES + 1)
        with pytest.raises(DataError, match="declares"):
            decode_frame(header)

    def test_error_envelope_reraises_original_type(self):
        envelope = error_envelope(NodeNotFoundError("node ec_9 not found"))
        ok, failure = envelope
        assert not ok
        with pytest.raises(NodeNotFoundError, match="ec_9"):
            raise_remote(failure)

    def test_overloaded_reason_survives_the_wire(self):
        envelope = error_envelope(OverloadedError("shed", reason="queue_full"))
        _, failure = pickle.loads(pickle.dumps(envelope))
        with pytest.raises(OverloadedError) as caught:
            raise_remote(failure)
        assert caught.value.reason == "queue_full"

    def test_unknown_error_degrades_to_repro_error(self):
        from repro.errors import ReproError

        _, failure = error_envelope(ValueError("worker-side bug"))
        with pytest.raises(ReproError, match="ValueError: worker-side bug"):
            raise_remote(failure)


# ------------------------------------------------------------ shared models
@pytest.fixture(scope="module")
def built(built_tiny):
    return built_tiny


@pytest.fixture(scope="module")
def reranker(built):
    return make_trained_reranker(built)


@pytest.fixture(scope="module")
def tagger(built):
    from repro.concepts.tagging import ConceptTagger

    sentences = [list(spec.tokens) for spec in built.concepts]
    model = ConceptTagger(
        Vocab.from_corpus(sentences),
        built.lexicon,
        PosTagger(built.lexicon.pos_lexicon()),
        use_fuzzy=False,
        word_dim=8,
        char_dim=4,
        hidden_dim=6,
        seed=1,
    )
    model.fit(built.concepts, epochs=3, lr=0.02, seed=1)
    return model


def _process_cluster(store, n_shards, **kwargs):
    kwargs.setdefault("config", ClusterConfig(n_shards=n_shards, executor="process"))
    return AliCoCoCluster(store, **kwargs)


# ---------------------------------------------------------------- parity
class TestProcessParity:
    """Bit-identity against a single service, all 8 endpoints."""

    @pytest.fixture(scope="class", params=SHARD_COUNTS)
    def pair(self, request, built, reranker, tagger):
        service = AliCoCoService(
            built.store, tagger=tagger, reranker=reranker
        )
        cluster = _process_cluster(
            built.store, request.param, tagger=tagger, reranker=reranker
        )
        yield cluster, service
        cluster.close()

    def test_routed_endpoints(self, pair, built):
        cluster, service = pair
        store = built.store
        concept_ids = [node.id for node in store.nodes(ECOMMERCE_PREFIX)][:8]
        for concept_id in concept_ids:
            assert cluster.items_for_concept(concept_id) == (
                service.items_for_concept(concept_id)
            )
            assert cluster.interpretation(concept_id) == (
                service.interpretation(concept_id)
            )
        for index in range(8):
            item_id = built.item_ids[index]
            assert cluster.concepts_for_item(item_id) == (
                service.concepts_for_item(item_id)
            )
        for node in list(store.nodes(PRIMITIVE_PREFIX))[:6]:
            assert cluster.hypernyms(node.id, True) == (
                service.hypernyms(node.id, True)
            )

    def test_scattered_endpoints(self, pair, built):
        cluster, service = pair
        for spec in built.concepts[:8]:
            assert cluster.search(spec.text) == service.search(spec.text)
            assert cluster.search_reranked(spec.text, 5) == (
                service.search_reranked(spec.text, 5)
            )
        concept_ids = [
            node.id for node in built.store.nodes(ECOMMERCE_PREFIX)
        ][:6]
        for concept_id in concept_ids:
            assert cluster.items_for_concept_reranked(concept_id, 5) == (
                service.items_for_concept_reranked(concept_id, 5)
            )

    def test_tag(self, pair, built):
        cluster, service = pair
        for spec in built.concepts[:6]:
            assert cluster.tag(spec.text) == service.tag(spec.text)

    def test_error_parity_across_the_process_boundary(self, pair):
        cluster, service = pair
        for call, error in (
            (lambda target: target.items_for_concept("ec_999999"), NodeNotFoundError),
            (lambda target: target.concepts_for_item("ec_0"), RelationError),
            (lambda target: target.search("gift", k=0), ConfigError),
        ):
            with pytest.raises(error) as served:
                call(service)
            with pytest.raises(error) as clustered:
                call(cluster)
            assert str(clustered.value) == str(served.value)

    def test_stats_report_workers(self, pair):
        cluster, _ = pair
        stats = cluster.stats()
        assert stats.executor == "process"
        assert stats.workers is not None
        assert stats.workers.all_alive
        assert len(stats.workers.workers) == cluster.n_shards
        assert all(worker.pid > 0 for worker in stats.workers.workers)
        # Worker-side shard stats travel back over RPC too.
        assert len(stats.shards) == cluster.n_shards
        table = stats.format_table()
        assert "worker shard0" in table
        assert "ownership imbalance" in table


class TestHybridProcessParity:
    def test_hybrid_retriever_bit_identical(self, built, reranker):
        config = ServiceConfig(retriever="hybrid")
        service = AliCoCoService(
            built.store, config=config, reranker=reranker
        )
        cluster = _process_cluster(
            built.store, 2, service_config=config, reranker=reranker
        )
        try:
            assert cluster.stats().executor == "process"
            for spec in built.concepts[:6]:
                assert cluster.search_reranked(spec.text, 5) == (
                    service.search_reranked(spec.text, 5)
                )
            concept_ids = [
                node.id for node in built.store.nodes(ECOMMERCE_PREFIX)
            ][:5]
            for concept_id in concept_ids:
                assert cluster.items_for_concept_reranked(concept_id, 5) == (
                    service.items_for_concept_reranked(concept_id, 5)
                )
        finally:
            cluster.close()


# ------------------------------------------------------------- generations
def _grow_round(store, tag):
    from repro.kg import Relation, RelationKind

    concept = store.create_ecommerce(f"fresh {tag} worker concept")
    item = store.create_item(f"fresh {tag} worker item title")
    primitive = next(iter(store.nodes(PRIMITIVE_PREFIX)))
    store.add_relation(
        Relation(
            RelationKind.INTERPRETED_BY, concept.id, primitive.id, name=primitive.domain
        )
    )
    store.add_relation(
        Relation(RelationKind.ITEM_ECOMMERCE, item.id, concept.id, weight=0.9)
    )
    return concept, item


class TestProcessPublish:
    def test_publish_ships_deltas_to_workers(self, built, reranker):
        from repro.kg import GenerationalStore

        source = GenerationalStore(built.store)
        reference = GenerationalStore(built.store)
        cluster = _process_cluster(source, 3, reranker=reranker)
        service = AliCoCoService(reference, reranker=reranker)
        try:
            for round_index in range(2):
                concept, item = _grow_round(source, f"p{round_index}")
                _grow_round(reference, f"p{round_index}")
                assert cluster.publish() == service.publish() == round_index + 1
                query = " ".join(source.get(concept.id).tokens)
                assert cluster.search(query) == service.search(query)
                assert cluster.items_for_concept(concept.id) == (
                    service.items_for_concept(concept.id)
                )
                assert cluster.concepts_for_item(item.id) == (
                    service.concepts_for_item(item.id)
                )
                assert cluster.search_reranked(query, 5) == (
                    service.search_reranked(query, 5)
                )
        finally:
            cluster.close()


# ------------------------------------------------------------ crash paths
def _kill_worker(cluster, shard):
    process = cluster.worker_pool.worker_process(shard)
    process.kill()
    process.join(timeout=10)


class TestCrashRecovery:
    def test_restart_after_kill_is_bit_identical(self, built, reranker):
        service = AliCoCoService(built.store, reranker=reranker)
        cluster = _process_cluster(built.store, 3, reranker=reranker)
        try:
            queries = [spec.text for spec in built.concepts[:4]]
            expected = [service.search_reranked(query, 5) for query in queries]
            assert [
                cluster.search_reranked(query, 5) for query in queries
            ] == expected
            for shard in range(cluster.n_shards):
                _kill_worker(cluster, shard)
            # Cached answers survive the crash; fresh computation drives
            # restarts — disable the cache's help by asking new queries.
            assert [
                cluster.search_reranked(query, 5) for query in queries
            ] == expected
            fresh = built.concepts[4].text
            assert cluster.search_reranked(fresh, 5) == (
                service.search_reranked(fresh, 5)
            )
            stats = cluster.stats()
            assert stats.workers.total_restarts >= 1
            assert stats.workers.all_alive
        finally:
            cluster.close()

    def test_replayed_deltas_survive_a_crash(self, built, reranker):
        from repro.kg import GenerationalStore

        source = GenerationalStore(built.store)
        reference = GenerationalStore(built.store)
        cluster = _process_cluster(source, 2, reranker=reranker)
        service = AliCoCoService(reference, reranker=reranker)
        try:
            concept, item = _grow_round(source, "crash")
            _grow_round(reference, "crash")
            assert cluster.publish() == service.publish() == 1
            for shard in range(cluster.n_shards):
                _kill_worker(cluster, shard)
            # The respawned workers replay the shipped delta over their
            # bootstrap snapshots — the published generation is intact.
            query = " ".join(source.get(concept.id).tokens)
            assert cluster.search(query) == service.search(query)
            assert cluster.items_for_concept(concept.id) == (
                service.items_for_concept(concept.id)
            )
            assert cluster.concepts_for_item(item.id) == (
                service.concepts_for_item(item.id)
            )
        finally:
            cluster.close()

    def test_exhausted_budget_degrades_typed(self, built):
        cluster = _process_cluster(
            built.store,
            2,
            config=ClusterConfig(
                n_shards=2, executor="process", max_worker_restarts=0
            ),
        )
        try:
            victim = 1
            survivor_ids = [
                node.id
                for node in built.store.nodes(ECOMMERCE_PREFIX)
                if cluster._shard_for(node.id) == 0
            ]
            victim_ids = [
                node.id
                for node in built.store.nodes(ECOMMERCE_PREFIX)
                if cluster._shard_for(node.id) == victim
            ]
            assert survivor_ids and victim_ids
            _kill_worker(cluster, victim)
            with pytest.raises(ShardUnavailableError) as caught:
                cluster.items_for_concept(victim_ids[0])
            assert caught.value.shard == victim
            # The lost shard stays typed-unavailable...
            with pytest.raises(ShardUnavailableError):
                cluster.items_for_concept(victim_ids[0])
            assert not cluster.worker_pool.alive(victim)
            # ...while the healthy shard keeps answering routed queries
            # (an empty answer is a legitimate answer — no exception is
            # the contract here).
            for survivor_id in survivor_ids:
                cluster.items_for_concept(survivor_id)
                cluster.interpretation(survivor_id)
            # Scatters touching the dead shard degrade typed, too.
            with pytest.raises(ShardUnavailableError):
                cluster.search("gift basket for mother")
            stats = cluster.stats()
            assert stats.workers is not None
            assert not stats.workers.all_alive
            assert "DOWN" in stats.format_table()
        finally:
            cluster.close()

    def test_ping_and_health(self, built):
        cluster = _process_cluster(built.store, 2)
        try:
            pongs = cluster.worker_pool.ping_all()
            assert [pong[0] for pong in pongs] == ["pong", "pong"]
            assert all(pong[1] > 0 for pong in pongs)
        finally:
            cluster.close()


# ------------------------------------------------------------- snapshots
class TestProcessSnapshot:
    def test_process_cluster_snapshot_roundtrip(
        self, built, reranker, tmp_path
    ):
        config = ServiceConfig(retriever="hybrid")
        cluster = _process_cluster(
            built.store, 2, service_config=config, reranker=reranker
        )
        query = built.concepts[0].text
        try:
            expected = cluster.search_reranked(query, 5)
            path = tmp_path / "proc-cluster.snapshot.jsonl"
            assert cluster.save_snapshot(path) > 0
        finally:
            cluster.close()
        # A snapshot written by a process cluster warm-starts a thread
        # cluster (and vice versa) — one format, two executors.
        fresh = make_trained_reranker(built)
        warm = AliCoCoCluster.from_snapshot(
            path,
            config=ClusterConfig(n_shards=2),
            service_config=config,
            reranker=fresh,
        )
        assert warm.search_reranked(query, 5) == expected
        warm_process = AliCoCoCluster.from_snapshot(
            path,
            config=ClusterConfig(n_shards=2, executor="process"),
            service_config=config,
            reranker=fresh,
        )
        try:
            assert warm_process.search_reranked(query, 5) == expected
        finally:
            warm_process.close()


# ----------------------------------------------------------- housekeeping
class TestHousekeeping:
    def test_ownership_census_matches_shard_sizes(self, built):
        cluster = _process_cluster(built.store, 4)
        try:
            stats = cluster.stats()
            assert list(stats.shard_owned) == oracle_census(built.store, 4)
            assert sum(stats.shard_owned) > 0
        finally:
            cluster.close()

    def test_close_leaves_no_children(self, built):
        cluster = _process_cluster(built.store, 2)
        assert cluster.worker_pool is not None
        cluster.close()
        assert multiprocessing.active_children() == []
        # Idempotent, and the pool refuses further traffic, typed.
        cluster.close()
        with pytest.raises(ShardUnavailableError, match="closed"):
            cluster.worker_pool.ping(0)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="executor"):
            ClusterConfig(executor="fibers")
        with pytest.raises(ConfigError, match="max_worker_restarts"):
            ClusterConfig(max_worker_restarts=-1)
