"""One owner per index: the cluster keeps each global index, a shard its rows.

The cluster owns the global BM25 concept index and one global dense index
per population; each shard holds a projection of each onto the documents
it owns (``shard_of(doc_id) == shard``), in global fit order.  Checked
after a warm start from a service snapshot and from a generational one,
at 1, 2 and 3 shards, and after each of three publishes, under both
executors:

- the shards' projections partition the global index's ids, each in
  global fit order;
- each dense projection's state equals the global index's projection
  onto the shard's owned ids;
- the global indexes equal a single service's over the same net.

Under the process executor a worker's projections are read from its
image rebuilt in-process — the bootstrap snapshot plus the replayed delta
log, the code a restarted worker runs — and the live worker's dense arm
is checked to return exactly the ids it owns.
"""

import pytest

from repro.kg import GenerationalStore, Relation, RelationKind, flatten
from repro.serving import AliCoCoCluster, AliCoCoService, ClusterConfig, ServiceConfig
from repro.serving.models import dense_query_vector
from repro.serving.procpool import _ShardWorker
from repro.serving.service import (
    DENSE_CONCEPT_INDEX,
    DENSE_ITEM_INDEX,
    shard_service_from_snapshot,
)
from repro.serving.shard import shard_of

from tests.conftest import make_trained_reranker

CONFIG = ServiceConfig(retriever="hybrid", seed=0)
POPULATIONS = (DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX)


def _grow(store, tag):
    concept = store.create_ecommerce(f"owned {tag} concept")
    item = store.create_item(f"owned {tag} item title")
    store.add_relation(
        Relation(RelationKind.ITEM_ECOMMERCE, item.id, concept.id, weight=0.9)
    )


@pytest.fixture(scope="module")
def snapshots(built_tiny, trained_reranker, tmp_path_factory):
    directory = tmp_path_factory.mktemp("ownership")
    plain = directory / "service.snapshot"
    AliCoCoService(
        built_tiny.store, config=CONFIG, reranker=trained_reranker
    ).save_snapshot(plain)
    store = GenerationalStore(built_tiny.store)
    service = AliCoCoService(store, config=CONFIG, reranker=trained_reranker)
    for tag in ("s1", "s2"):
        _grow(store, tag)
        service.publish()
    generational = directory / "generational.snapshot"
    service.save_snapshot(generational)
    return {"service": plain, "generational": generational}


def _warm(path, built, n_shards, executor):
    """A cluster warm-started from ``path``; it can publish whatever
    generation the snapshot was saved at."""
    config = ClusterConfig(n_shards=n_shards, executor=executor)
    reranker = make_trained_reranker(built, seed=9, epochs=1)
    return AliCoCoCluster.from_snapshot(
        path, config=config, service_config=CONFIG, reranker=reranker
    )


def _shard_generations(cluster):
    """Each shard's pinned generation: in-process, the pin itself; under
    the process executor, the worker's image at its pin."""
    pins = cluster._cgen.shards
    if cluster.config.executor == "thread":
        return list(pins)
    generations = []
    for shard, slot in enumerate(cluster.worker_pool._slots):
        spec = slot.spec
        worker = _ShardWorker(
            shard_service_from_snapshot(
                spec.snapshot_path,
                config=spec.service_config,
                tagger=spec.tagger,
                reranker=spec.reranker,
            ),
            spec.cluster_generation_id,
        )
        for method, args in slot.delta_log:
            worker.dispatch(method, args)
        generations.append(worker.pinned(pins[shard]))
    return generations


def _owned(index, n_shards):
    """The global index's ids each shard owns, in global fit order."""
    owned = [[] for _ in range(n_shards)]
    for doc_id in index.doc_ids:
        owned[shard_of(doc_id, n_shards)].append(doc_id)
    return owned


def _assert_projection(global_index, projections, n_shards):
    """The projections partition the global ids, each in global order."""
    assert global_index is not None
    owned = _owned(global_index, n_shards)
    for ids, projection in zip(owned, projections):
        if not ids:
            assert projection is None
        else:
            assert projection.doc_ids == tuple(ids)
    held = [d for p in projections if p is not None for d in p.doc_ids]
    assert sorted(held) == sorted(global_index.doc_ids)
    assert len(held) == len(global_index)
    return owned


def _assert_owned_rows(cluster):
    cgen = cluster._cgen
    n_shards = cluster.n_shards
    oracle = AliCoCoService(
        flatten(cgen.store), config=CONFIG, reranker=cluster._reranker
    )
    assert cgen.search_index.to_state() == oracle._gen.search_index.to_state()
    generations = _shard_generations(cluster)
    _assert_projection(
        cgen.search_index, [gen.search_index for gen in generations], n_shards
    )
    for name in POPULATIONS:
        global_index = cgen.dense_indexes[name]
        assert global_index.to_state() == oracle._gen.dense_indexes[name].to_state()
        projections = [gen.dense_indexes[name] for gen in generations]
        owned = _assert_projection(global_index, projections, n_shards)
        for ids, projection in zip(owned, projections):
            if ids:
                expected = global_index.projected(ids).to_state()
                assert projection.to_state() == expected
        if cluster.config.executor == "process":
            # The live worker's dense arm ranks exactly the rows it owns.
            vector = dense_query_vector(cluster._reranker, ["gift"])
            k = len(global_index)
            for shard, ids in enumerate(owned):
                pin = cgen.shards[shard]
                ranked = cluster.worker_pool.call(
                    shard, "dense_arm", pin, name, vector, k
                )
                assert sorted(doc_id for doc_id, _ in ranked) == sorted(ids)


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("n_shards", [1, 2, 3])
@pytest.mark.parametrize("kind", ["service", "generational"])
def test_shards_hold_exactly_their_own_rows(
    snapshots, built_tiny, kind, n_shards, executor
):
    cluster = _warm(snapshots[kind], built_tiny, n_shards, executor)
    try:
        _assert_owned_rows(cluster)
        for round_index in range(3):
            _grow(cluster.source, f"{kind}-{n_shards}-{round_index}")
            cluster.publish()
            _assert_owned_rows(cluster)
    finally:
        cluster.close()
