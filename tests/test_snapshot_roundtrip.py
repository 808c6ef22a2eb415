"""Snapshot round trips answer all eight endpoints bit-identically.

For a service, a 2-shard cluster (reloaded at 2 and at 3 shards), a
generational store with deltas and a compacted one (``base_generation >
0``): the warm-started system answers every endpoint exactly like the
system that saved it, and saving the same net twice writes identical
bytes.

A cluster warm-started from a single-service snapshot (plain or
generational) re-splits the net and projects its shards' dense indexes
from the snapshot's global ones: its shard stores must equal the
per-relation oracle split, and each shard's dense indexes must hold
exactly the rows it owns of a single service's fit over the net.
Dense states another backend wrote (``ivf``/``hnsw`` ones in older
snapshots) are refit, not refused.
"""

import json

import pytest

from repro.concepts import ConceptTagger
from repro.kg import GenerationalStore, Relation, RelationKind, flatten
from repro.kg.ids import ECOMMERCE_PREFIX, ITEM_PREFIX
from repro.kg.serialize import read_sections, write_sections
from repro.matching.bm25 import BM25Index
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.serving import AliCoCoCluster, AliCoCoService, ClusterConfig, ServiceConfig
from repro.serving import service as service_module
from repro.serving.service import CONCEPT_INDEX, DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX
from repro.serving.shard import shard_of

from tests.conftest import assert_same_store, make_trained_reranker, oracle_split

CONFIG = ServiceConfig(retriever="hybrid", seed=0)


def _tagger(built, *, trained):
    sentences = [list(spec.tokens) for spec in built.concepts]
    model = ConceptTagger(
        Vocab.from_corpus(sentences),
        built.lexicon,
        PosTagger(built.lexicon.pos_lexicon()),
        use_fuzzy=False,
        word_dim=8,
        char_dim=4,
        hidden_dim=6,
        seed=1 if trained else 99,
    )
    if trained:
        model.fit(built.concepts, epochs=3, lr=0.02, seed=1)
    return model


@pytest.fixture(scope="module")
def tagger(built_tiny):
    return _tagger(built_tiny, trained=True)


def _fresh_models(built):
    """Untrained-architecture stand-ins the snapshot's weights load into."""
    return {
        "tagger": _tagger(built, trained=False),
        "reranker": make_trained_reranker(built, seed=9, epochs=1),
    }


def _grow(store, tag):
    concept = store.create_ecommerce(f"fresh {tag} concept")
    item = store.create_item(f"fresh {tag} item title")
    store.add_relation(
        Relation(RelationKind.ITEM_ECOMMERCE, item.id, concept.id, weight=0.9)
    )


def _requests(built, tags=()):
    """All eight endpoints over built and freshly published nodes."""
    requests = []
    texts = [spec.text for spec in built.concepts[:4]]
    texts += [f"fresh {tag} concept" for tag in tags]
    for text in texts:
        requests += [
            ("search", text),
            ("tag", text),
            ("search_reranked", text, 5),
        ]
    for spec in built.concepts[:4]:
        concept_id = built.concept_ids[spec.text]
        requests += [
            ("items_for_concept", concept_id, 5),
            ("interpretation", concept_id),
            ("items_for_concept_reranked", concept_id, 5),
        ]
    for index in range(3):
        requests.append(("concepts_for_item", built.item_ids[index]))
    for primitive_id in list(built.primitive_ids.values())[:3]:
        requests.append(("hypernyms", primitive_id, True))
    return requests


def _saved_twice(system, tmp_path):
    first, second = tmp_path / "first.snapshot", tmp_path / "second.snapshot"
    system.save_snapshot(first)
    system.save_snapshot(second)
    assert first.read_bytes() == second.read_bytes()
    return first


def test_service_round_trip(built_tiny, tagger, trained_reranker, tmp_path):
    service = AliCoCoService(
        built_tiny.store, config=CONFIG, tagger=tagger, reranker=trained_reranker
    )
    requests = _requests(built_tiny)
    path = _saved_twice(service, tmp_path)
    warm = AliCoCoService.from_snapshot(
        path, config=CONFIG, **_fresh_models(built_tiny)
    )
    assert warm.batch(requests) == service.batch(requests)
    resaved = tmp_path / "resaved.snapshot"
    warm.save_snapshot(resaved)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("reload_shards", [2, 3])
def test_cluster_round_trip(
    built_tiny, tagger, trained_reranker, tmp_path, reload_shards
):
    cluster = AliCoCoCluster(
        built_tiny.store,
        config=ClusterConfig(n_shards=2),
        service_config=CONFIG,
        tagger=tagger,
        reranker=trained_reranker,
    )
    try:
        requests = _requests(built_tiny)
        expected = cluster.batch(requests)
        path = _saved_twice(cluster, tmp_path)
    finally:
        cluster.close()
    warm = AliCoCoCluster.from_snapshot(
        path,
        config=ClusterConfig(n_shards=reload_shards),
        service_config=CONFIG,
        **_fresh_models(built_tiny),
    )
    try:
        assert warm.n_shards == reload_shards
        assert warm.batch(requests) == expected
    finally:
        warm.close()


@pytest.mark.parametrize("compacted", [False, True])
def test_generational_round_trip(
    built_tiny, tagger, trained_reranker, tmp_path, compacted
):
    store = GenerationalStore(built_tiny.store)
    service = AliCoCoService(
        store, config=CONFIG, tagger=tagger, reranker=trained_reranker
    )
    tags = ("g1", "g2", "g3")
    for tag in tags[:2]:
        _grow(store, tag)
        service.publish()
    if compacted:
        store.compact()
    _grow(store, tags[2])
    service.publish()
    assert (store.base_generation > 0) == compacted
    requests = _requests(built_tiny, tags)
    path = _saved_twice(service, tmp_path)
    warm = AliCoCoService.from_snapshot(
        path, config=CONFIG, **_fresh_models(built_tiny)
    )
    assert warm.generation_id == service.generation_id == 3
    assert warm.batch(requests) == service.batch(requests)



GROWN = ("w1", "w2")


def _saved_generational(built, tagger, reranker, path):
    """A generational service snapshot: two published segments."""
    store = GenerationalStore(built.store)
    service = AliCoCoService(store, config=CONFIG, tagger=tagger, reranker=reranker)
    for tag in GROWN:
        _grow(store, tag)
        service.publish()
    service.save_snapshot(path)
    return path


def _assert_oracle_shards(cluster, config=CONFIG):
    """Shard stores equal the oracle split; each shard's dense indexes
    hold exactly its own rows of a single service's fit over the net."""
    n_shards = cluster.n_shards
    expected_shards = oracle_split(cluster.store, n_shards)
    net = cluster.store if cluster.source is None else flatten(cluster.store)
    refit = AliCoCoService(net, config=config, reranker=cluster._reranker)
    for shard, (service, expected) in enumerate(
        zip(cluster.services, expected_shards)
    ):
        assert_same_store(service._gen.store, expected)
        for name in (DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX):
            served = service._gen.dense_indexes[name]
            fitted = refit._gen.dense_indexes[name]
            owned = [
                doc_id
                for doc_id in (fitted.doc_ids if fitted is not None else ())
                if shard_of(doc_id, n_shards) == shard
            ]
            if not owned:
                assert served is None
            else:
                assert served.to_state() == fitted.projected(owned).to_state()


class TestClusterWarmStartFromAServiceSnapshot:
    """A re-split warm start: placement once per node, dense indexes
    projected from the snapshot's global ones — bit-identical to the
    per-relation oracle split and each shard's rows of a global refit."""

    @pytest.fixture(scope="class")
    def snapshots(self, built_tiny, tagger, trained_reranker, tmp_path_factory):
        directory = tmp_path_factory.mktemp("warm-start")
        service = AliCoCoService(
            built_tiny.store, config=CONFIG, tagger=tagger, reranker=trained_reranker
        )
        service.save_snapshot(directory / "service.snapshot")
        return {
            "service": directory / "service.snapshot",
            "generational": _saved_generational(
                built_tiny, tagger, trained_reranker, directory / "gen.snapshot"
            ),
        }

    def _warm(self, path, built, n_shards, monkeypatch, config=CONFIG):
        """The warm-started cluster and the index fits it ran, global or
        on a shard, as (population, documents)."""
        fits = []
        fit = service_module.fit_index

        def counting_fit(name, documents, vector_of):
            fits.append((name, len(documents)))
            return fit(name, documents, vector_of)

        with monkeypatch.context() as patch:
            patch.setattr(service_module, "fit_index", counting_fit)
            cluster = AliCoCoCluster.from_snapshot(
                path,
                config=ClusterConfig(n_shards=n_shards),
                service_config=config,
                **_fresh_models(built),
            )
        return cluster, fits

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_single_service_snapshot(
        self, snapshots, built_tiny, monkeypatch, n_shards
    ):
        path = snapshots["service"]
        cluster, fits = self._warm(path, built_tiny, n_shards, monkeypatch)
        try:
            assert fits == []  # every shard serves projections, no refit
            _assert_oracle_shards(cluster)
            single = AliCoCoService.from_snapshot(
                path, config=CONFIG, **_fresh_models(built_tiny)
            )
            requests = _requests(built_tiny)
            assert cluster.batch(requests) == single.batch(requests)
        finally:
            cluster.close()

    def test_generational_snapshot(self, snapshots, built_tiny, monkeypatch):
        path = snapshots["generational"]
        cluster, fits = self._warm(path, built_tiny, 2, monkeypatch)
        try:
            assert fits == []
            assert cluster.generation_id == len(GROWN)
            _assert_oracle_shards(cluster)
            single = AliCoCoService.from_snapshot(
                path, config=CONFIG, **_fresh_models(built_tiny)
            )
            requests = _requests(built_tiny, GROWN)
            assert cluster.batch(requests) == single.batch(requests)
        finally:
            cluster.close()

    def test_ivf_shards_still_refit(self, snapshots, built_tiny, monkeypatch, tmp_path):
        """An older snapshot may hold ``ivf`` dense states: a cluster
        warm-started from it refits its global dense indexes, whose shard
        projections equal the owned rows of a global refit, and answers
        like the unforged snapshot."""
        path = snapshots["service"]
        forged = tmp_path / "ivf.snapshot"
        header, sections = read_sections(path)
        for name in (DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX):
            state = json.loads(sections[f"index:{name}"])
            state["backend"] = "ivf"
            sections[f"index:{name}"] = json.dumps(state).encode("utf-8")
        write_sections(forged, header, list(sections.items()))

        unforged = AliCoCoService.from_snapshot(
            path, config=CONFIG, **_fresh_models(built_tiny)
        )
        cluster, fits = self._warm(forged, built_tiny, 2, monkeypatch)
        try:
            # One global refit per dense population, projected onto the
            # shards; the covering BM25 state is rehydrated.
            assert [name for name, _ in fits] == [DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX]
            _assert_oracle_shards(cluster)
            requests = _requests(built_tiny)
            assert cluster.batch(requests) == unforged.batch(requests)
        finally:
            cluster.close()


def test_store_built_cluster_encodes_each_document_once(
    built_tiny, trained_reranker, monkeypatch
):
    """No snapshot states: one global fit over the view, then projections."""
    encoded = []
    encode_doc = trained_reranker.encode_doc

    def counting_encode_doc(tokens):
        encoded.append(tuple(tokens))
        return encode_doc(tokens)

    store = built_tiny.store
    with monkeypatch.context() as patch:
        patch.setattr(trained_reranker, "encode_doc", counting_encode_doc)
        cluster = AliCoCoCluster(
            store,
            config=ClusterConfig(n_shards=3),
            service_config=CONFIG,
            reranker=trained_reranker,
        )
    documents = [node.title.split() for node in store.nodes(ITEM_PREFIX)] + [
        list(node.tokens) for node in store.nodes(ECOMMERCE_PREFIX)
    ]
    assert len(encoded) == sum(1 for tokens in documents if tokens)
    # Ghost items sit on two shards each, yet were encoded once.
    held = sum(service.store.count_nodes(ITEM_PREFIX) for service in cluster.services)
    assert held > store.count_nodes(ITEM_PREFIX)
    _assert_oracle_shards(cluster)


def test_a_global_state_not_covering_the_net_is_refit(built_tiny, trained_reranker):
    """A dense or BM25 state over other documents than the net's is not
    rehydrated: the cluster and the service alike fit the population over
    the net instead."""
    store = built_tiny.store
    items = [node.id for node in store.nodes(ITEM_PREFIX)]
    stale = AliCoCoService(store, config=CONFIG, reranker=trained_reranker)
    fitted = stale._gen.dense_indexes[DENSE_ITEM_INDEX].to_state()
    state = {**fitted, "ids": list(reversed(fitted["ids"]))}
    assert state["ids"] != items
    fitted_bm25 = stale._gen.search_index.to_state()
    concepts = fitted_bm25["doc_ids"]
    stale_bm25 = BM25Index().fit({doc_id: ["stale"] for doc_id in concepts[:-1]})
    states = {DENSE_ITEM_INDEX: state, CONCEPT_INDEX: stale_bm25.to_state()}
    cluster = AliCoCoCluster(
        store,
        config=ClusterConfig(n_shards=2),
        service_config=CONFIG,
        reranker=trained_reranker,
        dense_index_states=states,
    )
    _assert_oracle_shards(cluster)
    assert cluster._cgen.dense_indexes[DENSE_ITEM_INDEX].to_state() == fitted
    assert cluster._cgen.search_index.to_state() == fitted_bm25
    service = AliCoCoService(
        store,
        config=CONFIG,
        reranker=trained_reranker,
        dense_index_states=states,
    )
    assert service._gen.dense_indexes[DENSE_ITEM_INDEX].to_state() == fitted
    assert service._gen.search_index.to_state() == fitted_bm25
