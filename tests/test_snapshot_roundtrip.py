"""Snapshot round trips answer all eight endpoints bit-identically.

For a service, a 2-shard cluster (reloaded at 2 and at 3 shards), a
generational store with deltas and a compacted one (``base_generation >
0``): the warm-started system answers every endpoint exactly like the
system that saved it, and saving the same net twice writes identical
bytes.
"""

import pytest

from repro.concepts import ConceptTagger
from repro.kg import GenerationalStore, Relation, RelationKind
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.serving import AliCoCoCluster, AliCoCoService, ClusterConfig, ServiceConfig

from tests.conftest import make_trained_reranker

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
