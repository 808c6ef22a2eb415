"""One index lifecycle: every served index is fit, checked, extended and
saved by one rule.

A service over a :class:`GenerationalStore` and a 2-shard cluster over
one must serve the indexes a fresh single service over ``flatten()``
fits, after every publish and across a save and a warm start:

- a save writes the generation the system serves, so the saved indexes
  cover the saved net even when the source store published past it;
- a saved BM25 state that does not cover its net is refit on load, like
  a dense one;
- an e-commerce concept without text is in no index, whether the index
  was fitted or extended.

The property test runs random histories of concept and item creation
(empty, whitespace-only and repeated-token texts included), publishes
and save + warm-start round trips.  Tier-1 runs it at hypothesis's
default budget; CI reruns it with ``--hypothesis-profile=index-lifecycle``.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.kg import GenerationalStore, flatten
from repro.kg.ids import ECOMMERCE_PREFIX
from repro.kg.serialize import save_generations
from repro.serving import (
    AliCoCoCluster,
    AliCoCoService,
    ClusterConfig,
    ServiceConfig,
    fit_concept_index,
)
from repro.serving.service import CONCEPT_INDEX

CONFIG = ServiceConfig(retriever="hybrid", seed=0)
CLUSTER = ClusterConfig(n_shards=2)


def _system(kind, store, reranker):
    if kind == "service":
        return AliCoCoService(store, config=CONFIG, reranker=reranker)
    return AliCoCoCluster(
        store, config=CLUSTER, service_config=CONFIG, reranker=reranker
    )


def _warm(kind, path, reranker, config=CONFIG):
    if kind == "service":
        return AliCoCoService.from_snapshot(path, config=config, reranker=reranker)
    return AliCoCoCluster.from_snapshot(
        path, config=CLUSTER, service_config=config, reranker=reranker
    )


def _served(system):
    """The system's served bundle: a service's generation, a cluster's."""
    return system._cgen if isinstance(system, AliCoCoCluster) else system._gen


def _index_ids(system):
    """Every served index's document ids, by population."""
    gen = _served(system)
    indexes = {CONCEPT_INDEX: gen.search_index, **gen.dense_indexes}
    return {
        name: None if index is None else index.doc_ids
        for name, index in indexes.items()
    }


def _source(system):
    return system.source if isinstance(system, AliCoCoCluster) else system.store


def _assert_flatten_parity(system, reranker, queries):
    reference = AliCoCoService(
        flatten(_source(system)), config=CONFIG, reranker=reranker
    )
    assert _index_ids(system) == _index_ids(reference)
    for text in queries:
        assert system.search(text) == reference.search(text), text


@pytest.mark.parametrize("saver", ["service", "cluster"])
@pytest.mark.parametrize("loader", ["service", "cluster"])
def test_a_save_writes_the_served_generation(
    built_tiny, trained_reranker, tmp_path, saver, loader
):
    store = GenerationalStore(built_tiny.store)
    system = _system(saver, store, trained_reranker)
    store.create_ecommerce("fresh served concept")
    system.publish()
    hidden = store.create_ecommerce("fresh unserved concept")
    store.publish()  # the source moves on; the system still serves gen 1
    path = tmp_path / "served.snapshot"
    system.save_snapshot(path)
    warm = _warm(loader, path, trained_reranker)
    try:
        assert warm.generation_id == system.generation_id == 1
        assert hidden.id not in warm.store
        concepts = list(warm.store.nodes(ECOMMERCE_PREFIX))
        for node in concepts:
            found = [doc_id for doc_id, _ in warm.search(node.text, len(concepts))]
            assert node.id in found, node.text
    finally:
        for closable in (system, warm):
            if isinstance(closable, AliCoCoCluster):
                closable.close()


@pytest.mark.parametrize("loader", ["service", "cluster"])
def test_a_bm25_state_not_covering_its_store_is_refit_on_load(
    built_tiny, tmp_path, loader
):
    store = GenerationalStore(built_tiny.store)
    stale = fit_concept_index(store.current()).to_state()
    fresh = store.create_ecommerce("fresh uncovered concept")
    store.publish()
    path = tmp_path / "stale.snapshot"
    save_generations(store, path, index_states={CONCEPT_INDEX: stale})
    warm = _warm(loader, path, None, ServiceConfig(seed=0))
    try:
        refit = fit_concept_index(flatten(store)).to_state()
        assert _served(warm).search_index.to_state() == refit
        assert warm.search(fresh.text)[0][0] == fresh.id
    finally:
        if isinstance(warm, AliCoCoCluster):
            warm.close()


@pytest.mark.parametrize("kind", ["service", "cluster"])
def test_an_empty_text_concept_is_in_no_index(built_tiny, trained_reranker, kind):
    store = GenerationalStore(built_tiny.store)
    system = _system(kind, store, trained_reranker)
    empty = store.create_ecommerce("")
    store.create_ecommerce("fresh lamb chops")
    system.publish()
    try:
        assert empty.id not in _index_ids(system)[CONCEPT_INDEX]
        queries = [spec.text for spec in built_tiny.concepts[:6]] + ["lamb chops"]
        _assert_flatten_parity(system, trained_reranker, queries)
    finally:
        if isinstance(system, AliCoCoCluster):
            system.close()


WORDS = ("lamb", "chops", "fresh", "wool", "scarf", "party")
TEXTS = st.one_of(
    st.sampled_from(["", " ", "  \t ", "lamb lamb lamb", "wool  wool scarf"]),
    st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("concept"), TEXTS),
        st.tuples(st.just("item"), TEXTS),
        st.tuples(st.just("publish")),
        st.tuples(st.just("save")),
    ),
    max_size=8,
)


@settings(deadline=None)
@given(ops=OPS)
def test_index_lifecycles_equal_a_fresh_fit_over_flatten(
    built_tiny, trained_reranker, ops
):
    """After every step, the service's and the cluster's index ids and
    ``search`` answers equal a fresh single service's over ``flatten()``.
    A save + warm start at generation 0 would serve a frozen store, so a
    ``save`` before the first publish is skipped."""
    systems = {
        kind: _system(kind, GenerationalStore(built_tiny.store), trained_reranker)
        for kind in ("service", "cluster")
    }
    queries = [spec.text for spec in built_tiny.concepts[:3]]
    try:
        with tempfile.TemporaryDirectory() as directory:
            for step, (op, *args) in enumerate(ops):
                for kind, system in list(systems.items()):
                    if op == "concept":
                        _source(system).create_ecommerce(*args)
                    elif op == "item":
                        _source(system).create_item(*args)
                    elif op == "publish":
                        system.publish()
                    elif system.generation_id > 0:
                        path = Path(directory) / f"{kind}-{step}.snapshot"
                        system.save_snapshot(path)
                        if isinstance(system, AliCoCoCluster):
                            system.close()
                        system = systems[kind] = _warm(kind, path, trained_reranker)
                if op == "concept":
                    queries.append(args[0])
                for system in systems.values():
                    _assert_flatten_parity(system, trained_reranker, queries)
    finally:
        systems["cluster"].close()
