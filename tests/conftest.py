"""Shared fixtures for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

#: A larger example budget for the snapshot fuzz tests, selected in CI
#: with ``--hypothesis-profile=snapshot-fuzz``; tier-1 runs the default.
settings.register_profile("snapshot-fuzz", max_examples=3000, deadline=None)
#: A larger example budget for the relation batch-path property tests,
#: selected in CI with ``--hypothesis-profile=batch-relations``.
settings.register_profile("batch-relations", max_examples=2000, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, deterministically seeded generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def built_tiny():
    """One TINY build shared by the serving-tier test modules."""
    from repro import TINY, build_alicoco

    return build_alicoco(TINY)


def make_trained_reranker(built, *, seed=1, epochs=2):
    """A small trained DSSM matcher over a build's graph adjacency."""
    from repro.kg.relations import RelationKind
    from repro.matching import DSSMMatcher, train_matcher
    from repro.matching.base import matching_vocab
    from repro.matching.dataset import pair_from_texts

    store = built.store
    pairs = []
    for spec in built.concepts[:8]:
        concept_id = built.concept_ids[spec.text]
        linked = {
            relation.source
            for relation in store.in_relations(
                concept_id, RelationKind.ITEM_ECOMMERCE
            )
        }
        for index in range(6):
            item_id = built.item_ids[index]
            title_tokens = store.get(item_id).title.split()
            pairs.append(
                pair_from_texts(
                    spec.tokens, title_tokens, label=int(item_id in linked)
                )
            )
    model = DSSMMatcher(matching_vocab(pairs), dim=8, hidden=8, seed=seed)
    train_matcher(model, pairs, epochs=epochs, lr=0.05, seed=0)
    return model


@pytest.fixture(scope="session")
def trained_reranker(built_tiny):
    """A trained reranker shared by the cluster/concurrency suites."""
    return make_trained_reranker(built_tiny)


def oracle_owner_shards(relation, n_shards):
    """The shards a relation is placed on, recomputed per relation from
    its endpoints: sorted, duplicate-free (the placement oracle)."""
    from repro.serving.shard import is_partitioned, shard_of

    owners = {
        shard_of(endpoint, n_shards)
        for endpoint in (relation.source, relation.target)
        if is_partitioned(endpoint)
    }
    return tuple(sorted(owners)) if owners else tuple(range(n_shards))


def oracle_census(store, n_shards):
    """Partitioned nodes each shard owns, counted per node with
    ``shard_of`` (ghost replicas are not owned)."""
    from repro.serving.shard import PARTITIONED_LAYERS, shard_of

    counts = [0] * n_shards
    for layer in PARTITIONED_LAYERS:
        for node in store.nodes(layer):
            counts[shard_of(node.id, n_shards)] += 1
    return counts


def oracle_split(store, n_shards):
    """Shard stores by the per-relation placement walk: partitioned nodes
    to their owner, replicated ones everywhere, then every relation to
    each of its :func:`oracle_owner_shards`, missing endpoints added as
    ghost replicas on first use.  ``split_store`` must equal it exactly."""
    from repro.kg.store import AliCoCoStore
    from repro.serving.shard import is_partitioned, shard_of

    shards = [AliCoCoStore() for _ in range(n_shards)]
    for node in store.nodes():
        if is_partitioned(node.id):
            shards[shard_of(node.id, n_shards)].add_node(node)
        else:
            for shard in shards:
                shard.add_node(node)
    for relation in store.relations():
        for home in oracle_owner_shards(relation, n_shards):
            shard = shards[home]
            for endpoint in (relation.source, relation.target):
                if endpoint not in shard:
                    shard.add_node(store.get(endpoint))
            shard.add_relation(relation)
    return shards


def assert_same_store(actual, expected):
    """Node order, relation order, every adjacency list and every name
    lookup of ``actual`` equal ``expected``'s."""
    from repro.kg.ids import (
        CLASS_PREFIX,
        ECOMMERCE_PREFIX,
        ITEM_PREFIX,
        PRIMITIVE_PREFIX,
    )
    from repro.kg.relations import RelationKind

    assert [node.id for node in actual.nodes()] == [
        node.id for node in expected.nodes()
    ]
    assert list(actual.relations()) == list(expected.relations())
    for node in expected.nodes():
        for kind in RelationKind:
            assert actual.out_relations(node.id, kind) == expected.out_relations(
                node.id, kind
            )
            assert actual.in_relations(node.id, kind) == expected.in_relations(
                node.id, kind
            )
    name_field = {
        CLASS_PREFIX: "name",
        PRIMITIVE_PREFIX: "name",
        ECOMMERCE_PREFIX: "text",
        ITEM_PREFIX: "title",
    }
    for layer, field in name_field.items():
        for node in expected.nodes(layer):
            name = getattr(node, field)
            assert [found.id for found in actual.find_by_name(layer, name)] == [
                found.id for found in expected.find_by_name(layer, name)
            ]


class _AllConcepts:
    """A ``ConceptCandidateIndex`` that proposes every concept, in order."""

    def __init__(self, concepts):
        self._concepts = list(concepts)

    def candidates(self, item):
        return self._concepts


class _AllPairs:
    """A ``PartSignatureIndex`` answered by the all-pairs scan: every
    concept whose non-empty part set is a strict subset of ``narrow``'s,
    in concept order."""

    def __init__(self, concepts):
        self._signatures = {
            spec.text: frozenset((part.surface, part.domain) for part in spec.parts)
            for spec in concepts
        }

    def broader_than(self, narrow):
        signatures = self._signatures
        return [
            broad
            for broad, signature in signatures.items()
            if broad != narrow and signature and signature < signatures[narrow]
        ]


def oracle_build(scale, **kwargs):
    """``build_alicoco`` through all-pairs candidates: every item is
    verified against every concept, and every concept pair is compared
    for isA.  The indexed build must equal it exactly."""
    from unittest import mock

    from repro.pipeline import build

    with mock.patch.object(build, "ConceptCandidateIndex", _AllConcepts):
        with mock.patch.object(build, "PartSignatureIndex", _AllPairs):
            return build.build_alicoco(scale, **kwargs)
