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
