"""Tests for hypernym discovery: patterns, dataset, projection, active."""

import zlib

import numpy as np
import pytest

from repro.errors import DataError, NotFittedError
from repro.hypernym import (
    ActiveLearner, HearstMiner, ProjectionModel, build_dataset,
    suffix_rule_pairs,
)
from repro.hypernym.dataset import unlabeled_pool
from repro.synth import build_lexicon


@pytest.fixture(scope="module")
def lexicon():
    return build_lexicon(seed=7)


def toy_embedder(dim=8):
    """Deterministic pseudo-embeddings with head-word structure: compound
    phrases are near their heads, so hypernymy is learnable."""
    cache = {}

    def word_vector(word):
        if word not in cache:
            rng = np.random.default_rng(zlib.crc32(word.encode()))
            cache[word] = rng.normal(size=dim)
        return cache[word]

    def embed(surface):
        words = surface.split()
        head = word_vector(words[-1])
        if len(words) == 1:
            return head
        modifier = np.mean([word_vector(w) for w in words[:-1]], axis=0)
        return 0.75 * head + 0.25 * modifier

    return embed


class TestSuffixRule:
    def test_finds_compound_heads(self):
        pairs = suffix_rule_pairs(["coat", "trench coat", "dress",
                                   "maxi dress", "red thing"])
        assert ("trench coat", "coat") in pairs
        assert ("maxi dress", "dress") in pairs
        assert all(hypo != hyper for hypo, hyper in pairs)

    def test_prefers_longest_suffix(self):
        pairs = suffix_rule_pairs(["coat", "trench coat",
                                   "long trench coat"])
        assert ("long trench coat", "trench coat") in pairs
        assert ("long trench coat", "coat") not in pairs

    def test_lexicon_suffix_recall(self, lexicon):
        surfaces = lexicon.domain_surfaces("Category")
        pairs = set(suffix_rule_pairs(surfaces))
        truth = set(lexicon.hypernym_pairs("Category"))
        suffix_truth = {(a, b) for a, b in truth if a.endswith(b)}
        # The suffix rule recovers every suffix-shaped ground-truth pair,
        # but (by design) cannot find cover-term pairs like coat isA top.
        assert suffix_truth <= pairs
        assert truth - pairs, "cover-term pairs need the learned model"


class TestHearstMiner:
    VOCAB = ["coat", "trench coat", "down coat", "dress", "maxi dress"]

    def test_kind_of_pattern(self):
        miner = HearstMiner(self.VOCAB)
        pairs = miner.mine([["a", "trench", "coat", "is", "a", "kind",
                             "of", "coat"]])
        assert pairs == [("trench coat", "coat")]

    def test_such_as_pattern_with_conjunction(self):
        miner = HearstMiner(self.VOCAB)
        pairs = miner.mine([["coat", "such", "as", "trench", "coat", "and",
                             "down", "coat"]])
        assert ("trench coat", "coat") in pairs
        assert ("down coat", "coat") in pairs

    def test_every_is_a_pattern(self):
        miner = HearstMiner(self.VOCAB)
        pairs = miner.mine([["every", "maxi", "dress", "is", "a", "dress"]])
        assert pairs == [("maxi dress", "dress")]

    def test_out_of_vocab_span_ignored(self):
        miner = HearstMiner(self.VOCAB)
        pairs = miner.mine([["a", "spaceship", "is", "a", "kind", "of",
                             "coat"]])
        assert pairs == []

    def test_mines_from_guide_corpus(self, lexicon):
        from repro.synth import World
        from repro.synth.guides import generate_guides
        world = World(lexicon, seed=7)
        guides = generate_guides(world, [], 300)
        miner = HearstMiner(lexicon.domain_surfaces("Category"))
        pairs = set(miner.mine(guides))
        truth = set(lexicon.hypernym_pairs("Category"))
        assert pairs, "guides should contain Hearst patterns"
        assert pairs <= truth, "every mined pair should be true"


class TestDataset:
    def test_split_and_negatives(self, lexicon):
        rng = np.random.default_rng(0)
        dataset = build_dataset(lexicon, rng, negatives_per_positive=5)
        labels = [y for _, _, y in dataset.train]
        positives = sum(labels)
        negatives = len(labels) - positives
        assert positives > 10
        assert negatives == pytest.approx(5 * positives, rel=0.2)
        assert dataset.test_positives
        assert set(h for _, h in dataset.test_positives) <= \
            set(dataset.candidate_pool)

    def test_no_positive_leak_in_negatives(self, lexicon):
        rng = np.random.default_rng(0)
        dataset = build_dataset(lexicon, rng, negatives_per_positive=5)
        truth = set(lexicon.hypernym_pairs("Category"))
        for hyponym, hypernym, label in dataset.train:
            if label == 0:
                assert (hyponym, hypernym) not in truth

    def test_unknown_domain_raises(self, lexicon):
        with pytest.raises(DataError):
            build_dataset(lexicon, np.random.default_rng(0), domain="Color")

    def test_unlabeled_pool_mix(self, lexicon):
        rng = np.random.default_rng(1)
        pool = unlabeled_pool(lexicon, rng, 300, positive_boost=0.2)
        truth = set(lexicon.hypernym_pairs("Category"))
        positives = sum(1 for pair in pool if pair in truth)
        assert 0 < positives < len(pool)


class TestProjectionModel:
    def test_learns_ranking(self, lexicon):
        rng = np.random.default_rng(0)
        dataset = build_dataset(lexicon, rng, negatives_per_positive=8)
        model = ProjectionModel(toy_embedder(), dim=8, k_layers=3, seed=1)
        model.fit(dataset.train, epochs=15, seed=1)
        metrics = model.evaluate(dataset, max_candidates=60)
        # Far above the random baseline (~1/60).
        assert metrics["map"] > 0.25
        assert 0.0 <= metrics["mrr"] <= 1.0
        assert 0.0 <= metrics["p@1"] <= 1.0

    def test_unfitted_raises(self):
        model = ProjectionModel(toy_embedder(), dim=8)
        with pytest.raises(NotFittedError):
            model.rank_candidates("trench coat", ["coat"])

    def test_empty_training_raises(self):
        model = ProjectionModel(toy_embedder(), dim=8)
        with pytest.raises(DataError):
            model.fit([])

    def test_bad_embedder_shape_raises(self):
        model = ProjectionModel(lambda s: np.zeros(3), dim=8)
        with pytest.raises(DataError):
            model.logits([("a", "b")])

    def test_rank_excludes_self(self, lexicon):
        rng = np.random.default_rng(0)
        dataset = build_dataset(lexicon, rng, negatives_per_positive=4)
        model = ProjectionModel(toy_embedder(), dim=8, seed=1)
        model.fit(dataset.train[:100], epochs=3, seed=1)
        ranked = model.rank_candidates("coat", ["coat", "dress"])
        assert ranked == ["dress"]


class TestActiveLearner:
    def make_learner(self, lexicon, alpha=0.5, k=30):
        rng = np.random.default_rng(0)
        dataset = build_dataset(lexicon, rng, negatives_per_positive=5)
        truth = set(lexicon.hypernym_pairs("Category"))

        def label_fn(a, b):
            return (a, b) in truth

        return ActiveLearner(toy_embedder(), dim=8, label_fn=label_fn,
                             dataset=dataset, k_per_iteration=k,
                             alpha=alpha, patience=2, seed=2, epochs=8,
                             k_layers=3), rng

    def test_unknown_strategy_raises(self, lexicon):
        learner, _ = self.make_learner(lexicon)
        with pytest.raises(DataError):
            learner.run([("a", "b")], "magic")

    def test_empty_pool_raises(self, lexicon):
        learner, _ = self.make_learner(lexicon)
        with pytest.raises(DataError):
            learner.run([], "random")

    def test_runs_and_improves(self, lexicon):
        learner, rng = self.make_learner(lexicon)
        pool = unlabeled_pool(lexicon, rng, 400, positive_boost=0.15)
        result = learner.run(pool, "ucs", max_iterations=3)
        assert result.history
        assert result.labels_used >= 30
        assert result.best_map > 0.0
        # History labels are non-decreasing.
        labels = [n for n, _ in result.history]
        assert labels == sorted(labels)

    def test_labels_to_reach(self, lexicon):
        learner, rng = self.make_learner(lexicon)
        pool = unlabeled_pool(lexicon, rng, 300, positive_boost=0.15)
        result = learner.run(pool, "random", max_iterations=2)
        assert result.labels_to_reach(0.0) == result.history[0][0]
        assert result.labels_to_reach(2.0) is None

    def test_invalid_alpha(self, lexicon):
        rng = np.random.default_rng(0)
        dataset = build_dataset(lexicon, rng)
        with pytest.raises(DataError):
            ActiveLearner(toy_embedder(), 8, lambda a, b: True, dataset,
                          alpha=1.5)
