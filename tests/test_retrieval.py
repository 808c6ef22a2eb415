"""The retrieval package: kernels, fusion, state, and wiring.

Pins the contracts the hybrid first stage is built on: the dense index
ranks exactly like an exhaustive argsort, RRF fusion is deterministic and
edge-case safe, a fitted dense index round-trips through JSON state
bit-identically (the snapshot warm-start path), and the candidate
generator gates, dispatches, fuses, and refits correctly.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, DataError, NotFittedError
from repro.matching import (
    BM25Index,
    CandidateGenerator,
    DSSMMatcher,
    train_matcher,
    retrieval_recall,
)
from repro.matching.base import matching_vocab
from repro.matching.dataset import build_matching_dataset
from repro.retrieval import (
    BruteForceDense,
    DENSE_BACKENDS,
    dense_index_from_state,
    rrf_fuse,
)
from repro.retrieval.dense import top_k_positions
from repro.synth.clicklog import simulate_clicks
from repro.synth.items import generate_items
from repro.synth.lexicon import build_lexicon
from repro.synth.world import World


@pytest.fixture(scope="module")
def corpus():
    """Clustered vectors: many near-ties for the top-k selection."""
    rng = np.random.default_rng(7)
    centers = rng.normal(size=(12, 24))
    vectors = (centers[rng.integers(12, size=400)]
               + 0.25 * rng.normal(size=(400, 24)))
    queries = (centers[rng.integers(12, size=25)]
               + 0.25 * rng.normal(size=(25, 24))).astype(np.float32)
    return list(range(400)), vectors, queries


def _ranking(pairs):
    return [doc_id for doc_id, _ in pairs]


def _indexed(candidates):
    return [(item.index, score) for item, score in candidates]


# --------------------------------------------------------------- kernels
class TestDenseKernels:
    def test_bruteforce_matches_exhaustive_argsort(self, corpus):
        ids, vectors, queries = corpus
        index = BruteForceDense().fit(ids, vectors)
        normed = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        for query in queries[:5]:
            unit = query / np.linalg.norm(query)
            scores = (normed @ unit).astype(np.float32)
            expected = np.lexsort((np.arange(len(ids)), -scores))[:10]
            got = _ranking(index.retrieve(query, 10))
            assert got == [ids[position] for position in expected]

    def test_top_k_positions_breaks_ties_by_position(self):
        scores = np.asarray([0.5, 0.9, 0.9, 0.1, 0.9], dtype=np.float32)
        assert top_k_positions(scores, 3).tolist() == [1, 2, 4]
        # Large-n argpartition path must agree with the small-n sort path.
        rng = np.random.default_rng(0)
        big = rng.choice(np.linspace(0, 1, 50), size=2000).astype(np.float32)
        arange = np.arange(2000)
        fast = top_k_positions(big, 40)
        exact = np.lexsort((arange, -big))[:40]
        assert fast.tolist() == exact.tolist()

    def test_fit_validations(self):
        with pytest.raises(DataError):
            BruteForceDense(metric="euclid")
        with pytest.raises(DataError):
            BruteForceDense().fit([1, 2], [np.ones(3)])
        with pytest.raises(DataError):
            BruteForceDense().fit([], [])
        with pytest.raises(NotFittedError):
            BruteForceDense().retrieve(np.ones(4))
        index = BruteForceDense().fit([1], [np.ones(4)])
        with pytest.raises(DataError):
            index.retrieve(np.ones(3))  # dim mismatch

    def test_registry_dispatch(self, corpus):
        assert DENSE_BACKENDS == {"bruteforce": BruteForceDense}
        ids, vectors, _ = corpus
        state = BruteForceDense().fit(ids, vectors).to_state()
        assert isinstance(dense_index_from_state(state), BruteForceDense)
        # States of the approximate backends older snapshots may hold are
        # not rehydrated (the serving tier refits those populations).
        for backend in ("ivf", "hnsw"):
            with pytest.raises(DataError, match="unknown backend"):
                dense_index_from_state({**state, "backend": backend})


# ------------------------------------------------------------------- RRF
class TestRRF:
    def test_formula(self):
        fused = dict(rrf_fuse([[("a", 9.0), ("b", 5.0)], [("b", 0.2)]], k=60))
        assert fused["a"] == pytest.approx(1 / 61)
        assert fused["b"] == pytest.approx(1 / 62 + 1 / 61)

    def test_empty_arm_passes_other_through(self):
        ranked = rrf_fuse([[], [("x", 1.0), ("y", 0.5)]])
        assert _ranking(ranked) == ["x", "y"]
        assert rrf_fuse([[], []]) == []

    def test_duplicate_id_counts_once_at_best_rank(self):
        ranked = dict(rrf_fuse([[("a", 2.0), ("a", 1.0), ("b", 0.5)]], k=60))
        assert ranked["a"] == pytest.approx(1 / 61)
        assert ranked["b"] == pytest.approx(1 / 62)  # rank 2, not 3

    def test_ties_break_by_first_appearance(self):
        # Two docs with identical fused mass: arm order decides.
        ranked = rrf_fuse([[("late", 1.0)], [("early", 1.0)]])
        assert _ranking(ranked) == ["late", "early"]

    def test_weights_scale_arms(self):
        heavy = rrf_fuse([[("d", 1.0)], [("l", 1.0)]], weights=[3.0, 1.0])
        assert _ranking(heavy)[0] == "d"
        with pytest.raises(ConfigError):
            rrf_fuse([[("a", 1.0)]], weights=[1.0, 2.0])
        with pytest.raises(ConfigError):
            rrf_fuse([[("a", 1.0)]], k=0)


# ------------------------------------------------------------------ state
class TestStateRoundTrips:
    @pytest.mark.parametrize("backend", sorted(DENSE_BACKENDS))
    def test_warm_start_is_bit_identical(self, corpus, backend):
        ids, vectors, queries = corpus
        fresh = DENSE_BACKENDS[backend]().fit(ids, vectors)
        # Through actual JSON, as a snapshot would store it.
        state = json.loads(json.dumps(fresh.to_state()))
        warm = dense_index_from_state(state)
        for query in queries:
            assert warm.retrieve(query, 10) == fresh.retrieve(query, 10)

    def test_wrong_backend_tag_rejected(self, corpus):
        ids, vectors, _ = corpus
        state = BruteForceDense().fit(ids, vectors).to_state()
        with pytest.raises(DataError, match="'bm25' index"):
            BruteForceDense.from_state({**state, "backend": "bm25"})
        state["backend"] = "unheard-of"
        with pytest.raises(DataError):
            dense_index_from_state(state)

    @pytest.mark.parametrize("mangle", [
        lambda s: s.pop("matrix"),
        lambda s: s["matrix"].update(data="!!not-base64!!"),
        lambda s: s.update(ids=s["ids"][:-1]),
    ])
    def test_malformed_dense_state_rejected(self, corpus, mangle):
        ids, vectors, _ = corpus
        state = BruteForceDense().fit(ids, vectors).to_state()
        mangle(state)
        with pytest.raises(DataError):
            BruteForceDense.from_state(state)


class TestProjection:
    """``projected(ids)``: a subset index without a refit."""

    @pytest.mark.parametrize("metric", ["cosine", "ip"])
    def test_bruteforce_projection_equals_a_fit_over_the_subset(self, corpus, metric):
        ids, vectors, queries = corpus
        full = BruteForceDense(metric=metric).fit(ids, vectors)
        state = full.to_state()
        keep = [397, 3, 150, 42, 0, 211, 399, 7]  # any order, not fit order
        projection = full.projected(keep)
        refit = BruteForceDense(metric=metric).fit(
            keep, [vectors[doc_id] for doc_id in keep]
        )
        assert projection._ids == refit._ids == keep
        assert projection._matrix.tobytes() == refit._matrix.tobytes()
        assert projection.to_state() == refit.to_state()
        for query in queries:
            assert projection.retrieve(query, 5) == refit.retrieve(query, 5)
        # The source index is untouched.
        assert full.to_state() == state
        assert len(full) == len(ids)

    def test_empty_projection_is_none(self, corpus):
        ids, vectors, _ = corpus
        assert BruteForceDense().fit(ids, vectors).projected([]) is None

    def test_unknown_id_is_refused(self, corpus):
        ids, vectors, _ = corpus
        with pytest.raises(DataError, match="unknown id"):
            BruteForceDense().fit(ids, vectors).projected([1, 10_000])

    def test_unfitted_index_is_refused(self):
        with pytest.raises(NotFittedError):
            BruteForceDense().projected([1])


# ---------------------------------------------------------------- facades
@pytest.fixture(scope="module")
def matching_world():
    rng = np.random.default_rng(9)
    lexicon = build_lexicon(seed=9)
    world = World(lexicon, seed=9)
    concepts = world.sample_good_concepts(rng, 30)
    items = generate_items(world, 90)
    clicks = simulate_clicks(world, concepts, items, impressions_per_concept=8)
    dataset = build_matching_dataset(
        world, concepts, items, clicks, rng, test_concepts=10
    )
    matcher = DSSMMatcher(matching_vocab(dataset.train), dim=8, hidden=8, seed=0)
    train_matcher(matcher, dataset.train, epochs=2, lr=0.05, seed=0)
    return concepts, items, dataset, matcher


class TestCandidateGenerators:
    def test_refit_replaces_catalog_wholesale(self, matching_world):
        """Regression: a smaller refit must not serve items (or postings)
        left over from the previous, larger catalog."""
        concepts, items, _, _ = matching_world
        generator = CandidateGenerator("bm25").fit(items)
        generator.fit(items[:4])
        survivors = {item.index for item in items[:4]}
        for concept in concepts:
            got = {item.index
                   for item, _ in generator.candidates(concept.tokens, 100)}
            assert got <= survivors

    def test_facade_bm25_matches_legacy_generator(self, matching_world):
        """The bm25 mode ranks exactly like the inverted index over the
        catalog's titles."""
        concepts, items, _, _ = matching_world
        index = BM25Index().fit({item.index: item.title_tokens for item in items})
        facade = CandidateGenerator("bm25").fit(items)
        for concept in concepts[:10]:
            expected = index.top_k(concept.tokens, 10)
            got = [(item.index, score)
                   for item, score in facade.candidates(concept.tokens, 10)]
            assert got == expected

    def test_dense_mode_ranks_by_matcher_cosine(self, matching_world):
        """The dense first stage is faithful to the matcher it serves:
        brute-force retrieval over doc vectors orders candidates exactly
        as the matcher's own query/doc cosine does."""
        concepts, items, _, matcher = matching_world
        generator = CandidateGenerator("dense", matcher=matcher).fit(items)
        for concept in concepts[:5]:
            query = matcher.query_vector(concept.tokens)
            query = query / np.linalg.norm(query)
            cosines = []
            for item in items:
                doc = matcher.doc_vector(item.title_tokens)
                cosines.append(
                    (float(query @ (doc / np.linalg.norm(doc))), item.index)
                )
            expected = [index for _, index in
                        sorted(cosines, key=lambda pair: -pair[0])[:5]]
            got = [item.index for item, _ in
                   generator.candidates(concept.tokens, 5)]
            assert got == expected

    def test_recall_is_defined_for_every_mode(self, matching_world):
        _, items, dataset, matcher = matching_world
        for generator in (
            CandidateGenerator("bm25").fit(items),
            CandidateGenerator("dense", matcher=matcher).fit(items),
            CandidateGenerator("hybrid", matcher=matcher).fit(items),
        ):
            recall = retrieval_recall(generator, dataset, k=30)
            assert 0.0 <= recall <= 1.0

    def test_capability_gating(self, matching_world):
        _, items, _, matcher = matching_world
        with pytest.raises(ConfigError):
            CandidateGenerator("ann")
        with pytest.raises(ConfigError):
            CandidateGenerator("dense")  # no matcher
        with pytest.raises(ConfigError):
            CandidateGenerator("hybrid", matcher=object())  # not dense-capable
        with pytest.raises(ConfigError):
            CandidateGenerator("hybrid", matcher=matcher, rrf_k=0)
        with pytest.raises(ConfigError):
            CandidateGenerator("hybrid", matcher=matcher, weights=(1.0,))
        with pytest.raises(DataError):
            CandidateGenerator("bm25").fit([])
        with pytest.raises(NotFittedError):
            CandidateGenerator("dense", matcher=matcher).candidates(("red",), 3)
        generator = CandidateGenerator("dense", matcher=matcher)
        assert len(generator.fit(items).candidates(("red",), 3)) == 3

    def test_hybrid_mode_fuses_the_other_two_modes(self, matching_world):
        """Hybrid candidates are the RRF fusion of the dense-mode and
        bm25-mode candidates at the same depth, dense arm first; a query
        with no lexical hit comes back in dense order."""
        concepts, items, _, matcher = matching_world
        rrf_k, weights = 40, (1.0, 0.5)
        bm25 = CandidateGenerator("bm25").fit(items)
        dense = CandidateGenerator("dense", matcher=matcher).fit(items)
        hybrid = CandidateGenerator(
            "hybrid", matcher=matcher, rrf_k=rrf_k, weights=weights
        ).fit(items)
        titles = {token for item in items for token in item.title_tokens}
        no_hit = ("zzqx-absent-token",)
        assert not titles & set(no_hit)
        queries = [concept.tokens for concept in concepts[:8]] + [no_hit]
        for query in queries:
            for k in (1, 5, 30, len(items) + 5):
                arms = [
                    _indexed(generator.candidates(query, k))
                    for generator in (dense, bm25)
                ]
                expected = rrf_fuse(arms, rrf_k, weights)[:k]
                got = _indexed(hybrid.candidates(query, k))
                assert got == expected
                if query == no_hit:
                    assert arms[1] == []
                    assert _ranking(got) == _ranking(arms[0])

    def test_matcher_vector_capability_flags(self, matching_world):
        _, _, _, matcher = matching_world
        assert matcher.dense_vectors is True
        query = matcher.query_vector(("red", "dress"))
        doc = matcher.doc_vector(("red", "dress"))
        assert query.shape == doc.shape
        # The encoding shortcut must agree with a fresh encode.
        encoding = matcher.encode_doc(("red", "dress"))
        np.testing.assert_array_equal(
            matcher.doc_vector(("red", "dress"), encoding=encoding), doc
        )
