"""The inference fast path: kernel parity, pool scoring, the doc cache.

Three layers of guarantees, each pinned here:

- the tape-free kernels in ``repro.ml.inference`` are *bit-identical* to
  the autograd ops they mirror;
- every matcher's ``score_pool`` returns the same scores as a per-pair
  ``score_text`` loop (the scalar oracle), fast path or fallback;
- the service's doc-encoding cache is sound under contention
  (``hits + misses == lookups``, identical answers across 8 threads) and
  the fast-path endpoints match the scalar oracle: the same service over
  a copy of the matcher with ``fast_path = False``.
"""

import copy
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import build_alicoco, TINY
from repro.errors import ConfigError, DataError, NotFittedError
from repro.matching import (
    DSSMMatcher,
    KnowledgeMatcher,
    MatchPyramidMatcher,
    RE2Matcher,
    train_matcher,
)
from repro.matching.base import NeuralMatcher, matching_vocab
from repro.matching.dataset import pair_from_texts
from repro.kg.ids import ECOMMERCE_PREFIX
from repro.kg.relations import RelationKind
from repro.ml import MLP, Conv1d, Tensor
from repro.ml.inference import (
    InferenceSession,
    conv1d_same,
    embedding_gather,
    mlp,
    softmax,
    stable_sigmoid,
)
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.serving import AliCoCoService, ServiceConfig

WORDS = [f"w{i}" for i in range(40)] + ["red", "shoe", "cotton", "party", "gift"]


@pytest.fixture(scope="module")
def vocab():
    return Vocab.from_corpus([WORDS])


def _random_pool(rng, size, low=1, high=6):
    return [
        [str(token) for token in rng.choice(WORDS, size=rng.integers(low, high))]
        for _ in range(size)
    ]


def _knowledge_matcher(vocab, use_knowledge, seed=2):
    gloss_tokens = {"red": ["crimson", "w5"], "shoe": ["w7", "w9"]}

    def lookup(token):
        if token in ("red", "shoe", "party"):
            return np.arange(6, dtype=float) * 0.1
        return None

    return KnowledgeMatcher(
        vocab,
        PosTagger(),
        ner_lookup=lambda token: (len(token) * 7) % 5,
        num_ner_labels=5,
        knowledge_lookup=lookup if use_knowledge else None,
        gloss_tokens=gloss_tokens if use_knowledge else None,
        knowledge_dim=6,
        dim=8,
        conv_dim=8,
        pyramid_layers=2,
        seed=seed,
    )


# ---------------------------------------------------------------- kernels
class TestKernels:
    def test_conv1d_same_matches_taped_conv(self, vocab):
        rng = np.random.default_rng(0)
        conv = Conv1d(6, 5, 3, rng)
        x = rng.normal(size=(7, 6))
        taped = conv(Tensor(x[None, :, :]))[0]
        fast = conv1d_same(x, conv.weight.data, conv.bias.data, conv.kernel_size)
        assert_array_equal(fast, taped.data)

    def test_mlp_matches_taped_mlp(self):
        rng = np.random.default_rng(1)
        for activation in ("tanh", "relu", "sigmoid"):
            net = MLP([6, 5, 3], rng, activation=activation)
            x = rng.normal(size=(4, 6))
            layers = [(layer.weight.data, layer.bias.data) for layer in net.layers]
            assert_array_equal(mlp(x, layers, activation), net(Tensor(x)).data)

    def test_softmax_matches_tensor_softmax(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=9) * 30
        assert_array_equal(softmax(x, axis=0), Tensor(x).softmax(axis=0).data)

    def test_embedding_gather_rejects_bad_table(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            embedding_gather(np.zeros((2, 3, 4)), [0])

    def test_session_extracts_live_views(self, vocab):
        model = DSSMMatcher(vocab, dim=8, hidden=8, seed=0)
        session = model.inference_session()
        assert session is model.inference_session()  # memoized
        # In-place weight updates (what optimizers do) stay visible.
        before = session.weight("scale").copy()
        model.scale.data -= 1.0
        assert_array_equal(session.weight("scale"), before - 1.0)

    def test_session_mlp_unknown_name(self, vocab):
        session = InferenceSession(DSSMMatcher(vocab, dim=8, hidden=8, seed=0))
        with pytest.raises(KeyError):
            session.mlp(np.zeros(8), "no_such_mlp")


# ---------------------------------------------------------- stable sigmoid
class _ConstantLogitMatcher(NeuralMatcher):
    """A stub whose logit is fixed, for driving extreme values."""

    def __init__(self, vocab, value):
        super().__init__(vocab, dim=4, seed=0, name="constant")
        self.value = value
        self._fitted = True

    def logit(self, example):
        return Tensor(np.asarray(self.value)).reshape(())


class TestStableSigmoid:
    def test_no_overflow_at_extreme_logits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # RuntimeWarning -> failure
            low = stable_sigmoid(np.array([-800.0]))
            high = stable_sigmoid(np.array([800.0]))
        assert low[0] == 0.0
        assert high[0] == 1.0

    def test_matches_naive_form_in_safe_range(self):
        logits = np.linspace(-30, 30, 13)
        naive = 1.0 / (1.0 + np.exp(-logits))
        # Non-negative logits share the naive branch bit for bit; the
        # negative branch (z/(1+z), the overflow-free rewrite) is equal
        # to within float rounding.
        assert_array_equal(stable_sigmoid(logits[6:]), naive[6:])
        np.testing.assert_allclose(stable_sigmoid(logits), naive, rtol=1e-15)

    def test_score_pairs_regression_at_minus_800(self, vocab):
        # The old score_pairs computed 1/(1+exp(800)): RuntimeWarning,
        # then 1/inf.  The shared helper must stay silent and exact.
        model = _ConstantLogitMatcher(vocab, -800.0)
        pair = pair_from_texts(["red"], ["shoe"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = model.score_pairs([pair, pair])
            text_score = model.score_text(["red"], ["shoe"])
        assert_array_equal(scores, np.zeros(2))
        assert text_score == 0.0

    def test_score_pairs_and_score_text_agree(self, vocab):
        model = DSSMMatcher(vocab, dim=8, hidden=8, seed=3)
        model._fitted = True
        pairs = [
            pair_from_texts(["red", "shoe"], ["w1", "w2", "w3"]),
            pair_from_texts(["party"], ["gift", "w4"]),
        ]
        batch = model.score_pairs(pairs)
        singles = [
            model.score_text(p.concept.tokens, p.item.title_tokens) for p in pairs
        ]
        assert_array_equal(batch, np.asarray(singles))


# ------------------------------------------------------ feature memoization
class _CountingTagger(PosTagger):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def tag_word(self, word):
        self.calls += 1
        return super().tag_word(word)


class TestFeatureMemoization:
    def test_repeat_tokens_tag_once(self, vocab):
        model = _knowledge_matcher(vocab, use_knowledge=False)
        tagger = _CountingTagger()
        model.pos_tagger = tagger
        model._feature_ids(["red", "shoe", "red"])
        assert tagger.calls == 2  # "red" memoized within the first call
        model._feature_ids(["red", "shoe", "w3"])
        assert tagger.calls == 3  # only "w3" is new

    def test_features_output_unchanged_by_memo(self, vocab):
        memo = _knowledge_matcher(vocab, use_knowledge=False)
        fresh = _knowledge_matcher(vocab, use_knowledge=False)
        tokens = ["red", "shoe", "red", "w1"]
        memo._feature_ids(tokens)  # populate the memo, then reuse it
        assert_array_equal(
            memo._features(tokens).data, fresh._features(tokens).data
        )

    def test_cache_is_bounded(self, vocab):
        model = _knowledge_matcher(vocab, use_knowledge=False)
        model._feature_cache_limit = 3
        model._feature_ids([f"w{i}" for i in range(10)])
        assert len(model._feature_id_cache) == 3


# ------------------------------------------------------------- pool parity
def _assert_pool_parity(model, rng, pools=(0, 1, 5, 9, 50)):
    for size in pools:
        query = [str(token) for token in rng.choice(WORDS, size=3)]
        pool = _random_pool(rng, size)
        fast = model.score_pool(query, pool)
        oracle = np.asarray([model.score_text(query, doc) for doc in pool])
        assert fast.shape == (size,)
        assert_array_equal(fast, oracle)
        # "identical ranking": the sort keys the service uses agree.
        assert sorted(range(size), key=lambda i: (-fast[i], i)) == sorted(
            range(size), key=lambda i: (-oracle[i], i)
        )


class TestScorePoolParity:
    def test_dssm(self, vocab):
        model = DSSMMatcher(vocab, dim=8, hidden=8, seed=1)
        model._fitted = True
        _assert_pool_parity(model, np.random.default_rng(10))

    def test_knowledge_without_knowledge(self, vocab):
        model = _knowledge_matcher(vocab, use_knowledge=False)
        model._fitted = True
        _assert_pool_parity(model, np.random.default_rng(11))

    def test_knowledge_with_knowledge(self, vocab):
        model = _knowledge_matcher(vocab, use_knowledge=True)
        model._fitted = True
        _assert_pool_parity(model, np.random.default_rng(12))

    def test_match_pyramid_fallback(self, vocab):
        model = MatchPyramidMatcher(vocab, dim=8, seed=1)
        model._fitted = True
        assert not model.fast_path
        _assert_pool_parity(model, np.random.default_rng(13), pools=(0, 1, 4))

    def test_re2_fallback(self, vocab):
        model = RE2Matcher(vocab, dim=8, hidden=8, seed=1)
        model._fitted = True
        assert not model.fast_path
        _assert_pool_parity(model, np.random.default_rng(14), pools=(0, 1, 4))

    def test_precomputed_doc_encodings_are_equivalent(self, vocab):
        for model in (
            DSSMMatcher(vocab, dim=8, hidden=8, seed=4),
            _knowledge_matcher(vocab, use_knowledge=True, seed=5),
        ):
            model._fitted = True
            rng = np.random.default_rng(15)
            query = ["red", "shoe", "w2"]
            pool = _random_pool(rng, 6)
            encoded = [model.encode_doc(doc) for doc in pool]
            assert_array_equal(
                model.score_pool(query, pool, doc_encodings=encoded),
                model.score_pool(query, pool),
            )
            # Partial encodings (cache misses) fill in transparently.
            partial = [
                encoding if i % 2 == 0 else None
                for i, encoding in enumerate(encoded)
            ]
            assert_array_equal(
                model.score_pool(query, pool, doc_encodings=partial),
                model.score_pool(query, pool),
            )
            # A query state encoded once by the caller scores the same.
            state = model.encode_query(query)
            assert_array_equal(
                model.score_pool(query, pool, query_state=state),
                model.score_pool(query, pool),
            )
            assert_array_equal(
                model.score_pool(query, pool, doc_encodings=encoded, query_state=state),
                model.score_pool(query, pool),
            )

    def test_unfitted_pool_scoring_refused(self, vocab):
        model = DSSMMatcher(vocab, dim=8, hidden=8, seed=0)
        with pytest.raises(NotFittedError):
            model.score_pool(["red"], [["shoe"]])

    def test_empty_doc_in_pool_raises_like_oracle(self, vocab):
        model = DSSMMatcher(vocab, dim=8, hidden=8, seed=0)
        model._fitted = True
        with pytest.raises(DataError):
            model.score_pool(["red"], [["shoe"], []])


# ---------------------------------------------------------------- service
@pytest.fixture(scope="module")
def built():
    return build_alicoco(TINY)


@pytest.fixture(scope="module")
def reranker(built):
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
            pairs.append(
                pair_from_texts(
                    spec.tokens,
                    store.get(item_id).title.split(),
                    label=int(item_id in linked),
                )
            )
    model = DSSMMatcher(vocab=matching_vocab(pairs), dim=8, hidden=8, seed=1)
    train_matcher(model, pairs, epochs=2, lr=0.05, seed=0)
    return model


def _scalar_oracle(matcher):
    """A shallow copy of ``matcher`` with its fast path off: ``score_pool``
    scores pair by pair, and a service keeps no doc cache for it."""
    oracle = copy.copy(matcher)
    oracle.fast_path = False
    return oracle


def _concept_ids(built, count=8):
    return [node.id for node in built.store.nodes(ECOMMERCE_PREFIX)][:count]


def _queries(built, count=6):
    return [" ".join(spec.tokens) for spec in built.concepts[:count]]


class TestServiceFastPath:
    def test_endpoints_match_scalar_oracle(self, built, reranker):
        fast = AliCoCoService.from_build(built, reranker=reranker)
        oracle = AliCoCoService.from_build(built, reranker=_scalar_oracle(reranker))
        for concept_id in _concept_ids(built):
            a = fast.items_for_concept_reranked(concept_id)
            b = oracle.items_for_concept_reranked(concept_id)
            assert [item for item, _ in a] == [item for item, _ in b]
            for (_, fast_score), (_, oracle_score) in zip(a, b):
                assert abs(fast_score - oracle_score) <= 1e-9
        for text in _queries(built):
            a = fast.search_reranked(text)
            b = oracle.search_reranked(text)
            assert [concept for concept, _ in a] == [concept for concept, _ in b]
            for (_, fast_score), (_, oracle_score) in zip(a, b):
                assert abs(fast_score - oracle_score) <= 1e-9

    def test_warm_doc_cache_serves_identical_results(self, built, reranker):
        lazy = AliCoCoService.from_build(built, reranker=reranker)
        warm = AliCoCoService.from_build(built, reranker=reranker)
        warmed = warm.warm_doc_cache()
        assert warmed > 0
        assert warm.warm_doc_cache() == 0  # idempotent: already encoded
        for concept_id in _concept_ids(built, 4):
            assert lazy.items_for_concept_reranked(
                concept_id
            ) == warm.items_for_concept_reranked(concept_id)
        stats = warm.stats()
        assert stats.doc_cache_entries == warmed
        # Every post-warm lookup was a hit.
        assert stats.doc_cache_misses == 0
        assert stats.doc_cache_hits > 0

    def test_prewarm_config_flag(self, built, reranker):
        service = AliCoCoService.from_build(
            built, reranker=reranker, config=ServiceConfig(prewarm_doc_cache=True)
        )
        assert service.stats().doc_cache_entries > 0

    def test_oracle_service_has_no_doc_cache(self, built, reranker):
        oracle = AliCoCoService.from_build(built, reranker=_scalar_oracle(reranker))
        for concept_id in _concept_ids(built, 3):
            oracle.items_for_concept_reranked(concept_id)
        stats = oracle.stats()
        assert stats.doc_cache_capacity == 0
        assert stats.doc_cache_hits == stats.doc_cache_misses == 0
        assert oracle.warm_doc_cache() == 0

    def test_doc_cache_capacity_zero_still_batches(self, built, reranker):
        uncached = AliCoCoService.from_build(
            built, reranker=reranker, config=ServiceConfig(doc_cache_capacity=0)
        )
        baseline = AliCoCoService.from_build(built, reranker=reranker)
        for concept_id in _concept_ids(built, 3):
            assert uncached.items_for_concept_reranked(
                concept_id
            ) == baseline.items_for_concept_reranked(concept_id)
        assert uncached.stats().doc_cache_capacity == 0

    def test_negative_doc_cache_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(doc_cache_capacity=-1)

    def test_doc_cache_line_in_stats_table(self, built, reranker):
        service = AliCoCoService.from_build(built, reranker=reranker)
        service.items_for_concept_reranked(_concept_ids(built, 1)[0])
        assert "doc cache:" in service.stats().format_table()

    def test_doc_cache_consistent_under_contention(self, built, reranker):
        # cache_capacity=0 disables the *result* LRU so every request
        # actually walks the doc-encoding cache; 8 threads then hammer
        # the same queries concurrently, and batched get_many lookups of
        # their own alongside.
        service = AliCoCoService.from_build(
            built, reranker=reranker, config=ServiceConfig(cache_capacity=0)
        )
        cache = service._doc_cache
        concept_ids = _concept_ids(built, 6)
        queries = _queries(built, 4)
        # Each request's doc-cache lookups (one per pool candidate) are
        # fixed by its pool, so the lookup total is known in advance.
        request_lookups = {}

        def counted_lookups(key, call):
            before = cache.lookups
            answer = call()
            request_lookups[key] = cache.lookups - before
            return answer

        expected_items = {
            concept_id: counted_lookups(
                concept_id,
                lambda: service.items_for_concept_reranked(concept_id),
            )
            for concept_id in concept_ids
        }
        expected_search = {
            text: counted_lookups(text, lambda: service.search_reranked(text))
            for text in queries
        }
        probe_keys = [(service._doc_epoch, concept_id) for concept_id in concept_ids]
        probe_keys.append(("absent", "key"))
        lookups_before = cache.counters().lookups

        threads = 8
        rounds = 4
        barrier = threading.Barrier(threads)
        failures: list[str] = []
        thread_lookups: list[int] = []

        def worker(seed):
            barrier.wait()
            rng = np.random.default_rng(seed)
            lookups = 0
            for _ in range(rounds):
                concept_id = concept_ids[rng.integers(len(concept_ids))]
                if service.items_for_concept_reranked(
                    concept_id
                ) != expected_items[concept_id]:
                    failures.append(f"items diverged for {concept_id}")
                text = queries[rng.integers(len(queries))]
                if service.search_reranked(text) != expected_search[text]:
                    failures.append(f"search diverged for {text!r}")
                probed = cache.get_many(probe_keys, None)
                if probed[-1] is not None or len(probed) != len(probe_keys):
                    failures.append("get_many answered an absent key")
                lookups += (
                    request_lookups[concept_id]
                    + request_lookups[text]
                    + len(probe_keys)
                )
            thread_lookups.append(lookups)

        pool = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert not failures
        stats = service.stats()
        doc_lookups = stats.doc_cache_hits + stats.doc_cache_misses
        assert doc_lookups > 0
        assert stats.doc_cache_hits > 0  # the frozen catalog got reused
        # The cache's own invariant, via the service stats cut.
        assert service._doc_cache.lookups == doc_lookups
        # Every key of every get_many counted exactly one hit or miss.
        counters = cache.counters()
        assert counters.hits + counters.misses == lookups_before + sum(thread_lookups)
