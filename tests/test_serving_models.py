"""Model-backed serving: tag/rerank endpoints, bundles, inference guards.

Covers the online half of Sections 5.3 and 6: a service given a trained
:class:`ConceptTagger` and a neural matcher answers ``tag`` and the
``*_reranked`` endpoints; its snapshot carries the trained weights as a
model bundle; a warm-started service reproduces the original's outputs
bit-for-bit; and the inference-mode guards turn misuse (unfitted models,
training a live served module) into typed errors.
"""

import json
import threading

import numpy as np
import pytest

from repro import build_alicoco, TINY
from repro.concepts import ConceptTagger
from repro.errors import ConfigError, DataError, NotFittedError
from repro.matching import DSSMMatcher, train_matcher
from repro.matching.base import matching_vocab
from repro.matching.dataset import pair_from_texts
from repro.kg.relations import RelationKind
from repro.kg.serialize import read_sections, write_sections
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.serving import (
    AliCoCoService,
    RERANKER_KIND,
    RERANKER_MODEL,
    ServiceConfig,
    TAGGER_KIND,
    TAGGER_MODEL,
    TagSpan,
    ensure_inference_mode,
    prepare_serving_module,
    restore_serving_module,
)
from repro.serving.models import dense_query_vector, model_bundle_state, rerank_pool
from repro.serving.service import DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX

N_THREADS = 6


@pytest.fixture(scope="module")
def built():
    return build_alicoco(TINY)


def _make_tagger(built, seed=1):
    sentences = [list(spec.tokens) for spec in built.concepts]
    vocab = Vocab.from_corpus(sentences)
    pos = PosTagger(built.lexicon.pos_lexicon())
    return ConceptTagger(
        vocab,
        built.lexicon,
        pos,
        use_fuzzy=False,
        word_dim=8,
        char_dim=4,
        hidden_dim=6,
        seed=seed,
    )


@pytest.fixture(scope="module")
def tagger(built):
    model = _make_tagger(built)
    model.fit(built.concepts, epochs=3, lr=0.02, seed=1)
    return model


def _training_pairs(built):
    """(concept text, item title) pairs labelled by graph adjacency."""
    pairs = []
    store = built.store
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
    return pairs


def _make_reranker(built, seed=1, hidden=8):
    vocab = matching_vocab(_training_pairs(built))
    return DSSMMatcher(vocab, dim=8, hidden=hidden, seed=seed)


@pytest.fixture(scope="module")
def reranker(built):
    model = _make_reranker(built)
    train_matcher(model, _training_pairs(built), epochs=2, lr=0.05, seed=0)
    return model


@pytest.fixture()
def service(built, tagger, reranker):
    return AliCoCoService.from_build(built, tagger=tagger, reranker=reranker)


def _model_requests(built):
    """A battery over the three model endpoints with valid arguments."""
    requests = []
    for spec in built.concepts[:4]:
        concept_id = built.concept_ids[spec.text]
        requests.append(("tag", spec.text))
        requests.append(("items_for_concept_reranked", concept_id, 5))
        requests.append(("search_reranked", spec.text, 5))
    return requests


class TestTag:
    def test_spans_match_tagger_prediction(self, built, service, tagger):
        spec = built.concepts[0]
        spans = service.tag(spec.text)
        assert isinstance(spans, tuple)
        assert all(isinstance(span, TagSpan) for span in spans)
        labels = tagger.predict(list(spec.tokens))
        from repro.concepts.tagging import iob_spans

        expected = iob_spans(labels)
        assert [(s.start, s.stop, s.domain) for s in spans] == expected
        tokens = spec.text.split()
        for span in spans:
            assert span.surface == " ".join(tokens[span.start : span.stop])

    def test_linked_spans_point_into_primitive_layer(self, built, service):
        linked = []
        for spec in built.concepts[:10]:
            for span in service.tag(spec.text):
                if span.primitive_id is not None:
                    linked.append(span)
        assert linked, "tagger linked no span at all across ten concepts"
        for span in linked:
            node = built.store.get(span.primitive_id)
            assert (node.name, node.domain) == (span.surface, span.domain)

    def test_unknown_surface_yields_unlinked_span(self, built, service):
        spans = service.tag("zzzunknownword " + built.concepts[0].text)
        for span in spans:
            if "zzzunknownword" in span.surface:
                assert span.primitive_id is None

    def test_results_are_cached(self, built, service):
        text = built.concepts[1].text
        first = service.tag(text)
        second = service.tag(text)
        assert first == second
        stats = service.stats().endpoint("tag")
        assert stats.cache_hits >= 1

    def test_empty_text_is_a_data_error(self, service):
        with pytest.raises(DataError):
            service.tag("   ")

    def test_without_tagger_raises_config_error(self, built):
        bare = AliCoCoService.from_build(built)
        with pytest.raises(ConfigError, match="concept-tagger"):
            bare.tag("anything")
        stats = bare.stats().endpoint("tag")
        assert stats.errors == (("ConfigError", 1),)


class TestReranked:
    def test_items_rescored_within_graph_candidates(self, built, service):
        spec = built.concepts[0]
        concept_id = built.concept_ids[spec.text]
        plain = service.items_for_concept(concept_id)
        reranked = service.items_for_concept_reranked(concept_id)
        assert {item_id for item_id, _ in reranked} <= {
            item_id for item_id, _ in plain
        }
        scores = [score for _, score in reranked]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= score <= 1.0 for score in scores)

    def test_top_k_truncates(self, built, service):
        concept_id = built.concept_ids[built.concepts[0].text]
        full = service.items_for_concept_reranked(concept_id)
        if len(full) > 1:
            assert service.items_for_concept_reranked(concept_id, 1) == full[:1]

    def test_pool_bounded_by_rerank_pool_k(self, built, tagger, reranker):
        small = AliCoCoService.from_build(
            built,
            tagger=tagger,
            reranker=reranker,
            config=ServiceConfig(rerank_pool_k=2),
        )
        concept_id = built.concept_ids[built.concepts[0].text]
        assert len(small.items_for_concept_reranked(concept_id)) <= 2
        assert len(small.search_reranked(built.concepts[0].text, 10)) <= 2

    def test_search_rescored_within_bm25_pool(self, built, service):
        text = built.concepts[0].text
        pool = service.search(text, k=service.config.rerank_pool_k)
        reranked = service.search_reranked(text)
        assert {cid for cid, _ in reranked} <= {cid for cid, _ in pool}
        scores = [score for _, score in reranked]
        assert scores == sorted(scores, reverse=True)
        assert len(reranked) <= service.config.search_top_k

    def test_bad_k_rejected(self, built, service):
        concept_id = built.concept_ids[built.concepts[0].text]
        with pytest.raises(ConfigError, match="top_k"):
            service.items_for_concept_reranked(concept_id, 0)
        with pytest.raises(ConfigError, match="k must be positive"):
            service.search_reranked("x", -1)

    def test_without_reranker_raises_config_error(self, built):
        bare = AliCoCoService.from_build(built)
        concept_id = built.concept_ids[built.concepts[0].text]
        with pytest.raises(ConfigError, match="reranker"):
            bare.items_for_concept_reranked(concept_id)
        with pytest.raises(ConfigError, match="reranker"):
            bare.search_reranked("x")

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError, match="rerank_pool_k"):
            ServiceConfig(rerank_pool_k=0)


class TestBatchAndParity:
    def test_model_endpoints_listed_and_batchable(self, built, service):
        for endpoint in ("tag", "items_for_concept_reranked", "search_reranked"):
            assert endpoint in service.endpoints
        assert service.models == (TAGGER_MODEL, RERANKER_MODEL)
        requests = _model_requests(built)
        results = service.batch(requests)
        assert len(results) == len(requests)

    def test_threaded_batch_matches_serial(self, built, service):
        requests = _model_requests(built)
        serial = service.batch(requests)
        parallel = service.batch(requests, workers=4)
        assert parallel == serial

    def test_threaded_hammer_is_deterministic(self, built, service):
        """Concurrent model inference returns exactly the serial answers."""
        requests = _model_requests(built)
        expected = service.batch(requests)
        errors = []
        barrier = threading.Barrier(N_THREADS)

        def hammer():
            try:
                barrier.wait()
                for _ in range(3):
                    assert service.batch(requests) == expected
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = service.stats()
        assert stats.total_errors == 0
        for endpoint in ("tag", "items_for_concept_reranked", "search_reranked"):
            endpoint_stats = stats.endpoint(endpoint)
            observed = endpoint_stats.cache_hits + endpoint_stats.cache_misses
            assert observed == endpoint_stats.calls


class TestSnapshotBundle:
    def test_warm_start_restores_bit_identical_outputs(
        self, built, service, tmp_path
    ):
        path = tmp_path / "net.snapshot.jsonl"
        service.save_snapshot(path)
        restored = AliCoCoService.from_snapshot(
            path,
            tagger=_make_tagger(built, seed=99),
            reranker=_make_reranker(built, seed=99),
        )
        assert restored.models == (TAGGER_MODEL, RERANKER_MODEL)
        for spec in built.concepts[:4]:
            concept_id = built.concept_ids[spec.text]
            assert restored.tag(spec.text) == service.tag(spec.text)
            # Exact float equality: the bundle round-trips float64
            # weights bit-for-bit and inference is deterministic.
            reranked = service.items_for_concept_reranked(concept_id)
            assert restored.items_for_concept_reranked(concept_id) == reranked
            assert restored.search_reranked(spec.text) == service.search_reranked(
                spec.text
            )

    def test_restored_weights_equal_original(self, built, service, tmp_path):
        path = tmp_path / "net.snapshot.jsonl"
        service.save_snapshot(path)
        fresh = _make_reranker(built, seed=123)
        restored = AliCoCoService.from_snapshot(path, reranker=fresh)
        original_state = service._reranker.state_dict()
        for name, array in restored._reranker.state_dict().items():
            np.testing.assert_array_equal(array, original_state[name])

    def test_missing_bundle_is_loud(self, built, tmp_path):
        bare = AliCoCoService.from_build(built)
        path = tmp_path / "bare.snapshot.jsonl"
        bare.save_snapshot(path)
        with pytest.raises(DataError, match="no 'concept-tagger' model bundle"):
            AliCoCoService.from_snapshot(path, tagger=_make_tagger(built))

    def test_unrequested_bundles_are_ignored(self, built, service, tmp_path):
        path = tmp_path / "net.snapshot.jsonl"
        service.save_snapshot(path)
        modelless = AliCoCoService.from_snapshot(path)
        assert modelless.models == ()
        with pytest.raises(ConfigError):
            modelless.tag("anything")

    def test_wrong_architecture_is_rejected(self, built, service, tmp_path):
        path = tmp_path / "net.snapshot.jsonl"
        service.save_snapshot(path)
        wrong = _make_reranker(built, hidden=5)
        with pytest.raises(DataError, match="fingerprint"):
            AliCoCoService.from_snapshot(path, reranker=wrong)

    def test_wrong_kind_is_rejected(self, built, reranker):
        bundle = model_bundle_state(reranker, RERANKER_KIND)
        with pytest.raises(DataError, match="expected 'concept-tagger'"):
            restore_serving_module(
                _make_reranker(built), bundle, TAGGER_KIND, TAGGER_MODEL
            )


class TestInferenceGuards:
    def test_unfitted_model_is_rejected_at_construction(self, built):
        with pytest.raises(NotFittedError):
            AliCoCoService.from_build(built, tagger=_make_tagger(built))
        with pytest.raises(NotFittedError):
            prepare_serving_module(_make_reranker(built), RERANKER_MODEL)

    def test_training_a_live_served_module_is_loud(self, built, service):
        tagger = service._tagger
        tagger.train()
        try:
            with pytest.raises(ConfigError, match="training mode"):
                service.tag("guard check text")
        finally:
            tagger.eval()

    def test_training_a_nested_submodule_is_loud(self, reranker):
        # The guard checks the submodule list flattened at preparation:
        # a layer deep inside a tower still counts.
        prepared = prepare_serving_module(reranker, RERANKER_MODEL)
        layer = prepared.title_tower.layers[0]
        layer.train()
        try:
            with pytest.raises(ConfigError, match="training mode"):
                rerank_pool(prepared, ["red"], [["shoe"]])
            with pytest.raises(ConfigError, match="training mode"):
                dense_query_vector(prepared, ["red"])
        finally:
            layer.eval()
        ensure_inference_mode(prepared, RERANKER_MODEL)

    def test_ensure_inference_mode_accepts_eval(self, reranker):
        prepared = prepare_serving_module(reranker, RERANKER_MODEL)
        ensure_inference_mode(prepared, RERANKER_MODEL)


def _retrieval_battery(built, service):
    """search_reranked + items_for_concept_reranked over a few concepts."""
    answers = []
    for spec in built.concepts[:6]:
        concept_id = built.concept_ids[spec.text]
        answers.append(service.search_reranked(spec.text, 5))
        answers.append(service.items_for_concept_reranked(concept_id, 5))
    return answers


class TestRetrieverModes:
    """The pluggable first stage behind the reranked endpoints."""

    @pytest.mark.parametrize("retriever", ["dense", "hybrid"])
    def test_every_mode_serves_the_reranked_endpoints(self, built, reranker, retriever):
        service = AliCoCoService.from_build(
            built, reranker=reranker, config=ServiceConfig(retriever=retriever)
        )
        for ranked in _retrieval_battery(built, service):
            assert ranked, "a reranked endpoint returned an empty pool"
            for node_id, score in ranked:
                assert service.store.get(node_id) is not None
                assert 0.0 <= score <= 1.0
            scores = [score for _, score in ranked]
            assert scores == sorted(scores, reverse=True)

    def test_hybrid_snapshot_warm_start_is_bit_identical(
        self, tmp_path, built, reranker
    ):
        config = ServiceConfig(retriever="hybrid")
        fresh = AliCoCoService.from_build(
            built, reranker=reranker, config=config
        )
        path = tmp_path / "hybrid.snapshot.jsonl"
        fresh.save_snapshot(path)
        warm = AliCoCoService.from_snapshot(
            path,
            reranker=_make_reranker(built, seed=99),
            config=config,
        )
        assert _retrieval_battery(built, warm) == _retrieval_battery(
            built, fresh
        )
        # The fitted index state itself must survive the round trip —
        # warm start reuses it instead of re-encoding the catalog.
        for name, index in fresh._dense_indexes.items():
            assert warm._dense_indexes[name].to_state() == index.to_state()

    def test_warm_start_refits_when_backend_config_changes(
        self, tmp_path, built, reranker
    ):
        config = ServiceConfig(retriever="dense")
        fresh = AliCoCoService.from_build(built, reranker=reranker, config=config)
        path = tmp_path / "dense.snapshot.jsonl"
        fresh.save_snapshot(path)
        # An older snapshot may hold dense states of another backend
        # (``ivf``): they must not be forced onto the brute-force index —
        # the service refits instead.
        header, sections = read_sections(path)
        for name in (DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX):
            key = f"index:{name}"
            if key in sections:
                state = json.loads(sections[key])
                state["backend"] = "ivf"
                sections[key] = json.dumps(state).encode("utf-8")
        write_sections(path, header, list(sections.items()))
        warm = AliCoCoService.from_snapshot(
            path, reranker=_make_reranker(built, seed=99), config=config
        )
        for name, index in fresh._dense_indexes.items():
            served = warm._dense_indexes[name]
            if index is None:
                assert served is None
            else:
                assert served.backend == "bruteforce"
                assert served.to_state() == index.to_state()
        assert _retrieval_battery(built, warm) == _retrieval_battery(
            built, fresh
        )

    def test_dense_mode_without_vector_capable_matcher_is_loud(self, built):
        with pytest.raises(ConfigError, match="vector-capable"):
            AliCoCoService.from_build(
                built, config=ServiceConfig(retriever="dense")
            )

    def test_config_validation_rejects_bad_knobs(self):
        with pytest.raises(ConfigError, match="retriever"):
            ServiceConfig(retriever="bogus")
        with pytest.raises(ConfigError, match="rrf_k"):
            ServiceConfig(retriever="hybrid", rrf_k=0)
        with pytest.raises(ConfigError, match="weights"):
            ServiceConfig(retriever="hybrid", hybrid_weights=(1.0, 2.0, 3.0))
