"""End-to-end integration: one SMALL-scale build exercised through every
application surface, persistence, and validation — the "day in the life"
of the system a downstream user would adopt."""

import numpy as np
import pytest

from repro import build_alicoco, SMALL
from repro.apps import (
    CognitiveRecommender, ConceptQA, CoverageEvaluator, SemanticSearchEngine,
)
from repro.apps.coverage import alicoco_vocabulary, cpv_vocabulary
from repro.apps.monitoring import CoverageMonitor
from repro.kg.query import items_for_concept
from repro.kg.serialize import load_snapshot, save_snapshot
from repro.kg.validate import validate_store
from repro.synth.queries import generate_queries
from repro.synth.sessions import simulate_sessions


@pytest.fixture(scope="module")
def built():
    return build_alicoco(SMALL)


class TestEndToEnd:
    def test_small_build_is_valid_and_rich(self, built):
        report = validate_store(built.store)
        assert report.ok, report.problems
        stats = built.store.stats()
        assert stats.items == SMALL.n_items
        assert stats.ecommerce_concepts >= 70
        assert stats.linked_item_fraction >= 0.98
        assert stats.avg_ecommerce_per_item > 0

    def test_persistence_survives_full_cycle(self, built, tmp_path):
        path = tmp_path / "net.snapshot"
        save_snapshot(built.store, path)
        loaded = load_snapshot(path).store
        assert validate_store(loaded).ok
        # Applications work on the reloaded store too.
        engine = SemanticSearchEngine(loaded)
        spec = built.concepts[0]
        assert engine.find_concept(spec.text) is not None

    def test_search_to_card_to_items_flow(self, built):
        engine = SemanticSearchEngine(built.store)
        for spec in built.concepts:
            concept_id = built.concept_ids[spec.text]
            if len(items_for_concept(built.store, concept_id)) >= 3:
                result = engine.search(spec.text)
                assert result.concept_card is not None
                card = engine.knowledge_card(concept_id)
                assert card.items
                assert card.interpretation_by_domain
                return
        pytest.fail("no concept with enough items at SMALL scale")

    def test_recommendation_and_qa_share_the_net(self, built):
        rng = np.random.default_rng(0)
        sessions = simulate_sessions(built.store, built.concept_ids, rng,
                                     n_users=5)
        recommender = CognitiveRecommender(built.store)
        cards = recommender.recommend_cards(sessions[0].history, top_k=2)
        assert cards
        qa = ConceptQA(built.store)
        answer = qa.answer(f"what do i need for {cards[0].concept.text}")
        assert answer.answered
        assert answer.concept.text == cards[0].concept.text

    def test_monitoring_over_the_built_vocabulary(self, built):
        vocabulary = alicoco_vocabulary(built.lexicon,
                                        [s.text for s in built.concepts])
        monitor = CoverageMonitor(CoverageEvaluator(vocabulary, "AliCoCo"))
        for day in range(3):
            queries = generate_queries(built.world, built.concepts, 60,
                                       seed=500 + day)
            monitor.observe_day(queries)
        assert monitor.average_coverage() > \
            CoverageEvaluator(cpv_vocabulary(built.lexicon), "CPV").evaluate(
                generate_queries(built.world, built.concepts, 60,
                                 seed=503)).query_coverage

    def test_build_scales_are_consistent(self, built):
        """SMALL strictly extends TINY: same seed, same world rules, more
        of everything."""
        from repro import build_alicoco as build, TINY
        tiny = build(TINY)
        assert tiny.store.stats().items < built.store.stats().items
        assert set(tiny.lexicon.surfaces()) == set(built.lexicon.surfaces())
