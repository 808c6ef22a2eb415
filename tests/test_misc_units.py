"""Gap-filling unit tests: config, rng, ids, search internals, world
helpers, reviews/guides determinism."""

import numpy as np
import pytest

from repro import build_alicoco, TINY
from repro.config import BENCH, get_scale, RunScale, SMALL, TINY as TINY_SCALE
from repro.errors import ConfigError
from repro.kg import AliCoCoStore
from repro.kg.ids import fresh_id, layer_of
from repro.synth import build_lexicon, World
from repro.utils.rng import derive_seed, spawn_rng


class TestConfig:
    def test_presets_lookup(self):
        assert get_scale("tiny") is TINY_SCALE
        assert get_scale("small") is SMALL
        assert get_scale("bench") is BENCH

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_scale("galactic")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            RunScale(name="bad", n_items=0, n_queries=1, n_reviews=1,
                     n_guides=1, embedding_dim=8, hidden_dim=8, epochs=1)

    def test_with_seed_copies(self):
        derived = TINY_SCALE.with_seed(99)
        assert derived.seed == 99
        assert derived.n_items == TINY_SCALE.n_items
        assert TINY_SCALE.seed != 99

    def test_bench_has_larger_open_classes(self):
        assert BENCH.n_brands > TINY_SCALE.n_brands
        assert BENCH.n_ips > TINY_SCALE.n_ips


class TestRng:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")
        assert derive_seed(7, "a", "b") != derive_seed(7, "b", "a")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_spawn_rng_independent_streams(self):
        first = spawn_rng(7, "x").random(4)
        second = spawn_rng(7, "y").random(4)
        assert not np.allclose(first, second)
        again = spawn_rng(7, "x").random(4)
        np.testing.assert_allclose(first, again)


class TestIds:
    def test_allocator_sequential_per_layer(self):
        store = AliCoCoStore()
        root = store.create_class("Root", "Category")
        assert root.id == "cls_0"
        assert store.create_primitive("dress", root.id).id == "pc_0"
        assert store.create_primitive("skirt", root.id).id == "pc_1"
        assert store.create_ecommerce("summer dress").id == "ec_0"

    def test_unknown_prefix(self):
        with pytest.raises(KeyError):
            fresh_id("spaceship", AliCoCoStore())

    def test_layer_of(self):
        assert layer_of("item_42") == "item"
        with pytest.raises(ValueError):
            layer_of("banana_7")


class TestSearchInternals:
    @pytest.fixture(scope="class")
    def built(self):
        return build_alicoco(TINY)

    def test_find_concept_prefers_longest_containment(self, built):
        from repro.apps import SemanticSearchEngine
        engine = SemanticSearchEngine(built.store)
        # Two concepts where one's tokens subsume the other would pick the
        # longer; at minimum exact match wins over containment.
        spec = built.concepts[0]
        assert engine.find_concept(spec.text).text == spec.text

    def test_retrieve_ranks_multi_term_matches_higher(self, built):
        from repro.apps import SemanticSearchEngine
        engine = SemanticSearchEngine(built.store)
        item = built.corpus.items[0]
        tokens = item.title.split()
        if len(tokens) >= 2:
            query = " ".join(tokens[:2])
            results = engine.retrieve_items(query, top_k=5)
            assert results, "title terms must retrieve the item"

    def test_relevance_bounds(self, built):
        from repro.apps import SemanticSearchEngine
        engine = SemanticSearchEngine(built.store)
        node = next(built.store.nodes("item"))
        assert engine.relevance("", node) == 0.0
        score = engine.relevance(node.title, node)
        assert score == 1.0


class TestWorldHelpers:
    @pytest.fixture(scope="class")
    def world(self):
        return World(build_lexicon(seed=7), seed=7)

    def test_functions_for_class(self, world):
        functions = world.functions_for_class("Clothing")
        assert "warm" in functions
        assert "noise-cancelling" not in functions

    def test_audiences_for_class(self, world):
        assert "pets" in world.audiences_for_class("PetGear")
        assert "pets" not in world.audiences_for_class("Clothing")

    def test_two_audience_rule(self, world):
        from repro.synth.world import ConceptPart
        ok, reason = world.compatible((ConceptPart("kids", "Audience"),
                                       ConceptPart("olds", "Audience")))
        assert not ok and reason == "two audiences"

    def test_empty_parts_compatible(self, world):
        ok, reason = world.compatible(())
        assert ok and reason == ""


class TestGeneratorDeterminism:
    def test_reviews_and_guides_reproducible(self):
        from repro.synth.guides import generate_guides
        from repro.synth.items import generate_items
        from repro.synth.reviews import generate_reviews
        world = World(build_lexicon(seed=7), seed=7)
        items = generate_items(world, 50)
        assert generate_reviews(world, items, 30) == \
            generate_reviews(world, items, 30)
        assert generate_guides(world, [], 30) == generate_guides(world, [], 30)

    def test_reviews_empty_items(self):
        from repro.synth.reviews import generate_reviews
        world = World(build_lexicon(seed=7), seed=7)
        assert generate_reviews(world, [], 10) == []

    def test_clicklog_reproducible(self):
        from repro.synth.clicklog import simulate_clicks
        from repro.synth.items import generate_items
        world = World(build_lexicon(seed=7), seed=7)
        items = generate_items(world, 60)
        concepts = world.sample_good_concepts(np.random.default_rng(0), 10)
        first = simulate_clicks(world, concepts, items)
        second = simulate_clicks(world, concepts, items)
        assert first == second
