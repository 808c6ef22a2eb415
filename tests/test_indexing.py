"""Tests for the candidate-indexing layer: indexed build parity,
inverted-index completeness, BM25 retrieval, and stage timing."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.config import TINY
from repro.errors import DataError, NotFittedError
from repro.matching.bm25 import BM25Index
from repro.matching.retrieval import CandidateGenerator
from repro.pipeline.build import build_alicoco
from repro.synth.index import (ConceptCandidateIndex, ItemKeyIndex,
                               PartSignatureIndex)
from repro.synth.items import item_matches_concept
from repro.synth.world import ConceptPart, ConceptSpec
from repro.utils.timing import StageTimer
from tests.conftest import oracle_build


def _store_snapshot(result):
    nodes = sorted((n.id, type(n).__name__) for n in result.store.nodes())
    relations = list(result.store.relations())
    return nodes, relations


@pytest.mark.parametrize("n_items", [60, 180])
def test_indexed_build_parity(n_items):
    """The indexed build must produce a store *identical* to brute force —
    same nodes, same relation sequence, same RNG-drawn weights."""
    scale = replace(TINY, n_items=n_items)
    indexed = build_alicoco(scale)
    brute = oracle_build(scale)
    indexed_nodes, indexed_relations = _store_snapshot(indexed)
    brute_nodes, brute_relations = _store_snapshot(brute)
    assert indexed_nodes == brute_nodes
    # Relation is a frozen dataclass: equality covers kind, endpoints,
    # weight and name.  Comparing the *sequences* also pins insertion
    # order, i.e. the indexed path consumed the weight RNG identically.
    assert indexed_relations == brute_relations
    assert indexed.store.stats() == brute.store.stats()


def test_item_layer_weights_are_one_scalar_draw_per_match(built_tiny):
    """The item layer draws each item's matched weights as one array;
    the edges and weights must be those of the scalar draw per matched
    (item, concept) pair in catalog x concept order that it replaced,
    which lives on here only as the oracle."""
    from repro.kg.relations import RelationKind
    from repro.utils.rng import spawn_rng

    built = built_tiny
    rng = spawn_rng(TINY.seed, "build")
    # Replay the build's only other use of its RNG, so the oracle draws
    # from where the item layer started.
    assert built.world.sample_good_concepts(
        rng, len(built.concepts)) == built.concepts
    expected = []
    for item in built.corpus.items:
        for spec in built.concepts:
            if item_matches_concept(built.world, item, spec):
                weight = float(np.clip(rng.normal(0.8, 0.1), 0.05, 1.0))
                expected.append((built.item_ids[item.index],
                                 built.concept_ids[spec.text], weight))
    assert [(r.source, r.target, r.weight) for r in
            built.store.relations(RelationKind.ITEM_ECOMMERCE)] == expected


def test_candidate_index_is_complete(rng):
    """Every concept that matches an item must be in its candidate set
    (retrieval may over-propose, never under-propose)."""
    from repro.synth.lexicon import build_lexicon
    from repro.synth.world import World
    from repro.synth.items import generate_items

    lexicon = build_lexicon(seed=11)
    world = World(lexicon, seed=11)
    concepts = world.sample_good_concepts(rng, 80)
    items = generate_items(world, 150)
    index = ConceptCandidateIndex(concepts)
    for item in items:
        candidates = index.candidates(item)
        candidate_texts = [spec.text for spec in candidates]
        matching = [spec.text for spec in concepts
                    if item_matches_concept(world, item, spec)]
        assert set(matching) <= set(candidate_texts)
        # Candidate order preserves original concept order (RNG parity).
        positions = [next(i for i, c in enumerate(concepts) if c.text == t)
                     for t in candidate_texts]
        assert positions == sorted(positions)


def test_candidate_index_prunes(rng):
    """The index must actually narrow the pool, not degenerate to a scan."""
    from repro.synth.lexicon import build_lexicon
    from repro.synth.world import World
    from repro.synth.items import generate_items

    lexicon = build_lexicon(seed=3)
    world = World(lexicon, seed=3)
    concepts = world.sample_good_concepts(rng, 60)
    items = generate_items(world, 100)
    index = ConceptCandidateIndex(concepts)
    average = sum(len(index.candidates(item)) for item in items) / len(items)
    assert average < len(concepts) / 2


@pytest.mark.parametrize("id_every", [1, 7])
def test_item_key_index_verified_equals_catalog_scan(built_tiny, id_every):
    """Indexed candidates, verified, are exactly the items a scan of the
    whole catalog matches, in catalog order — for every concept of a
    build, a keyless "gifts"-only concept and concepts that are not good.
    With ``id_every=7`` only every seventh item has a node id; the others
    are skipped, as the scan skips them."""
    world, items = built_tiny.world, built_tiny.corpus.items
    item_ids = {index: item_id
                for index, item_id in built_tiny.item_ids.items()
                if index % id_every == 0}
    gifts = ConceptSpec("gifts", (ConceptPart("gifts", "Category"),),
                        pattern="test", good=True)
    specs = list(built_tiny.concepts) + [gifts] + [
        replace(spec, good=False) for spec in built_tiny.concepts[:5]]
    index = ItemKeyIndex(items, item_ids)
    for spec in specs:
        scan = [(item.index, item_ids[item.index]) for item in items
                if item.index in item_ids
                and item_matches_concept(world, item, spec)]
        indexed = [(item.index, item_id)
                   for item, item_id in index.candidates(spec)
                   if item_matches_concept(world, item, spec)]
        assert indexed == scan, spec.text
    # The "gifts"-only concept has no key: every item is a candidate and
    # every item matches.  Keyed concepts narrow the catalog.
    assert len(index.candidates(gifts)) == len(item_ids)
    keyed = [spec for spec in built_tiny.concepts
             if len(index.candidates(spec)) < len(item_ids)]
    assert len(keyed) > len(built_tiny.concepts) / 2


def test_part_signature_index_matches_double_loop(rng):
    """Subset lookups must find exactly the strict-superset pairs the
    brute-force double loop finds."""
    from repro.synth.lexicon import build_lexicon
    from repro.synth.world import World

    lexicon = build_lexicon(seed=5)
    world = World(lexicon, seed=5)
    concepts = world.sample_good_concepts(rng, 70)
    index = PartSignatureIndex(concepts)
    signatures = {spec.text: frozenset((p.surface, p.domain)
                                       for p in spec.parts)
                  for spec in concepts}
    texts = list(signatures)
    expected = {(narrow, broad)
                for narrow in texts for broad in texts
                if narrow != broad and signatures[broad]
                and signatures[broad] < signatures[narrow]}
    found = {(spec.text, broad)
             for spec in concepts
             for broad in index.broader_than(spec.text)}
    assert found == expected


class TestBM25Index:
    @staticmethod
    def _reference_scores(documents, query):
        """Naive exhaustive BM25 with the same formula (k1=1.5, b=0.75)."""
        k1, b = 1.5, 0.75
        n_docs = len(documents)
        df = {}
        for tokens in documents.values():
            for term in set(tokens):
                df[term] = df.get(term, 0) + 1
        average = sum(len(t) for t in documents.values()) / n_docs
        idf = {term: math.log(1.0 + (n_docs - f + 0.5) / (f + 0.5))
               for term, f in df.items()}
        scores = {}
        for doc_id, tokens in documents.items():
            norm = k1 * (1.0 - b + b * len(tokens) / max(average, 1e-9))
            score = 0.0
            for term in query:
                tf = tokens.count(term)
                if tf:
                    score += idf[term] * tf * (k1 + 1.0) / (tf + norm)
            scores[doc_id] = score
        return scores

    @pytest.fixture
    def documents(self, rng):
        vocabulary = [f"w{i}" for i in range(30)]
        return {f"d{i}": [vocabulary[int(j)]
                          for j in rng.integers(0, 30, size=int(length))]
                for i, length in enumerate(rng.integers(3, 12, size=40))}

    def test_top_k_agrees_with_exhaustive_ranking(self, documents, rng):
        index = BM25Index().fit(documents)
        for _ in range(25):
            query = [f"w{int(i)}" for i in rng.integers(0, 35, size=3)]
            reference = self._reference_scores(documents, query)
            positive = sorted(
                ((doc_id, s) for doc_id, s in reference.items() if s > 0),
                key=lambda kv: (-kv[1], list(documents).index(kv[0])))
            for k in (1, 5, len(documents)):
                got = index.top_k(query, k)
                want = positive[:k]
                assert [d for d, _ in got] == [d for d, _ in want]
                np.testing.assert_allclose([s for _, s in got],
                                           [s for _, s in want])

    def test_scores_skips_zero_docs(self, documents):
        index = BM25Index().fit(documents)
        scores = index.scores(["w0"])
        assert all(score > 0 for score in scores.values())
        assert set(scores) == {doc_id for doc_id, tokens in documents.items()
                               if "w0" in tokens}

    def test_score_single_document(self, documents):
        index = BM25Index().fit(documents)
        reference = self._reference_scores(documents, ["w1", "w2"])
        for doc_id in documents:
            assert index.score(["w1", "w2"], doc_id) == \
                pytest.approx(reference[doc_id])

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            BM25Index().top_k(["a"])
        with pytest.raises(NotFittedError):
            BM25Index().scores(["a"])

    def test_empty_corpus_raises(self):
        with pytest.raises(DataError):
            BM25Index().fit({})

    def test_len(self, documents):
        assert len(BM25Index().fit(documents)) == len(documents)

    def test_extended_equals_refit_and_leaves_the_old_index(self, documents):
        ids = list(documents)
        head = {doc_id: documents[doc_id] for doc_id in ids[:25]}
        tail = {doc_id: documents[doc_id] for doc_id in ids[25:]}
        old = BM25Index().fit(head)
        before = json.dumps(old.to_state())
        grown = old.extended(tail)
        # Serialised byte for byte: postings, norms, idf, key order.
        assert json.dumps(grown.to_state()) == \
            json.dumps(BM25Index().fit(documents).to_state())
        assert json.dumps(old.to_state()) == before
        assert grown.doc_ids == tuple(ids)
        assert old.doc_ids == tuple(ids[:25])
        assert old.extended({}) is old
        with pytest.raises(DataError):
            old.extended({ids[0]: ["w1"]})
        with pytest.raises(NotFittedError):
            BM25Index().extended(tail)


class TestBM25MatcherCache:
    def test_score_unchanged_by_caching(self, rng):
        """The cached matcher must score exactly like a fresh Counter."""
        from repro.matching.bm25 import BM25Matcher
        from repro.matching.dataset import MatchingExample
        from repro.synth.lexicon import build_lexicon
        from repro.synth.world import World
        from repro.synth.items import generate_items

        lexicon = build_lexicon(seed=2)
        world = World(lexicon, seed=2)
        concepts = world.sample_good_concepts(rng, 10)
        items = generate_items(world, 30)
        examples = [MatchingExample(concepts[i % len(concepts)], item, 1)
                    for i, item in enumerate(items)]
        matcher = BM25Matcher().fit(examples)
        assert matcher._doc_cache  # counts precomputed at fit time
        first = matcher.score_pairs(examples)
        second = matcher.score_pairs(examples)  # served from cache
        np.testing.assert_array_equal(first, second)
        # Unseen title: cache miss path must agree with the cached path.
        unseen = matcher.score(("dress",), ("red", "dress", "dress"))
        again = matcher.score(("dress",), ("red", "dress", "dress"))
        assert unseen == again > 0


def test_candidate_generator_recall(rng):
    """Retrieval sanity: an item's own title retrieves it near the top,
    and candidate recall is well-defined and monotone in k.  (No absolute
    recall floor — drift concepts like "barbecue essentials" legitimately
    share zero tokens with the items they need; that gap is the point of
    the paper's deep matcher.)"""
    from repro.matching.dataset import build_matching_dataset
    from repro.matching.retrieval import retrieval_recall
    from repro.synth.clicklog import simulate_clicks
    from repro.synth.lexicon import build_lexicon
    from repro.synth.world import World
    from repro.synth.items import generate_items

    lexicon = build_lexicon(seed=9)
    world = World(lexicon, seed=9)
    concepts = world.sample_good_concepts(rng, 40)
    items = generate_items(world, 120)
    clicks = simulate_clicks(world, concepts, items, impressions_per_concept=10)
    dataset = build_matching_dataset(world, concepts, items, clicks, rng,
                                     test_concepts=12)
    generator = CandidateGenerator("bm25").fit(items)
    candidates = generator.candidates(("summer",), k=5)
    assert len(candidates) <= 5
    assert all(score > 0 for _, score in candidates)
    for item in items[:20]:
        retrieved = [hit.index for hit, _ in
                     generator.candidates(item.title_tokens, k=5)]
        assert item.index in retrieved, "own title must retrieve the item"
    full = retrieval_recall(generator, dataset, k=len(items))
    loose = retrieval_recall(generator, dataset, k=30)
    assert 0.0 <= loose <= full <= 1.0


class TestStageTimer:
    def test_accumulates_and_counts(self):
        timer = StageTimer()
        for _ in range(3):
            with timer.stage("work"):
                time.sleep(0.001)
        assert timer.calls("work") == 3
        assert timer.seconds("work") >= 0.003
        assert timer.seconds("missing") == 0.0
        assert timer.calls("missing") == 0

    def test_nesting_and_total(self):
        timer = StageTimer()
        with timer.stage("outer"):
            with timer.stage("inner"):
                time.sleep(0.001)
        assert timer.seconds("outer") >= timer.seconds("inner")
        assert set(timer.stages) == {"outer", "inner"}
        assert timer.total() == pytest.approx(
            timer.seconds("outer") + timer.seconds("inner"))

    def test_records_on_exception(self):
        timer = StageTimer()
        with pytest.raises(ValueError):
            with timer.stage("boom"):
                raise ValueError("x")
        assert timer.calls("boom") == 1

    def test_merge(self):
        first, second = StageTimer(), StageTimer()
        with first.stage("a"):
            pass
        with second.stage("a"):
            pass
        with second.stage("b"):
            pass
        first.merge(second)
        assert first.calls("a") == 2
        assert first.calls("b") == 1

    def test_format_table(self):
        timer = StageTimer()
        with timer.stage("stage-x"):
            pass
        table = timer.format_table("build stages")
        assert "build stages" in table and "stage-x" in table


def test_build_records_stage_timings():
    result = build_alicoco(replace(TINY, n_items=40), n_concepts=40)
    for stage in ("world", "corpus", "taxonomy", "primitive-layer",
                  "concept-layer", "concept-isa", "item-nodes",
                  "item-matching"):
        assert result.timings.calls(stage) >= 1, stage


def test_build_adds_each_layer_as_one_batch(monkeypatch):
    """Every item edge reaches the store in one ``add_relations`` batch,
    and the whole build makes fewer calls than it has items: beyond one
    batch per stage, only the taxonomy's and the primitive layer's
    ``create_*`` calls add an edge each."""
    from repro.kg.relations import RelationKind
    from repro.kg.store import AliCoCoStore

    batches = []
    add_relations = AliCoCoStore.add_relations

    def spy(store, relations):
        relations = list(relations)
        batches.append(relations)
        return add_relations(store, relations)

    monkeypatch.setattr(AliCoCoStore, "add_relations", spy)
    scale = replace(TINY, n_items=800)
    built = build_alicoco(scale)
    item_kinds = {RelationKind.ITEM_PRIMITIVE, RelationKind.ITEM_ECOMMERCE}
    item_batches = [
        batch for batch in batches if any(r.kind in item_kinds for r in batch)
    ]
    assert item_batches == [
        [r for r in built.store.relations() if r.kind in item_kinds]
    ]
    assert len(batches) < scale.n_items
