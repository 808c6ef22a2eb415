"""Bench — retrieval: the first stage behind retrieval-then-verify.

AliCoCo's deployment story (Section 6) proposes candidates with a cheap
first stage and verifies only those with the deep matcher.  Anything the
first stage misses is lost downstream, so this benchmark gates candidate
recall on the synthetic matching dataset:

- **hybrid lift**: RRF fusion of the exact dense arm and BM25 must not
  lose candidate recall against the BM25-only baseline (fusion is how
  dense recall reaches serving without giving up exact lexical pins);
- **dense carry-through**: fusion must keep at least half the dense
  arm's own recall, not just tie a weak lexical baseline.

The dense arm is exact (brute force), so recall here is the matcher's
embedding quality, not an index approximation.  Smoke mode shrinks the
matching world.
"""

import numpy as np

from repro.matching import (
    CandidateGenerator,
    DSSMMatcher,
    retrieval_recall,
    train_matcher,
)
from repro.matching.base import matching_vocab
from repro.matching.dataset import build_matching_dataset
from repro.synth.clicklog import simulate_clicks
from repro.synth.items import generate_items
from repro.synth.lexicon import build_lexicon
from repro.synth.world import World

from conftest import SMOKE

#: Synthetic matching-world scale.
_N_CONCEPTS = 30 if SMOKE else 60
_N_CATALOG = 90 if SMOKE else 200
_RECALL_K = 30


def test_hybrid_recall_lift(report):
    """RRF fusion must not lose candidate recall against BM25 alone."""
    rng = np.random.default_rng(9)
    lexicon = build_lexicon(seed=9)
    world = World(lexicon, seed=9)
    concepts = world.sample_good_concepts(rng, _N_CONCEPTS)
    items = generate_items(world, _N_CATALOG)
    clicks = simulate_clicks(world, concepts, items, impressions_per_concept=8)
    dataset = build_matching_dataset(
        world, concepts, items, clicks, rng, test_concepts=10
    )
    matcher = DSSMMatcher(matching_vocab(dataset.train), dim=8, hidden=8, seed=0)
    train_matcher(matcher, dataset.train, epochs=2, lr=0.05, seed=0)

    generators = {
        "bm25": CandidateGenerator("bm25").fit(items),
        "dense": CandidateGenerator("dense", matcher=matcher).fit(items),
        "hybrid": CandidateGenerator("hybrid", matcher=matcher).fit(items),
    }
    recalls = {
        name: retrieval_recall(generator, dataset, k=_RECALL_K)
        for name, generator in generators.items()
    }
    assert recalls["hybrid"] >= recalls["bm25"], (
        f"hybrid RRF retrieval_recall should be >= BM25-only, got "
        f"{recalls['hybrid']:.3f} vs {recalls['bm25']:.3f}"
    )
    # Fusion must actually carry the dense arm's recall through, not just
    # tie a weak baseline: much of the click oracle is lexically disjoint
    # from titles (semantic drift), so a large share of the reachable
    # candidate recall lives in the dense arm.
    assert recalls["hybrid"] >= 0.5 * recalls["dense"], (
        f"RRF fusion lost the dense arm's recall: hybrid "
        f"{recalls['hybrid']:.3f} vs dense {recalls['dense']:.3f}"
    )

    lines = [
        f"First-stage candidate recall@{_RECALL_K} on the synthetic "
        f"matching dataset ({_N_CONCEPTS} concepts, {_N_CATALOG} items, "
        f"10 test concepts)",
    ]
    for name, recall in recalls.items():
        lines.append(f"  {name:<12} recall {recall:.3f}")
    lines.append(
        "  Many clicked items share no content words with their concept "
        "(semantic drift, BM25's blind spot); the dense arm recovers "
        "them, and RRF folds both arms' hits into one list without "
        "giving up the lexical pins."
    )
    report("\n".join(lines))
