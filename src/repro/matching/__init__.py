"""Concept-item semantic matching (Section 6, Figure 8, Table 6).

Associates e-commerce concepts with catalog items.  The paper's model is a
knowledge-aware deep semantic matcher; it is evaluated against BM25, DSSM,
MatchPyramid and RE2 — all implemented here on the shared
:class:`MatchingDataset` interface.
"""

from .dataset import MatchingDataset, MatchingExample, build_matching_dataset
from .bm25 import BM25Index, BM25Matcher
from .dssm import DSSMMatcher
from .match_pyramid import MatchPyramidMatcher
from .re2 import RE2Matcher
from .knowledge_model import KnowledgeMatcher
from .retrieval import (
    CandidateGenerator,
    RETRIEVER_MODES,
    require_dense_capable,
    retrieval_recall,
)
from .trainer import evaluate_matcher, train_matcher

__all__ = [
    "MatchingDataset",
    "MatchingExample",
    "build_matching_dataset",
    "BM25Index",
    "BM25Matcher",
    "DSSMMatcher",
    "MatchPyramidMatcher",
    "RE2Matcher",
    "KnowledgeMatcher",
    "CandidateGenerator",
    "RETRIEVER_MODES",
    "require_dense_capable",
    "retrieval_recall",
    "evaluate_matcher",
    "train_matcher",
]
