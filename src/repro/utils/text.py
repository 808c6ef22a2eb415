"""Small text helpers shared by the NLP substrate and the generators."""

from __future__ import annotations

import re
from typing import Iterator, Sequence

_WHITESPACE = re.compile(r"\s+")
_NON_WORD = re.compile(r"[^a-z0-9' -]+")


def normalize_text(text: str) -> str:
    """Lowercase, strip punctuation (keeping hyphens/apostrophes), squeeze spaces."""
    text = text.lower()
    text = _NON_WORD.sub(" ", text)
    return _WHITESPACE.sub(" ", text).strip()


def ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield contiguous n-grams of ``tokens`` as tuples."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for i in range(len(tokens) - n + 1):
        yield tuple(tokens[i:i + n])
