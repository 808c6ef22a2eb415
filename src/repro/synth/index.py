"""Candidate indexes for retrieval-then-verify net construction.

The paper never scores every item against every concept: candidates are
retrieved from inverted indexes first and only those are deep-matched
(Section 6; AliCG makes the same move for serving).  This module provides
the three indexes the build pipeline and the evolution loop need to stay
near-linear:

- :class:`ConceptCandidateIndex` — inverted index from *required part
  surfaces* (category head, event, audience) to :class:`ConceptSpec`s, so
  the item layer only verifies ``item_matches_concept`` on candidates;
- :class:`ItemKeyIndex` — its transpose, from the same keys to catalog
  items, so a concept mined after the build (:mod:`repro.pipeline.evolve`)
  is verified against its key's items instead of the whole catalog;
- :class:`PartSignatureIndex` — postings from part to concepts, replacing
  the O(n²) concept-isA double loop with subset lookups.

All three are exact accelerations: every match the brute-force scan would
accept is guaranteed to be in the candidate set (see the per-class
docstrings for the argument), and candidates come back in scan order, so
output is bit-identical.  One key rule (``_key_of`` / ``_item_keys``)
serves both directions.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .items import SynthItem
from .world import ConceptSpec

#: Domains usable as index keys, strongest discriminator first.  A part in
#: one of these domains matches an item only if its surface appears in an
#: enumerable, item-derived key set (see ``_item_keys``).
_KEY_DOMAINS = ("Category", "Event", "Audience")


def _key_of(spec: ConceptSpec) -> tuple[str, str] | None:
    """Pick one required part of ``spec`` as its index key.

    Preference order follows discriminative power: a category narrows
    candidates the most, then event, then audience.  The pseudo-category
    ``"gifts"`` matches *every* item (gift concepts constrain via their
    holiday/audience parts) so it is useless as a key and skipped.
    """
    for domain in _KEY_DOMAINS:
        for part in spec.parts:
            if part.domain != domain:
                continue
            if domain == "Category" and part.surface == "gifts":
                continue
            return (domain, part.surface)
    return None


def _item_keys(item: SynthItem) -> list[tuple[str, str]]:
    """Every index key under which ``item`` can match an indexed concept.

    This mirrors ``_part_matches`` exactly: a Category part matches via
    ``item.category`` or ``item.head``; an Event part via ``item.events``;
    an Audience part via ``item.audiences``.
    """
    keys = [("Category", item.category)]
    if item.head != item.category:
        keys.append(("Category", item.head))
    keys.extend(("Event", event) for event in item.events)
    keys.extend(("Audience", audience) for audience in item.audiences)
    return keys


class ConceptCandidateIndex:
    """Inverted index from required part surfaces to concepts.

    A good concept matches an item only if *all* of its parts match
    (:func:`~repro.synth.items.item_matches_concept`), so any single part
    is a necessary condition and can serve as an index key.  Concepts
    whose parts contain none of the key domains land in a small
    always-candidate bucket.  Candidate lists preserve the original
    concept order, so the verify loop consumes RNG draws in exactly the
    same sequence as a brute-force scan — indexed builds are
    reproducibly identical, not just equivalent.
    """

    def __init__(self, concepts: list[ConceptSpec]):
        self._position: dict[int, int] = {
            id(spec): i for i, spec in enumerate(concepts)
        }
        self._buckets: dict[tuple[str, str], list[ConceptSpec]] = {}
        self._always: list[ConceptSpec] = []
        self.n_indexed = 0
        for spec in concepts:
            if not spec.good or not spec.parts:
                continue  # can never match any item; drop at index time
            key = _key_of(spec)
            if key is None:
                self._always.append(spec)
            else:
                self._buckets.setdefault(key, []).append(spec)
                self.n_indexed += 1

    def candidates(self, item: SynthItem) -> list[ConceptSpec]:
        """Superset of the concepts that can match ``item``, in original
        concept order."""
        seen: set[int] = set()
        found: list[ConceptSpec] = list(self._always)
        seen.update(id(spec) for spec in found)
        for key in _item_keys(item):
            for spec in self._buckets.get(key, ()):
                if id(spec) not in seen:
                    seen.add(id(spec))
                    found.append(spec)
        found.sort(key=lambda spec: self._position[id(spec)])
        return found

    @property
    def n_always(self) -> int:
        """Size of the always-candidate bucket (unindexable concepts)."""
        return len(self._always)

    def stats(self) -> dict[str, int]:
        """Selectivity diagnostics for benchmark reports.

        ``largest_bucket`` bounds the per-item verify cost: an item pulls
        at most its keys' buckets plus the always-candidate set.
        """
        sizes = [len(bucket) for bucket in self._buckets.values()]
        return {
            "buckets": len(self._buckets),
            "indexed_concepts": self.n_indexed,
            "always_candidates": len(self._always),
            "largest_bucket": max(sizes, default=0),
        }


class ItemKeyIndex:
    """Inverted index from item keys to ``(item, item id)`` catalog pairs.

    The transpose of :class:`ConceptCandidateIndex`: that index answers
    "which concepts can match this item", this one "which items can
    match this concept".  A good concept matches an item only if its key
    part does, and ``_item_keys`` enumerates exactly the keys whose part
    an item satisfies — so the key's bucket holds every item the concept
    can match.  A concept without a key (a ``"gifts"``-only category
    with no event or audience) gets the whole catalog.

    Buckets keep catalog order, so a verify loop over the candidates
    meets the matching items in the same sequence as a full scan and
    consumes RNG draws identically.  Items without an id are dropped at
    index time, as a scan would skip them.

    Args:
        items: The catalog, in catalog order.
        item_ids: ``item.index -> node id`` for the items in the net.
    """

    def __init__(self, items: Sequence[SynthItem], item_ids: Mapping[int, str]):
        pairs = ((item, item_ids.get(item.index)) for item in items)
        self._catalog: list[tuple[SynthItem, str]] = [
            (item, item_id) for item, item_id in pairs if item_id is not None
        ]
        self._buckets: dict[tuple[str, str], list[tuple[SynthItem, str]]] = {}
        for pair in self._catalog:
            for key in dict.fromkeys(_item_keys(pair[0])):
                self._buckets.setdefault(key, []).append(pair)

    def candidates(self, spec: ConceptSpec) -> list[tuple[SynthItem, str]]:
        """Superset of the ``(item, item id)`` pairs that can match
        ``spec``, in catalog order.  Do not mutate the returned list."""
        key = _key_of(spec)
        if key is None:
            return self._catalog
        return self._buckets.get(key, [])


class PartSignatureIndex:
    """Part-posting index over concept signatures for isA discovery.

    A concept ``broad`` is a hypernym of ``narrow`` when ``broad``'s part
    signature is a non-empty strict subset of ``narrow``'s.  Every part of
    ``broad`` is then also a part of ``narrow``, so ``broad`` appears in
    the postings of at least one of ``narrow``'s parts — taking the union
    of those postings yields a complete candidate set without comparing
    all concept pairs.
    """

    def __init__(self, concepts: list[ConceptSpec]):
        self._position = {spec.text: i for i, spec in enumerate(concepts)}
        self.signatures: dict[str, frozenset[tuple[str, str]]] = {
            spec.text: frozenset((p.surface, p.domain) for p in spec.parts)
            for spec in concepts
        }
        self._postings: dict[tuple[str, str], list[str]] = {}
        for spec in concepts:
            for part in self.signatures[spec.text]:
                self._postings.setdefault(part, []).append(spec.text)

    def broader_than(self, narrow: str) -> list[str]:
        """Texts of concepts strictly broader than ``narrow`` (signature a
        non-empty strict subset), in original concept order."""
        signature = self.signatures[narrow]
        seen: set[str] = set()
        broader: list[str] = []
        for part in signature:
            for text in self._postings.get(part, ()):
                if text == narrow or text in seen:
                    continue
                seen.add(text)
                other = self.signatures[text]
                if other and other < signature:
                    broader.append(text)
        broader.sort(key=self._position.__getitem__)
        return broader
