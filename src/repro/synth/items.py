"""Synthetic item catalog.

Items are the smallest selling unit (paper footnote 3).  Each synthetic
item has ground-truth attributes drawn compatibly from the lexicon, and a
merchant-style keyword-stuffed title.  Two kinds of function attribute are
distinguished on purpose:

- *explicit* functions appear in the title ("waterproof boots");
- *provided* functions are implied by the category via
  :data:`~repro.synth.world.FUNCTION_PROVIDERS` ("blanket" keeps you warm)
  and never appear in the title — the semantic-drift cases the matching
  model of Section 6 must bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..utils.rng import spawn_rng
from .world import (
    AUDIENCE_CLASSES, CATEGORY_SEASON_BAD, ConceptSpec,
    FUNCTION_PROVIDERS, HOLIDAY_GIFTS, PEST_SOLUTIONS, World,
)

_FASHION_CLASSES = frozenset({"Clothing", "Shoes", "Accessory", "Decor",
                              "Bedding"})
_COLORABLE_CLASSES = _FASHION_CLASSES | frozenset({
    "Furniture", "Tableware", "Toys", "BabyCare", "Cookware", "PetGear"})
_SCENE_OF_CLASS = {
    "CampingGear": ("outdoor", "campsite", "mountain"),
    "BarbecueGear": ("outdoor", "garden"),
    "GardenTools": ("garden", "outdoor", "balcony"),
    "FishingGear": ("outdoor", "seaside"),
    "Furniture": ("indoor",),
    "Decor": ("indoor",),
    "SwimGear": ("beach", "seaside"),
}


@dataclass
class SynthItem:
    """One catalog item with ground truth.

    Attributes:
        index: Position in the catalog (stable id surrogate).
        category: Category surface, possibly a compound subtype.
        leaf_class: Taxonomy leaf class of the category.
        head: Head noun of the category (equals ``category`` for heads).
        brand / color / material / style / pattern / quantity: Optional
            attribute surfaces (``None`` when absent).
        functions: Explicit functions (appear in the title).
        provided_functions: Implicit functions from the category.
        seasons: Seasons the item suits.
        audiences: Audiences the item targets.
        events: Events whose kit includes this item's category.
        title: Merchant title text.
    """

    index: int
    category: str
    leaf_class: str
    head: str
    brand: str | None = None
    color: str | None = None
    material: str | None = None
    style: str | None = None
    pattern: str | None = None
    quantity: str | None = None
    functions: tuple[str, ...] = ()
    provided_functions: tuple[str, ...] = ()
    seasons: tuple[str, ...] = ()
    audiences: tuple[str, ...] = ()
    events: tuple[str, ...] = ()
    scenes: tuple[str, ...] = ()
    title: str = ""

    @property
    def title_tokens(self) -> tuple[str, ...]:
        return tuple(self.title.split())

    def primitive_surfaces(self) -> list[tuple[str, str]]:
        """Ground-truth (surface, domain) tags of this item."""
        tags: list[tuple[str, str]] = [(self.category, "Category")]
        for surface, domain in ((self.brand, "Brand"), (self.color, "Color"),
                                (self.material, "Material"),
                                (self.style, "Style"),
                                (self.pattern, "Pattern"),
                                (self.quantity, "Quantity")):
            if surface is not None:
                tags.append((surface, domain))
        tags.extend((f, "Function") for f in self.functions)
        tags.extend((s, "Time") for s in self.seasons)
        tags.extend((a, "Audience") for a in self.audiences)
        return tags


def _maybe(rng: np.random.Generator, probability: float) -> bool:
    return bool(rng.random() < probability)


def _choice(rng: np.random.Generator, options: list[str]) -> str:
    return options[int(rng.integers(len(options)))]


def generate_items(world: World, count: int, seed: int | None = None) -> list[SynthItem]:
    """Generate ``count`` items with attributes consistent with the world.

    Args:
        world: The ground-truth world.
        count: Catalog size.
        seed: Override for the world's master seed.
    """
    lexicon = world.lexicon
    rng = spawn_rng(world.seed if seed is None else seed, "items")
    categories = lexicon.domain_surfaces("Category")
    brands = lexicon.domain_surfaces("Brand")
    colors = lexicon.domain_surfaces("Color")
    materials = lexicon.domain_surfaces("Material")
    styles = [s for s in lexicon.domain_surfaces("Style") if s != "sexy"]
    patterns = lexicon.domain_surfaces("Pattern")
    quantities = lexicon.domain_surfaces("Quantity")
    seasons = ("winter", "summer", "spring", "autumn")

    items: list[SynthItem] = []
    for index in range(count):
        category = _choice(rng, categories)
        leaf = world.category_class(category)
        head = world.category_head(category)
        item = SynthItem(index=index, category=category, leaf_class=leaf,
                         head=head)
        item.brand = _choice(rng, brands) if _maybe(rng, 0.8) else None
        if leaf in _COLORABLE_CLASSES and _maybe(rng, 0.6):
            item.color = _choice(rng, colors)
        if leaf in _FASHION_CLASSES and _maybe(rng, 0.5):
            item.material = _choice(rng, materials)
        if leaf in _FASHION_CLASSES and _maybe(rng, 0.4):
            item.style = _choice(rng, styles)
        if leaf in _FASHION_CLASSES and _maybe(rng, 0.25):
            item.pattern = _choice(rng, patterns)
        if _maybe(rng, 0.3):
            item.quantity = _choice(rng, quantities)

        applicable = world.functions_for_class(leaf)
        explicit: list[str] = []
        if applicable:
            for _ in range(int(rng.integers(0, 3))):
                explicit.append(_choice(rng, applicable))
        item.functions = tuple(dict.fromkeys(explicit))
        item.provided_functions = tuple(
            f for f, providers in FUNCTION_PROVIDERS.items()
            if head in providers or category in providers)

        allowed_seasons = [s for s in seasons
                           if (head, s) not in CATEGORY_SEASON_BAD
                           and (category, s) not in CATEGORY_SEASON_BAD]
        n_seasons = int(rng.integers(1, 3))
        picked = list(rng.choice(allowed_seasons,
                                 size=min(n_seasons, len(allowed_seasons)),
                                 replace=False)) if allowed_seasons else []
        item.seasons = tuple(str(s) for s in picked)

        candidate_audiences = world.audiences_for_class(leaf)
        if candidate_audiences and _maybe(rng, 0.7):
            n_audiences = int(rng.integers(1, 3))
            picked_audiences = rng.choice(
                candidate_audiences,
                size=min(n_audiences, len(candidate_audiences)),
                replace=False)
            item.audiences = tuple(str(a) for a in picked_audiences)

        item.events = tuple(world.events_needing(category))
        item.scenes = _SCENE_OF_CLASS.get(leaf, ())
        item.title = _render_title(rng, item)
        items.append(item)
    return items


def _render_title(rng: np.random.Generator, item: SynthItem) -> str:
    """Keyword-stuffed merchant title in a mostly fixed attribute order."""
    tokens: list[str] = []
    if item.brand:
        tokens.append(item.brand)
    if item.style and _maybe(rng, 0.9):
        tokens.append(item.style)
    for function in item.functions:
        tokens.append(function)
    if item.material and _maybe(rng, 0.9):
        tokens.append(item.material)
    if item.color and _maybe(rng, 0.9):
        tokens.append(item.color)
    if item.pattern and _maybe(rng, 0.8):
        tokens.append(item.pattern)
    tokens.extend(item.category.split())
    if item.audiences and _maybe(rng, 0.6):
        tokens.extend(["for", item.audiences[0]])
    if item.seasons and _maybe(rng, 0.4):
        tokens.append(item.seasons[0])
    if item.events and _maybe(rng, 0.25):
        tokens.append(item.events[int(rng.integers(len(item.events)))])
    if item.quantity and _maybe(rng, 0.9):
        tokens.append(item.quantity)
    return " ".join(tokens)


def item_matches_concept(world: World, item: SynthItem,
                         spec: ConceptSpec) -> bool:
    """Ground-truth relevance of an item to a (good) e-commerce concept.

    Encodes the paper's semantics: an item belongs to a shopping scenario
    when it is *needed or suggested* under it — including semantic-drift
    cases where no concept word appears in the title.  To test many
    items against one concept, build its :func:`concept_matcher` once.
    """
    return concept_matcher(world, spec)(item)


def concept_matcher(world: World,
                    spec: ConceptSpec) -> Callable[[SynthItem], bool]:
    """The item predicate of :func:`item_matches_concept` for one concept.

    What the predicate needs from the spec alone (whether it is good,
    and whether it has an Event or a Category part) is worked out here,
    once, instead of once per item tested.
    """
    parts = spec.parts
    if not spec.good or not parts:
        return _matches_nothing
    has_event = any(p.domain == "Event" for p in parts)
    has_category = any(p.domain == "Category" for p in parts)

    def matches(item: SynthItem) -> bool:
        for part in parts:
            if not _part_matches(world, item, part, has_event, has_category):
                return False
        return True

    return matches


def _matches_nothing(item: SynthItem) -> bool:
    return False


def _part_matches(world: World, item: SynthItem, part, has_event: bool,
                  has_category: bool) -> bool:
    surface, domain = part.surface, part.domain
    if domain == "Category":
        if surface == "gifts":
            # "X gifts for Y" concepts constrain via holiday/audience parts.
            return True
        return item.category == surface or item.head == surface
    if domain == "Event":
        return surface in item.events
    if domain == "Function":
        return surface in item.functions or surface in item.provided_functions
    if domain == "Audience":
        return surface in item.audiences
    if domain == "Time":
        if surface in HOLIDAY_GIFTS:
            return item.head in HOLIDAY_GIFTS[surface] \
                or item.category in HOLIDAY_GIFTS[surface]
        return surface in item.seasons
    if domain == "Style":
        return item.style == surface
    if domain == "Location":
        if has_event and not has_category:
            # Scenario-level location ("outdoor barbecue"): the event's kit
            # qualifies regardless of item-level scene (semantic drift).
            return True
        return surface in item.scenes
    if domain == "Nature":
        return item.head in PEST_SOLUTIONS.get(surface, ()) \
            or item.category in PEST_SOLUTIONS.get(surface, ())
    if domain == "Brand":
        return item.brand == surface
    if domain == "Material":
        return item.material == surface
    if domain == "Color":
        return item.color == surface
    return False


def audience_affinity(item: SynthItem) -> list[str]:
    """Audiences plausibly served by an item (union of class affinity and
    explicit tags) — used by the recommender."""
    from_class = [audience for audience, classes in AUDIENCE_CLASSES.items()
                  if item.leaf_class in classes]
    return list(dict.fromkeys(list(item.audiences) + from_class))
