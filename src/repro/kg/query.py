"""High-level graph queries over an :class:`AliCoCoStore`.

Every function here touches only the store's *read* API (``get`` /
``targets`` / ``sources`` / ``in_relations`` / ``find_by_name``), so all
of them equally accept a :class:`~repro.kg.generations.GenerationView`
or :class:`~repro.kg.generations.GenerationalStore` — the serving tier
relies on this to answer graph queries against a pinned generation.
The ``AliCoCoStore`` annotations document the canonical shape, not an
isinstance requirement.
"""

from __future__ import annotations

from collections import deque

from ..errors import TaxonomyError
from .ids import PRIMITIVE_PREFIX
from .nodes import ClassNode, ECommerceConcept, Item, PrimitiveConcept
from .relations import RelationKind
from .store import AliCoCoStore


def class_path(store: AliCoCoStore, class_id: str) -> list[ClassNode]:
    """Root-to-leaf taxonomy path of a class (e.g. Category->Clothing->Dress).

    Raises:
        TaxonomyError: On a parent cycle.
    """
    path: list[ClassNode] = []
    seen: set[str] = set()
    current: str | None = class_id
    while current is not None:
        if current in seen:
            raise TaxonomyError(f"cycle in taxonomy at {current!r}")
        seen.add(current)
        node = store.get(current)
        path.append(node)
        current = node.parent_id
    return list(reversed(path))


def hypernyms(store: AliCoCoStore, primitive_id: str,
              transitive: bool = False) -> list[PrimitiveConcept]:
    """Hypernym primitive concepts of a primitive concept.

    Args:
        transitive: If True, walk isA edges to closure (breadth-first,
            duplicates removed).
    """
    direct = store.targets(primitive_id, RelationKind.ISA_PRIMITIVE)
    if not transitive:
        return direct
    closure: list[PrimitiveConcept] = []
    seen = {primitive_id}
    frontier = deque(direct)
    while frontier:
        node = frontier.popleft()
        if node.id in seen:
            continue
        seen.add(node.id)
        closure.append(node)
        frontier.extend(store.targets(node.id, RelationKind.ISA_PRIMITIVE))
    return closure


def hyponyms(store: AliCoCoStore, primitive_id: str) -> list[PrimitiveConcept]:
    """Direct hyponyms (incoming isA edges) of a primitive concept."""
    return store.sources(primitive_id, RelationKind.ISA_PRIMITIVE)


def is_a(store: AliCoCoStore, hyponym_id: str, hypernym_id: str) -> bool:
    """Whether ``hyponym_id`` isA ``hypernym_id`` (transitively)."""
    return any(node.id == hypernym_id
               for node in hypernyms(store, hyponym_id, transitive=True))


def interpretation(store: AliCoCoStore,
                   ecommerce_id: str) -> list[PrimitiveConcept]:
    """Primitive concepts interpreting an e-commerce concept (Section 5.3)."""
    return store.targets(ecommerce_id, RelationKind.INTERPRETED_BY)


def items_for_concept(store: AliCoCoStore, ecommerce_id: str,
                      top_k: int | None = None) -> list[Item]:
    """Items associated with an e-commerce concept, best weight first."""
    relations = store.in_relations(ecommerce_id, RelationKind.ITEM_ECOMMERCE)
    relations.sort(key=lambda r: -r.weight)
    if top_k is not None:
        relations = relations[:top_k]
    return [store.get(r.source) for r in relations]


def concepts_for_item(store: AliCoCoStore, item_id: str) -> list[ECommerceConcept]:
    """E-commerce concepts an item participates in."""
    return store.targets(item_id, RelationKind.ITEM_ECOMMERCE)


def find_primitive_senses(store: AliCoCoStore, name: str) -> list[PrimitiveConcept]:
    """All primitive-concept senses sharing a surface form."""
    return [node for node in store.find_by_name(PRIMITIVE_PREFIX, name)]
