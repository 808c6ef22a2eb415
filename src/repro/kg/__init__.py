"""The AliCoCo graph store: four node layers plus typed relations.

Layers (Figure 1 of the paper):

- taxonomy classes (:class:`~repro.kg.nodes.ClassNode`),
- primitive concepts (:class:`~repro.kg.nodes.PrimitiveConcept`),
- e-commerce concepts (:class:`~repro.kg.nodes.ECommerceConcept`),
- items (:class:`~repro.kg.nodes.Item`).

A frozen :class:`~repro.kg.store.AliCoCoStore` grows without unfreezing
through :class:`~repro.kg.generations.GenerationalStore`: immutable
copy-on-write delta segments layered over the base, published atomically
as numbered generations (see :mod:`repro.kg.generations`).
"""

from .generations import GenerationalStore, GenerationView, flatten
from .nodes import ClassNode, ECommerceConcept, Item, PrimitiveConcept
from .relations import Relation, RelationKind
from .store import AliCoCoStore
from .stats import StoreStats

__all__ = [
    "ClassNode",
    "PrimitiveConcept",
    "ECommerceConcept",
    "Item",
    "Relation",
    "RelationKind",
    "AliCoCoStore",
    "StoreStats",
    "GenerationalStore",
    "GenerationView",
    "flatten",
]
