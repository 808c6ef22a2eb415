"""Typed relations between AliCoCo nodes.

The endpoint layers of every relation kind are enforced by the store, which
is what the paper means by AliCoCo being "a KG with a type system" (unlike
Probase).  Relations carry an optional weight to support the paper's
future-work item of probabilistic edges.

A :class:`Relation` is a :class:`typing.NamedTuple`: an immutable value
of five fields, about 80 bytes, with no ``__dict__``.  For callers this
means:

- fields are read by name (``relation.weight``) or unpacked
  (``kind, source, target, weight, name = relation``);
- assigning a field raises ``AttributeError``; build a new edge (or use
  ``relation._replace(weight=...)``) instead;
- equality and hashing are those of the field tuple, so a relation
  equals a plain tuple of the same five values, and a set or dict of
  relations orders and hashes exactly as it did when ``Relation`` was a
  frozen dataclass;
- bulk paths that already hold validated fields build edges with
  ``tuple.__new__(Relation, fields)``, skipping the keyword-argument
  constructor (see :mod:`repro.kg.serialize`);
- a field read by name costs about 26 ns on Python 3.11 (a dataclass
  attribute about 15 ns); in the serving read loops that came to under
  0.2 us per call, and the weight-sorted item lists read faster than
  with dataclass edges, which are twice the size.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .ids import CLASS_PREFIX, ECOMMERCE_PREFIX, ITEM_PREFIX, PRIMITIVE_PREFIX


class RelationKind(enum.Enum):
    """Every edge type in the net; values are (source_layer, target_layer,
    discriminator) — the third element only keeps enum members distinct."""

    #: class -> parent class (the taxonomy hierarchy of Section 3)
    SUBCLASS_OF = (CLASS_PREFIX, CLASS_PREFIX, "subclass_of")
    #: primitive concept -> its class
    INSTANCE_OF = (PRIMITIVE_PREFIX, CLASS_PREFIX, "instance_of")
    #: primitive concept -> primitive concept hypernym (Section 4.2)
    ISA_PRIMITIVE = (PRIMITIVE_PREFIX, PRIMITIVE_PREFIX, "isa")
    #: primitive concept -> primitive concept commonsense relation mined
    #: per the paper's future work ("T-shirt suitable_when summer"); the
    #: relation name and probability live on the edge
    RELATED_PRIMITIVE = (PRIMITIVE_PREFIX, PRIMITIVE_PREFIX, "related")
    #: e-commerce concept -> broader e-commerce concept
    ISA_ECOMMERCE = (ECOMMERCE_PREFIX, ECOMMERCE_PREFIX, "isa")
    #: e-commerce concept -> primitive concept interpreting it (Section 5.3)
    INTERPRETED_BY = (ECOMMERCE_PREFIX, PRIMITIVE_PREFIX, "interpreted_by")
    #: item -> primitive concept (property-style association)
    ITEM_PRIMITIVE = (ITEM_PREFIX, PRIMITIVE_PREFIX, "item_primitive")
    #: item -> e-commerce concept (scenario association, Section 6)
    ITEM_ECOMMERCE = (ITEM_PREFIX, ECOMMERCE_PREFIX, "item_ecommerce")
    #: class -> class schema relation such as suitable_when (Section 2)
    SCHEMA = (CLASS_PREFIX, CLASS_PREFIX, "schema")

    # Members are singletons, so identity hashing is exact.  Enum's own
    # __hash__ runs in Python, and every (node id, kind) index key pays
    # it on each store read and write; object.__hash__ is the C slot.
    # Like any salted hash it varies between processes, so code must
    # never iterate a set of kinds (dicts keep insertion order).
    __hash__ = object.__hash__

    #: Layer prefix every source / target of this kind must carry.
    source_layer: str
    target_layer: str


# Plain instance attributes, set once per member: a property over the
# Enum ``value`` descriptor costs two Python-level calls per read, and
# store validation reads both layers of every edge it checks.
for _kind in RelationKind:
    _kind.source_layer, _kind.target_layer = _kind.value[:2]
del _kind


class Relation(NamedTuple):
    """A directed, typed, optionally weighted and named edge.

    Attributes:
        kind: The relation type.
        source: Source node id.
        target: Target node id.
        weight: Confidence/probability in [0, 1].
        name: Optional sub-type, e.g. ``suitable_when`` for SCHEMA edges or
            the semantic role of an INTERPRETED_BY edge.
    """

    kind: RelationKind
    source: str
    target: str
    weight: float = 1.0
    name: str = ""
