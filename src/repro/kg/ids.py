"""Typed node-id allocation.

Every node gets a unique string id with a layer prefix (``cls_``, ``pc_``,
``ec_``, ``item_``).  The paper stresses that several primitive concepts may
share a *name* while having different ids (sense disambiguation); ids here
are therefore allocated per node, never derived from names.
"""

from __future__ import annotations

from typing import Protocol

CLASS_PREFIX = "cls"
PRIMITIVE_PREFIX = "pc"
ECOMMERCE_PREFIX = "ec"
ITEM_PREFIX = "item"

_PREFIXES = (CLASS_PREFIX, PRIMITIVE_PREFIX, ECOMMERCE_PREFIX, ITEM_PREFIX)


class _Nodes(Protocol):
    def __contains__(self, node_id: object) -> bool: ...

    def count_nodes(self, layer: str) -> int: ...


def fresh_id(prefix: str, nodes: _Nodes) -> str:
    """An id of layer ``prefix`` that ``nodes`` (a store or a generation
    view) does not hold: the first free one from the layer's node count.

    A net grown by ``create_*`` alone numbers each layer 0, 1, 2, ...; a
    net whose nodes came from elsewhere (a snapshot, a flattened view, a
    shard's split) is probed past the ids it holds, so no id is handed
    out twice.

    Raises:
        KeyError: On an unknown prefix.
    """
    n = nodes.count_nodes(prefix)
    while f"{prefix}_{n}" in nodes:
        n += 1
    return f"{prefix}_{n}"


def layer_of(node_id: str) -> str:
    """The layer prefix of a node id.

    Raises:
        ValueError: If the id does not carry a known prefix.
    """
    prefix = node_id.split("_", 1)[0]
    if prefix not in _PREFIXES:
        raise ValueError(f"id {node_id!r} has no known layer prefix")
    return prefix
