"""The in-memory AliCoCo graph store with typed validation and indexes."""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..errors import (
    DuplicateNodeError, FrozenStoreError, GraphError, NodeNotFoundError,
    RelationError,
)
from .ids import (
    CLASS_PREFIX, ECOMMERCE_PREFIX, IdAllocator, ITEM_PREFIX,
    PRIMITIVE_PREFIX, layer_of,
)
from .nodes import ClassNode, ECommerceConcept, Item, Node, PrimitiveConcept
from .relations import Relation, RelationKind
from .stats import StoreStats

if TYPE_CHECKING:
    from .generations import DeltaSegment

_LAYER_TYPES = {
    CLASS_PREFIX: ClassNode,
    PRIMITIVE_PREFIX: PrimitiveConcept,
    ECOMMERCE_PREFIX: ECommerceConcept,
    ITEM_PREFIX: Item,
}

#: Relation kinds whose source counts as a linked item in ``stats()``.
_ITEM_KINDS = (RelationKind.ITEM_PRIMITIVE, RelationKind.ITEM_ECOMMERCE)


class AliCoCoStore:
    """Nodes + relations with per-layer name indexes and adjacency lists.

    All mutation goes through :meth:`add_node` / :meth:`add_relations`
    (:meth:`add_relation` is its one-edge case; the typed ``create_*``
    conveniences also allocate ids), so the indexes can never drift from
    the node table.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        # layer prefix -> that layer's nodes in insertion order
        self._layer_nodes: dict[str, list[Node]] = {
            prefix: [] for prefix in _LAYER_TYPES}
        self._ids = IdAllocator()
        # name index: layer prefix -> name -> list of node ids
        self._by_name: dict[str, dict[str, list[str]]] = {
            prefix: defaultdict(list) for prefix in _LAYER_TYPES}
        # The whole-net relation sequences (``_relations`` and each
        # ``_by_kind`` entry) are chunked: lists of lists, read in order.
        # A store being built appends to its last chunk; a fold shares
        # its base's chunks and adds the delta as one more, so it never
        # copies a whole-net list.
        self._relations: list[list[Relation]] = _chunks()
        self._out: dict[tuple[str, RelationKind], list[Relation]] = defaultdict(list)
        self._in: dict[tuple[str, RelationKind], list[Relation]] = defaultdict(list)
        # Incrementally-maintained statistics; every mutation funnels
        # through add_node/add_relations so these can never drift.
        self._layer_counts: dict[str, int] = {p: 0 for p in _LAYER_TYPES}
        self._kind_counts: dict[RelationKind, int] = defaultdict(int)
        self._by_kind: dict[RelationKind, list[list[Relation]]] = defaultdict(_chunks)
        self._domain_class_ids: dict[str, list[str]] = defaultdict(list)
        self._domain_primitive_ids: dict[str, list[str]] = defaultdict(list)
        self._linked_item_ids: set[str] = set()
        self._frozen = False

    # -------------------------------------------------------------- freezing
    @property
    def frozen(self) -> bool:
        """Whether the store is frozen (read-only)."""
        return self._frozen

    def freeze(self) -> "AliCoCoStore":
        """Make the store read-only; any further mutation raises.

        Serving wraps a store whose query results may be cached — freezing
        guarantees cached answers can never go stale under the cache.
        Freezing is idempotent and irreversible (build a new store to
        mutate again); returns ``self`` for chaining.
        """
        self._frozen = True
        return self

    # -------------------------------------------------------------- mutation
    def add_node(self, node: Node) -> Node:
        """Insert a pre-built node.

        Raises:
            FrozenStoreError: If the store has been frozen for serving.
            DuplicateNodeError: If the id is already present.
            RelationError: If the node type does not match its id prefix.
        """
        if self._frozen:
            raise FrozenStoreError(
                f"cannot add node {node.id!r}: store is frozen for serving")
        if node.id in self._nodes:
            raise DuplicateNodeError(f"node {node.id!r} already exists")
        layer = layer_of(node.id)
        if not isinstance(node, _LAYER_TYPES[layer]):
            raise RelationError(
                f"node {node.id!r} has prefix {layer!r} but type {type(node).__name__}")
        self._index_node(node, layer)
        return node

    def add_nodes_trusted(self, nodes: Iterable[Node]) -> int:
        """Bulk-insert nodes that another store already validated.

        The node half of the bulk build path (see
        :meth:`add_relations_trusted`): :func:`flatten
        <repro.kg.generations.flatten>` and shard splitting copy nodes
        out of a store that checked each one's type against its id
        prefix on insert, and the snapshot loader checks every node's id
        layer, its type against that layer and that no id repeats, on
        the whole node table before it builds anything; so this skips
        the type check.  Duplicate ids are still refused, and the
        garbage collector is paused for the build (:func:`gc_paused`).

        Returns:
            Number of nodes inserted.

        Raises:
            FrozenStoreError: If the store has been frozen for serving.
            DuplicateNodeError: If an id is already present.
        """
        if self._frozen:
            raise FrozenStoreError(
                "cannot bulk-add nodes: store is frozen for serving")
        table, index = self._nodes, self._index_node
        count = 0
        with gc_paused():
            for node in nodes:
                node_id = node.id
                if node_id in table:
                    raise DuplicateNodeError(f"node {node_id!r} already exists")
                index(node, layer_of(node_id))
                count += 1
        return count

    def _index_node(self, node: Node, layer: str) -> None:
        self._nodes[node.id] = node
        self._layer_nodes[layer].append(node)
        self._by_name[layer][self._name_of(node)].append(node.id)
        self._layer_counts[layer] += 1
        if layer == CLASS_PREFIX:
            self._domain_class_ids[node.domain].append(node.id)
        elif layer == PRIMITIVE_PREFIX:
            self._domain_primitive_ids[node.domain].append(node.id)

    @staticmethod
    def _name_of(node: Node) -> str:
        if isinstance(node, (ClassNode, PrimitiveConcept)):
            return node.name
        if isinstance(node, ECommerceConcept):
            return node.text
        return node.title

    def create_class(self, name: str, domain: str,
                     parent_id: str | None = None) -> ClassNode:
        """Allocate an id and insert a taxonomy class."""
        if parent_id is not None:
            self._require(parent_id, CLASS_PREFIX)
        node = ClassNode(self._ids.allocate(CLASS_PREFIX), name, domain, parent_id)
        self.add_node(node)
        if parent_id is not None:
            self.add_relation(Relation(RelationKind.SUBCLASS_OF, node.id, parent_id))
        return node

    def create_primitive(self, name: str, class_id: str) -> PrimitiveConcept:
        """Allocate an id and insert a primitive concept under ``class_id``."""
        class_node = self._require(class_id, CLASS_PREFIX)
        node = PrimitiveConcept(self._ids.allocate(PRIMITIVE_PREFIX), name,
                                class_id, class_node.domain)
        self.add_node(node)
        self.add_relation(Relation(RelationKind.INSTANCE_OF, node.id, class_id))
        return node

    def create_ecommerce(self, text: str, source: str = "mined") -> ECommerceConcept:
        """Allocate an id and insert an e-commerce concept."""
        tokens = tuple(text.split())
        node = ECommerceConcept(self._ids.allocate(ECOMMERCE_PREFIX), text,
                                tokens, source)
        return self.add_node(node)

    def create_item(self, title: str, shop: str = "shop_0",
                    properties: dict[str, str] | None = None) -> Item:
        """Allocate an id and insert an item."""
        node = Item(self._ids.allocate(ITEM_PREFIX), title, shop,
                    dict(properties or {}))
        return self.add_node(node)

    def add_relation(self, relation: Relation) -> Relation:
        """Insert one relation: the one-edge case of :meth:`add_relations`.

        Duplicate (kind, source, target) triples are ignored and the
        existing relation list is left untouched; the *stored* relation is
        returned so callers always hold the edge that is actually in the
        net (the discarded duplicate may carry a different weight/name).

        Raises:
            FrozenStoreError: If the store has been frozen for serving.
            NodeNotFoundError: If either endpoint is missing.
            RelationError: If the endpoint layers do not match the kind.
        """
        return self.add_relations((relation,))[0]

    def add_relations(self, relations: Iterable[Relation]) -> list[Relation]:
        """Insert a batch of relations after validating every endpoint.

        The result is that of :meth:`add_relation` on each edge in order:
        a duplicate of a stored edge, or of an earlier edge of the batch,
        resolves to the stored one, and the returned list holds, per
        input edge, the relation that is actually in the net.  The batch
        is all or nothing: every edge is validated before any is
        inserted, so one that fails leaves the store untouched.

        Raises:
            FrozenStoreError: If the store has been frozen for serving.
            NodeNotFoundError: If an endpoint is missing.
            RelationError: If an endpoint's layer does not match its kind.
        """
        if self._frozen:
            raise FrozenStoreError(
                "cannot add relations: store is frozen for serving")
        require, out = self._require, self._out
        fresh: dict[tuple[RelationKind, str, str], Relation] = {}
        stored = []
        for relation in relations:
            kind, source, target = relation.kind, relation.source, relation.target
            require(source, kind.source_layer)
            require(target, kind.target_layer)
            key = (kind, source, target)
            existing = fresh.get(key)
            if existing is None:
                existing = _edge_to(out.get((source, kind), ()), target)
                if existing is None:
                    existing = fresh[key] = relation
            stored.append(existing)
        ordered, inc = self._relations[-1], self._in
        kind_counts, by_kind = self._kind_counts, self._by_kind
        for key, relation in fresh.items():
            kind, source, target = key
            ordered.append(relation)
            out[(source, kind)].append(relation)
            inc[(target, kind)].append(relation)
            kind_counts[kind] += 1
            by_kind[kind][-1].append(relation)
            if kind in _ITEM_KINDS:
                self._linked_item_ids.add(source)
        return stored

    def add_relations_trusted(self, relations: Iterable[Relation]) -> int:
        """Bulk-insert relations known to be schema-valid and duplicate-free.

        The one bulk build path: the snapshot loader, :func:`flatten
        <repro.kg.generations.flatten>` and shard splitting all replay
        edges that were already validated (the loader checks the whole
        relation table at array speed before it builds).  Re-validating
        endpoint layers and re-checking for duplicates per edge would
        dominate their time, so this path skips both.  Endpoint
        *existence* is still enforced (one dictionary lookup each).  All
        indexes and counters are maintained exactly as
        :meth:`add_relation` would, and the garbage collector is paused
        for the build (:func:`gc_paused`).

        Returns:
            Number of relations inserted.

        Raises:
            FrozenStoreError: If the store has been frozen for serving.
            NodeNotFoundError: If an endpoint is missing.
        """
        if self._frozen:
            raise FrozenStoreError(
                "cannot bulk-add relations: store is frozen for serving")
        nodes = self._nodes
        ordered = self._relations[-1]
        out, inc = self._out, self._in
        kind_counts, by_kind = self._kind_counts, self._by_kind
        linked = self._linked_item_ids
        # kind -> the last chunk of its per-kind sequence, looked up on
        # the first edge of that kind only.
        chunks: dict[RelationKind, list[Relation]] = {}
        before = len(ordered)
        with gc_paused():
            for relation in relations:
                kind, source, target, _, _ = relation
                if source not in nodes:
                    raise NodeNotFoundError(f"node {source!r} does not exist")
                if target not in nodes:
                    raise NodeNotFoundError(f"node {target!r} does not exist")
                ordered.append(relation)
                out[(source, kind)].append(relation)
                inc[(target, kind)].append(relation)
                kind_counts[kind] += 1
                chunk = chunks.get(kind)
                if chunk is None:
                    chunk = chunks[kind] = by_kind[kind][-1]
                chunk.append(relation)
                if kind in _ITEM_KINDS:
                    linked.add(source)
        return len(ordered) - before

    # --------------------------------------------------------------- folding
    def fold(self, segments: Sequence["DeltaSegment"]) -> "AliCoCoStore":
        """A new frozen store: this store's contents, then ``segments``.

        ``segments`` are sealed delta segments in publish order.  The
        result answers every read exactly like replaying this store and
        then each segment into a fresh store (insertion, weight-tie and
        name-collision order included), but costs the delta, not the
        net:

        - dicts are copied shallowly at C speed, which keeps their
          stored hashes; a layer's name index that no segment adds to,
          and the linked-item set when no segment links a new item, are
          shared instead;
        - every keyed list a segment touches (adjacency, name, domain and
          layer lists) gets a *new* list holding the old entries followed
          by the segments';
        - the whole-net relation sequences are chunked, so the result
          shares every chunk of this store and adds the segments'
          relations as one new chunk (per kind, likewise): no whole-net
          list is copied;
        - the cyclic garbage collector is paused for the fold
          (:func:`gc_paused`), so no collection walks the copies half
          built; the first one after the fold walks them once.

        Every untouched list and chunk is shared with this store, so both
        stay read-only: this store must be frozen, and the result is
        returned frozen.

        Raises:
            GraphError: If this store is not frozen.
        """
        if not self._frozen:
            raise GraphError(
                "fold() shares index lists with its base; freeze the base first")
        # Layers no segment adds a node to keep their name index, and the
        # linked-item set is shared unless a segment links a new item.
        layers = {layer for s in segments
                  for layer, count in s.layer_counts.items() if count}
        linked = set().union(*(s.linked_item_ids for s in segments))
        linked -= self._linked_item_ids
        with gc_paused():
            store = AliCoCoStore()
            store._nodes = dict(self._nodes)
            store._layer_nodes = dict(self._layer_nodes)
            store._by_name = {
                layer: defaultdict(list, names) if layer in layers else names
                for layer, names in self._by_name.items()}
            store._out = defaultdict(list, self._out)
            store._in = defaultdict(list, self._in)
            store._layer_counts = dict(self._layer_counts)
            store._kind_counts = defaultdict(int, self._kind_counts)
            store._by_kind = defaultdict(_chunks, self._by_kind)
            store._domain_class_ids = defaultdict(list, self._domain_class_ids)
            store._domain_primitive_ids = defaultdict(
                list, self._domain_primitive_ids)
            store._linked_item_ids = (
                self._linked_item_ids | linked if linked else self._linked_item_ids)
            layer_nodes: dict[str, list[Node]] = defaultdict(list)
            relations: list[Relation] = []
            by_kind: dict[RelationKind, list[Relation]] = defaultdict(list)
            for segment in segments:
                store._nodes.update(segment.nodes)
                for node_id, node in segment.nodes.items():
                    layer_nodes[layer_of(node_id)].append(node)
                relations += segment.relations
                for kind, added in segment.by_kind.items():
                    by_kind[kind] += added
                for layer, count in segment.layer_counts.items():
                    store._layer_counts[layer] += count
                for kind, count in segment.kind_counts.items():
                    store._kind_counts[kind] += count
            if relations:
                store._relations = self._relations + [relations]
            else:
                store._relations = self._relations
            for kind, added in by_kind.items():
                store._by_kind[kind] = self._by_kind.get(kind, []) + [added]
            _grow_lists(store._layer_nodes, [layer_nodes])
            for layer in layers:
                _grow_lists(store._by_name[layer],
                            [s.by_name[layer] for s in segments])
            _grow_lists(store._out, [s.out for s in segments])
            _grow_lists(store._in, [s.inc for s in segments])
            _grow_lists(store._domain_class_ids,
                        [s.domain_class_ids for s in segments])
            _grow_lists(store._domain_primitive_ids,
                        [s.domain_primitive_ids for s in segments])
        return store.freeze()

    def _require(self, node_id: str, expected_layer: str) -> Node:
        node = self._nodes.get(node_id)
        if node is None:
            raise NodeNotFoundError(f"node {node_id!r} does not exist")
        if layer_of(node_id) != expected_layer:
            raise RelationError(
                f"node {node_id!r} is in layer {layer_of(node_id)!r}; "
                f"expected {expected_layer!r}")
        return node

    # ---------------------------------------------------------------- access
    def get(self, node_id: str) -> Node:
        """Node by id.

        Raises:
            NodeNotFoundError: If absent.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise NodeNotFoundError(f"node {node_id!r} does not exist")
        return node

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def find_by_name(self, layer: str, name: str) -> list[Node]:
        """All nodes in ``layer`` whose name/text/title equals ``name``."""
        return [self._nodes[i] for i in self._by_name[layer].get(name, [])]

    def nodes(self, layer: str | None = None) -> Iterator[Node]:
        """Iterate nodes in insertion order, optionally restricted to one
        layer prefix (per-layer lists are maintained incrementally, so
        filtering does not scan)."""
        if layer is None:
            yield from self._nodes.values()
        else:
            yield from self._layer_nodes.get(layer, ())

    def nodes_since(self, count: int, layer: str | None = None) -> Iterator[Node]:
        """The nodes of ``nodes(layer)`` past the first ``count``, in order.

        Equal to ``islice(self.nodes(layer), count, None)``; a layer's
        nodes are a list, so with ``layer`` given this is a slice and
        reading the newest nodes costs them, not the layer.
        """
        if layer is None:
            return islice(self._nodes.values(), count, None)
        return iter(self._layer_nodes.get(layer, [])[count:])

    def relations(self, kind: RelationKind | None = None) -> Iterator[Relation]:
        """Iterate relations, optionally filtered by kind (per-kind lists
        are maintained incrementally, so filtering does not scan)."""
        chunks = self._relations if kind is None else self._by_kind.get(kind, ())
        for chunk in chunks:
            yield from chunk

    def relations_since(self, count: int) -> Iterator[Relation]:
        """The relations of ``relations()`` past the first ``count``, in
        order — ``islice(self.relations(), count, None)`` with whole
        chunks skipped by their lengths."""
        return _skip([(len(chunk), chunk) for chunk in self._relations], count)

    def out_relations(self, node_id: str, kind: RelationKind) -> list[Relation]:
        """Outgoing relations of ``node_id`` with the given kind."""
        return list(self._out.get((node_id, kind), []))

    def in_relations(self, node_id: str, kind: RelationKind) -> list[Relation]:
        """Incoming relations of ``node_id`` with the given kind."""
        return list(self._in.get((node_id, kind), []))

    def targets(self, node_id: str, kind: RelationKind) -> list[Node]:
        """Target nodes of outgoing ``kind`` edges."""
        return [self._nodes[r.target] for r in self._out.get((node_id, kind), [])]

    def sources(self, node_id: str, kind: RelationKind) -> list[Node]:
        """Source nodes of incoming ``kind`` edges."""
        return [self._nodes[r.source] for r in self._in.get((node_id, kind), [])]

    # ------------------------------------------------------------ statistics
    def count_nodes(self, layer: str) -> int:
        """Nodes in a layer — O(1) from the maintained counter."""
        return self._layer_counts[layer]

    def count_relations(self, kind: RelationKind) -> int:
        """Relations of a kind — O(1) from the maintained counter."""
        return self._kind_counts.get(kind, 0)

    def stats(self) -> StoreStats:
        """Aggregate statistics in the shape of the paper's Table 2.

        Every figure is read off incrementally-maintained counters and
        indexes, so this is O(domains) rather than O(nodes + relations).
        """
        items = self.count_nodes(ITEM_PREFIX)
        return StoreStats(
            primitive_concepts=self.count_nodes(PRIMITIVE_PREFIX),
            ecommerce_concepts=self.count_nodes(ECOMMERCE_PREFIX),
            items=items,
            classes=self.count_nodes(CLASS_PREFIX),
            relations_total=sum(self._kind_counts.values()),
            isa_primitive=self.count_relations(RelationKind.ISA_PRIMITIVE),
            isa_ecommerce=self.count_relations(RelationKind.ISA_ECOMMERCE),
            item_primitive=self.count_relations(RelationKind.ITEM_PRIMITIVE),
            item_ecommerce=self.count_relations(RelationKind.ITEM_ECOMMERCE),
            ecommerce_primitive=self.count_relations(RelationKind.INTERPRETED_BY),
            primitive_by_domain={
                domain: len(ids)
                for domain, ids in self._domain_primitive_ids.items()},
            linked_item_fraction=(
                len(self._linked_item_ids) / items) if items else 0.0,
        )

    # --------------------------------------------------------------- helpers
    def classes_in_domain(self, domain: str) -> list[ClassNode]:
        """All taxonomy classes belonging to a first-level domain (served
        from the per-domain index; no full-store scan)."""
        return [self._nodes[i] for i in self._domain_class_ids.get(domain, [])]

    def primitives_in_domain(self, domain: str) -> list[PrimitiveConcept]:
        """All primitive concepts belonging to a first-level domain (served
        from the per-domain index; no full-store scan)."""
        return [self._nodes[i]
                for i in self._domain_primitive_ids.get(domain, [])]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the duration of a bulk build.

    A bulk build allocates a relation, its key tuples and its index lists
    per edge and frees none of them, so every collection the allocations
    trigger walks a growing heap and finds nothing to free; at snapshot
    scale that is over a third of the build.  Nothing is leaked: the
    collector's previous state is restored on exit, and a pause inside a
    pause is a no-op.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _chunks() -> list[list[Relation]]:
    """A new chunked relation sequence: one empty chunk to append to."""
    return [[]]


def _edge_to(relations: Iterable[Relation], target: str) -> Relation | None:
    """The edge of ``relations`` that ends at ``target``, if any.

    The duplicate check of every write path: ``relations`` is one
    source's out list for one kind, so (kind, source, target) is unique
    within it, and out lists are short (a source has few edges of one
    kind), so a scan costs less than keeping a net-wide key index.
    """
    for relation in relations:
        if relation.target == target:
            return relation
    return None


def _skip(parts: list[tuple[int, Iterable]], count: int) -> Iterator:
    """The items of the concatenated ``(size, items)`` parts past the
    first ``count``; a part that ends within them is never iterated."""
    for size, items in parts:
        if count >= size:
            count -= size
            continue
        yield from islice(items, count, None)
        count = 0


def _grow_lists(index: dict, additions: Iterable[dict]) -> None:
    """Append each addition's lists to ``index``'s, key by key, without
    mutating a list ``index`` already holds: the first touch of a key
    installs a new list (old + added), later touches extend that one."""
    grown: dict = {}
    for added in additions:
        for key, values in added.items():
            fresh = grown.get(key)
            if fresh is None:
                grown[key] = index.get(key, []) + values
            else:
                fresh.extend(values)
    index.update(grown)
