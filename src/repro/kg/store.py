"""The in-memory AliCoCo graph store with typed validation and indexes."""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from itertools import chain, islice
from typing import Callable, Collection, Container, Iterable, Iterator, Sequence

from ..errors import (
    DuplicateNodeError,
    FrozenStoreError,
    GraphError,
    NodeNotFoundError,
    RelationError,
)
from .ids import (
    CLASS_PREFIX,
    ECOMMERCE_PREFIX,
    ITEM_PREFIX,
    PRIMITIVE_PREFIX,
    fresh_id,
    layer_of,
)
from .nodes import ClassNode, ECommerceConcept, Item, Node, PrimitiveConcept
from .relations import Relation, RelationKind
from .stats import StoreStats

_LAYER_TYPES = {
    CLASS_PREFIX: ClassNode,
    PRIMITIVE_PREFIX: PrimitiveConcept,
    ECOMMERCE_PREFIX: ECommerceConcept,
    ITEM_PREFIX: Item,
}

#: Relation kinds whose source counts as a linked item in ``stats()``.
_ITEM_KINDS = (RelationKind.ITEM_PRIMITIVE, RelationKind.ITEM_ECOMMERCE)

#: The per-key index lists a fold grows (see :meth:`AliCoCoStore.fold`).
_KEYED_INDEXES = (
    "_layer_nodes",
    "_out",
    "_in",
    "_domain_class_ids",
    "_domain_primitive_ids",
)


class AliCoCoStore:
    """Nodes + relations with per-layer name indexes and adjacency lists.

    All mutation goes through :meth:`add_node` / :meth:`add_relations`
    (:meth:`add_relation` is its one-edge case; the typed ``create_*``
    conveniences also allocate ids, by :func:`~repro.kg.ids.fresh_id`
    like a generational store's), so the indexes can never drift from
    the node table.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        # layer prefix -> that layer's nodes in insertion order
        self._layer_nodes: dict[str, list[Node]] = {
            prefix: [] for prefix in _LAYER_TYPES
        }
        # name index: layer prefix -> name -> list of node ids
        self._by_name: dict[str, dict[str, list[str]]] = {
            prefix: defaultdict(list) for prefix in _LAYER_TYPES
        }
        # The whole-net relation sequences (``_relations`` and each
        # ``_by_kind`` entry) are chunked: lists of lists, read in order.
        # A store being built appends to its last chunk; a fold shares
        # its base's chunks and adds the delta as one more, so it never
        # copies a whole-net list.
        self._relations: list[list[Relation]] = _chunks()
        self._out: dict[tuple[str, RelationKind], list[Relation]] = defaultdict(list)
        self._in: dict[tuple[str, RelationKind], list[Relation]] = defaultdict(list)
        # Incrementally-maintained statistics; every mutation funnels
        # through _index_node/_insert_relations so these can never drift.
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
            raise _frozen(f"add node {node.id!r}")
        self._index_node(node, _check_node(node, self._nodes))
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
            raise _frozen("bulk-add nodes")
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
        """Add a checked node to every index: the one node insert."""
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

    def create_class(
        self, name: str, domain: str, parent_id: str | None = None
    ) -> ClassNode:
        """Allocate an id and insert a taxonomy class."""
        if parent_id is not None:
            _check_endpoint(self._nodes, parent_id, CLASS_PREFIX)
        node = ClassNode(fresh_id(CLASS_PREFIX, self), name, domain, parent_id)
        self.add_node(node)
        if parent_id is not None:
            self.add_relation(Relation(RelationKind.SUBCLASS_OF, node.id, parent_id))
        return node

    def create_primitive(self, name: str, class_id: str) -> PrimitiveConcept:
        """Allocate an id and insert a primitive concept under ``class_id``."""
        _check_endpoint(self._nodes, class_id, CLASS_PREFIX)
        domain = self._nodes[class_id].domain
        node = PrimitiveConcept(
            fresh_id(PRIMITIVE_PREFIX, self), name, class_id, domain
        )
        self.add_node(node)
        self.add_relation(Relation(RelationKind.INSTANCE_OF, node.id, class_id))
        return node

    def create_ecommerce(self, text: str, source: str = "mined") -> ECommerceConcept:
        """Allocate an id and insert an e-commerce concept."""
        tokens = tuple(text.split())
        node = ECommerceConcept(fresh_id(ECOMMERCE_PREFIX, self), text, tokens, source)
        return self.add_node(node)

    def create_item(
        self,
        title: str,
        shop: str = "shop_0",
        properties: dict[str, str] | None = None,
    ) -> Item:
        """Allocate an id and insert an item."""
        node = Item(fresh_id(ITEM_PREFIX, self), title, shop, dict(properties or {}))
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
        is all or nothing: every edge is validated (:func:`_check_edges`)
        before any is inserted, so one that fails leaves the store
        untouched.

        Raises:
            FrozenStoreError: If the store has been frozen for serving.
            NodeNotFoundError: If an endpoint is missing.
            RelationError: If an endpoint's layer does not match its kind.
        """
        if self._frozen:
            raise _frozen("add relations")
        stored, fresh = _check_edges(relations, self._nodes, self._edge)
        self._insert_relations(fresh)
        return stored

    def add_relations_trusted(self, relations: Iterable[Relation]) -> int:
        """Bulk-insert relations known to be schema-valid and duplicate-free.

        The bulk build path of :func:`flatten
        <repro.kg.generations.flatten>` and shard splitting, which replay
        edges that were already validated.  (The snapshot loader checks
        every endpoint on whole columns and inserts through
        :meth:`_insert_relations` directly.)  Re-validating
        endpoint layers and re-checking for duplicates per edge would
        dominate their time, so this path skips both.  Endpoint
        *existence* is still enforced, one dictionary lookup each inside
        the insert :meth:`add_relations` uses too, so every index and
        counter is maintained the same way; the garbage collector is
        paused for the build (:func:`gc_paused`).

        Returns:
            Number of relations inserted.

        Raises:
            FrozenStoreError: If the store has been frozen for serving.
            NodeNotFoundError: If an endpoint is missing.
        """
        if self._frozen:
            raise _frozen("bulk-add relations")
        ordered = self._relations[-1]
        before = len(ordered)
        with gc_paused():
            self._insert_relations(relations, self._nodes)
        return len(ordered) - before

    def _insert_relations(
        self, relations: Iterable[Relation], nodes: Container[str] | None = None
    ) -> None:
        """Add validated relations to every index and counter: the one edge
        insert of both add paths, a generational store's open delta and
        the snapshot loader.
        With ``nodes`` given, an endpoint missing from it raises
        :class:`NodeNotFoundError` (the trusted path's one check)."""
        ordered = self._relations[-1]
        out, inc = self._out, self._in
        kind_counts, by_kind = self._kind_counts, self._by_kind
        linked = self._linked_item_ids
        # kind -> the last chunk of its per-kind sequence, looked up on
        # the first edge of that kind only.
        chunks: dict[RelationKind, list[Relation]] = {}
        for relation in relations:
            kind, source, target, _, _ = relation
            if nodes is not None and (source not in nodes or target not in nodes):
                raise _missing(source if source not in nodes else target)
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

    def _edge(self, kind: RelationKind, source: str, target: str) -> Relation | None:
        """The stored (kind, source, target) edge, if any.

        The duplicate lookup of every write path: a scan of the source's
        out list for ``kind``, in which the target is unique.  Out lists
        are short (a source has few edges of one kind), so a scan costs
        less than keeping a net-wide key index.
        """
        for relation in self._out.get((source, kind), ()):
            if relation.target == target:
                return relation
        return None

    # --------------------------------------------------------------- folding
    def fold(self, segments: Sequence[AliCoCoStore]) -> AliCoCoStore:
        """A new frozen store: this store's contents, then ``segments``.

        ``segments`` are frozen delta stores in publish order.  The
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
                "fold() shares index lists with its base; freeze the base first"
            )
        # Layers no segment adds a node to keep their name index, and the
        # linked-item set is shared unless a segment links a new item.
        layers = {
            layer
            for segment in segments
            for layer, count in segment._layer_counts.items()
            if count
        }
        linked = set().union(*(s._linked_item_ids for s in segments))
        linked -= self._linked_item_ids
        with gc_paused():
            store = AliCoCoStore()
            store._nodes = dict(self._nodes)
            store._layer_nodes = dict(self._layer_nodes)
            store._by_name = {
                layer: defaultdict(list, names) if layer in layers else names
                for layer, names in self._by_name.items()
            }
            store._out = defaultdict(list, self._out)
            store._in = defaultdict(list, self._in)
            store._layer_counts = dict(self._layer_counts)
            store._kind_counts = defaultdict(int, self._kind_counts)
            store._by_kind = defaultdict(_chunks, self._by_kind)
            store._domain_class_ids = defaultdict(list, self._domain_class_ids)
            store._domain_primitive_ids = defaultdict(list, self._domain_primitive_ids)
            store._linked_item_ids = (
                self._linked_item_ids | linked if linked else self._linked_item_ids
            )
            relations: list[Relation] = []
            by_kind: dict[RelationKind, list[Relation]] = defaultdict(list)
            for segment in segments:
                store._nodes.update(segment._nodes)
                for chunk in segment._relations:
                    relations += chunk
                for kind, chunks in segment._by_kind.items():
                    for chunk in chunks:
                        by_kind[kind] += chunk
                for layer, count in segment._layer_counts.items():
                    store._layer_counts[layer] += count
                for kind, count in segment._kind_counts.items():
                    store._kind_counts[kind] += count
            if relations:
                store._relations = self._relations + [relations]
            else:
                store._relations = self._relations
            for kind, added in by_kind.items():
                if added:
                    store._by_kind[kind] = self._by_kind.get(kind, []) + [added]
            for name in _KEYED_INDEXES:
                _grow_lists(getattr(store, name), [getattr(s, name) for s in segments])
            for layer in layers:
                _grow_lists(
                    store._by_name[layer], [s._by_name[layer] for s in segments]
                )
        return store.freeze()

    # ---------------------------------------------------------------- access
    def get(self, node_id: str) -> Node:
        """Node by id.

        Raises:
            NodeNotFoundError: If absent.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise _missing(node_id)
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
            return iter(self._nodes.values())
        return iter(self._layer_nodes.get(layer, ()))

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
        return chain.from_iterable(chunks)

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
        return _stats((self,))

    # --------------------------------------------------------------- helpers
    def classes_in_domain(self, domain: str) -> list[ClassNode]:
        """All taxonomy classes belonging to a first-level domain (served
        from the per-domain index; no full-store scan)."""
        return [self._nodes[i] for i in self._domain_class_ids.get(domain, [])]

    def primitives_in_domain(self, domain: str) -> list[PrimitiveConcept]:
        """All primitive concepts belonging to a first-level domain (served
        from the per-domain index; no full-store scan)."""
        return [self._nodes[i] for i in self._domain_primitive_ids.get(domain, [])]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the duration of a bulk build.

    A bulk build allocates a relation, its key tuples and its index lists
    per edge and frees none of them, so every collection the allocations
    trigger walks a growing heap and finds nothing to free; at snapshot
    scale that is over a third of the build.  Nothing is leaked: the
    collector's previous state is restored on exit, and a pause inside a
    pause is a no-op.

    A pause defers collection rather than skipping it.  The allocation
    counters keep counting while the collector is off, so the first
    tracked allocation after it is re-enabled runs a collection over
    everything the paused block allocated.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _stats(stores: Sequence[AliCoCoStore]) -> StoreStats:
    """Table 2 statistics summed over one store, or a generation view's
    base then segments; the base's linked-item set is never copied."""

    def nodes(layer: str) -> int:
        return sum(store._layer_counts[layer] for store in stores)

    def relations(kind: RelationKind) -> int:
        return sum(store._kind_counts.get(kind, 0) for store in stores)

    by_domain: dict[str, int] = {}
    for store in stores:
        for domain, ids in store._domain_primitive_ids.items():
            by_domain[domain] = by_domain.get(domain, 0) + len(ids)
    linked = stores[0]._linked_item_ids
    later = set().union(*(store._linked_item_ids for store in stores[1:]))
    n_linked = len(linked) + len(later - linked)
    items = nodes(ITEM_PREFIX)
    return StoreStats(
        primitive_concepts=nodes(PRIMITIVE_PREFIX),
        ecommerce_concepts=nodes(ECOMMERCE_PREFIX),
        items=items,
        classes=nodes(CLASS_PREFIX),
        relations_total=sum(sum(store._kind_counts.values()) for store in stores),
        isa_primitive=relations(RelationKind.ISA_PRIMITIVE),
        isa_ecommerce=relations(RelationKind.ISA_ECOMMERCE),
        item_primitive=relations(RelationKind.ITEM_PRIMITIVE),
        item_ecommerce=relations(RelationKind.ITEM_ECOMMERCE),
        ecommerce_primitive=relations(RelationKind.INTERPRETED_BY),
        primitive_by_domain=by_domain,
        linked_item_fraction=n_linked / items if items else 0.0,
    )


def _check_node(node: Node, nodes: Container[str]) -> str:
    """The layer of a node about to join ``nodes``: the node check of both
    stores' ``add_node`` and of the snapshot loader's node table.

    Raises:
        DuplicateNodeError: If the id is already one of ``nodes``.
        ValueError: If the id carries no known layer prefix.
        RelationError: If the node type does not match its id prefix.
    """
    if node.id in nodes:
        raise DuplicateNodeError(f"node {node.id!r} already exists")
    layer = layer_of(node.id)
    if not isinstance(node, _LAYER_TYPES[layer]):
        raise RelationError(
            f"node {node.id!r} has prefix {layer!r} but type {type(node).__name__}"
        )
    return layer


def _check_edges(
    relations: Iterable[Relation],
    nodes: Container[str],
    edge: Callable[[RelationKind, str, str], Relation | None],
) -> tuple[list[Relation], Collection[Relation]]:
    """The edge validator of both stores' ``add_relations``, given the
    store's node set and edge lookup.  Endpoints are checked in order,
    source before target; a repeat of an earlier edge of the batch, or
    of a stored edge, resolves to that edge.

    Returns:
        ``(stored, fresh)``: per input edge, the relation in the net once
        ``fresh``, the new edges in order, is inserted.

    Raises:
        NodeNotFoundError: If an endpoint is missing.
        RelationError: If an endpoint's layer does not match its kind.
    """
    fresh: dict[tuple[RelationKind, str, str], Relation] = {}
    stored = []
    for relation in relations:
        kind, source, target, _, _ = relation
        _check_endpoint(nodes, source, kind.source_layer)
        _check_endpoint(nodes, target, kind.target_layer)
        key = (kind, source, target)
        existing = fresh.get(key)
        if existing is None:
            existing = edge(kind, source, target)
            if existing is None:
                existing = fresh[key] = relation
        stored.append(existing)
    return stored, fresh.values()


def _check_endpoint(nodes: Container[str], node_id: str, layer: str) -> None:
    """Raise unless ``node_id`` is one of ``nodes`` and lies in ``layer``."""
    if node_id not in nodes:
        raise _missing(node_id)
    if layer_of(node_id) != layer:
        raise RelationError(
            f"node {node_id!r} is in layer {layer_of(node_id)!r}; expected {layer!r}"
        )


def _missing(node_id: str) -> NodeNotFoundError:
    """The error a read or write naming an absent node raises."""
    return NodeNotFoundError(f"node {node_id!r} does not exist")


def _frozen(action: str) -> FrozenStoreError:
    """The error a write to a frozen store raises."""
    return FrozenStoreError(f"cannot {action}: store is frozen for serving")


def _chunks() -> list[list[Relation]]:
    """A new chunked relation sequence: one empty chunk to append to."""
    return [[]]


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
    installs a new list (old + added), later touches extend that one.
    Empty additions leave the key's list shared."""
    grown: dict = {}
    for added in additions:
        for key, values in added.items():
            if not values:
                continue
            fresh = grown.get(key)
            if fresh is None:
                grown[key] = index.get(key, []) + values
            else:
                fresh.extend(values)
    index.update(grown)
