"""Copy-on-write store generations: serve the net while it evolves.

The serving tier (:mod:`repro.serving`) freezes its store so cached
answers can never go stale — but the paper's production net *grows*
while serving traffic (newly mined concepts and item associations stream
in; AliCG calls this an "evolvable" conceptual graph).  This module
reconciles the two with a classic copy-on-write generation scheme:

- a frozen **base** :class:`~repro.kg.store.AliCoCoStore` holds the
  build output and is never touched again;
- writes go to an **open** :class:`DeltaSegment` — a small add-only
  mini-store with the same indexes as the base;
- :meth:`GenerationalStore.seal` closes the open segment (it becomes
  immutable) and :meth:`GenerationalStore.swap` atomically publishes all
  sealed segments as the next **generation** — a new immutable
  :class:`GenerationView` whose reads see base + segments through the
  existing store/query API.

The concurrency contract mirrors the serving tier's: a published
:class:`GenerationView` is deeply immutable, so readers touch it without
locks; ``swap()`` installs the next view with one attribute assignment
(atomic under the GIL), so a reader sees either the old generation or
the new one — never a mix.  Writers and ``seal``/``swap`` serialize on
one internal lock.

Semantics are **add-only**: nodes and relations can be added in a delta
but never removed or rewritten (node ids are never reused), matching the
store's own contract.  That is what makes overlay reads cheap and
deterministic: every read is the base result followed by each segment's
result in publish order, which is exactly the insertion order a
monolithic store would have produced — weight-tie ordering included.

Generation 0 (no published segments) delegates every read straight to
the base store, so a service over a zero-delta ``GenerationalStore`` is
bit-identical to one over the frozen store itself.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Iterable, Iterator

from ..errors import (
    ConfigError,
    DuplicateNodeError,
    FrozenStoreError,
    NodeNotFoundError,
    RelationError,
)
from .ids import (
    CLASS_PREFIX,
    ECOMMERCE_PREFIX,
    ITEM_PREFIX,
    PRIMITIVE_PREFIX,
    layer_of,
)
from .nodes import ClassNode, ECommerceConcept, Item, Node, PrimitiveConcept
from .relations import Relation, RelationKind
from .stats import StoreStats
from .store import _ITEM_KINDS, _LAYER_TYPES, AliCoCoStore, _edge_to, _skip


class DeltaSegment:
    """One add-only batch of nodes and relations over some prior state.

    A segment maintains the same incremental indexes as
    :class:`~repro.kg.store.AliCoCoStore` (name index, adjacency lists,
    per-kind lists, counters), so :class:`GenerationView` reads can
    concatenate per-segment results without scanning.  Validation lives
    in :class:`GenerationalStore`, which checks writes against the whole
    pending state (base + sealed + open) before routing them here.

    Once sealed, any further mutation raises :class:`FrozenStoreError` —
    sealed segments are shared by published views and must never change.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.relations: list[Relation] = []
        self.by_name: dict[str, dict[str, list[str]]] = {
            prefix: defaultdict(list) for prefix in _LAYER_TYPES
        }
        self.out: dict[tuple[str, RelationKind], list[Relation]] = defaultdict(list)
        self.inc: dict[tuple[str, RelationKind], list[Relation]] = defaultdict(list)
        self.layer_counts: dict[str, int] = {p: 0 for p in _LAYER_TYPES}
        self.kind_counts: dict[RelationKind, int] = defaultdict(int)
        self.by_kind: dict[RelationKind, list[Relation]] = defaultdict(list)
        self.domain_class_ids: dict[str, list[str]] = defaultdict(list)
        self.domain_primitive_ids: dict[str, list[str]] = defaultdict(list)
        self.linked_item_ids: set[str] = set()
        self.sealed = False

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def empty(self) -> bool:
        return not self.nodes and not self.relations

    def seal(self) -> "DeltaSegment":
        self.sealed = True
        return self

    def _add_node(self, node: Node) -> None:
        if self.sealed:
            raise FrozenStoreError(
                f"cannot add node {node.id!r}: delta segment is sealed"
            )
        layer = layer_of(node.id)
        self.nodes[node.id] = node
        self.by_name[layer][AliCoCoStore._name_of(node)].append(node.id)
        self.layer_counts[layer] += 1
        if isinstance(node, ClassNode):
            self.domain_class_ids[node.domain].append(node.id)
        elif isinstance(node, PrimitiveConcept):
            self.domain_primitive_ids[node.domain].append(node.id)

    def _add_relations(self, relations: list[Relation]) -> None:
        """Append validated, duplicate-free relations to every index."""
        if self.sealed:
            raise FrozenStoreError("cannot add relations: delta segment is sealed")
        out, inc = self.out, self.inc
        kind_counts, by_kind = self.kind_counts, self.by_kind
        self.relations.extend(relations)
        for relation in relations:
            kind, source, target = relation.kind, relation.source, relation.target
            out[(source, kind)].append(relation)
            inc[(target, kind)].append(relation)
            kind_counts[kind] += 1
            by_kind[kind].append(relation)
            if kind in _ITEM_KINDS:
                self.linked_item_ids.add(source)


class GenerationView:
    """An immutable read view over base + published delta segments.

    Implements the read half of the :class:`AliCoCoStore` API (``get``,
    ``nodes``, ``relations``, adjacency, counters, ``stats``, domain
    helpers), so :mod:`repro.kg.query` functions and the serving tier
    work on it unchanged.  Every method answers base-first, then each
    segment in publish order — the insertion order a monolithic store
    would have.

    A view is deeply immutable (the base is frozen, the segments are
    sealed), so reads are lock-free and results can be cached keyed by
    :attr:`generation_id`.  With zero segments every method delegates
    straight to the base store: generation 0 is bit-identical to the
    frozen path.
    """

    __slots__ = (
        "_base",
        "_segments",
        "generation_id",
        "segment_generations",
        "base_generation",
    )

    def __init__(
        self,
        base: AliCoCoStore,
        segments: tuple[DeltaSegment, ...] = (),
        generation_id: int = 0,
        segment_generations: tuple[int, ...] = (),
        base_generation: int = 0,
    ) -> None:
        self._base = base
        self._segments = segments
        #: Monotonic publish counter; 0 is the bare base store.
        self.generation_id = generation_id
        #: Generation id each segment was published under (one swap may
        #: publish several sealed segments); snapshots persist this so a
        #: warm start restores the exact generation numbering.
        self.segment_generations = segment_generations or tuple(
            range(base_generation + 1, base_generation + len(segments) + 1)
        )
        #: Generation id folded into ``_base`` (0 until a compaction).
        #: Pinned on the view so snapshotting a view is tear-free even
        #: if the owning store compacts concurrently.
        self.base_generation = base_generation

    # ------------------------------------------------------------- freezing
    @property
    def frozen(self) -> bool:
        """Views are always read-only."""
        return True

    def freeze(self) -> "GenerationView":
        """No-op for API compatibility with :class:`AliCoCoStore`."""
        return self

    # --------------------------------------------------------------- access
    def get(self, node_id: str) -> Node:
        """Node by id, searching base then segments.

        Raises:
            NodeNotFoundError: If absent from every layer.
        """
        node = self._base._nodes.get(node_id)
        if node is not None:
            return node
        for segment in self._segments:
            node = segment.nodes.get(node_id)
            if node is not None:
                return node
        raise NodeNotFoundError(f"node {node_id!r} does not exist")

    def __contains__(self, node_id: str) -> bool:
        if node_id in self._base._nodes:
            return True
        return any(node_id in segment.nodes for segment in self._segments)

    def __len__(self) -> int:
        return len(self._base) + sum(len(s) for s in self._segments)

    def find_by_name(self, layer: str, name: str) -> list[Node]:
        """All nodes in ``layer`` whose name/text/title equals ``name``."""
        found = self._base.find_by_name(layer, name)
        for segment in self._segments:
            found.extend(
                segment.nodes[i] for i in segment.by_name[layer].get(name, [])
            )
        return found

    def nodes(self, layer: str | None = None) -> Iterator[Node]:
        """Iterate nodes in insertion order, base first."""
        yield from self._base.nodes(layer)
        for segment in self._segments:
            for node_id, node in segment.nodes.items():
                if layer is None or layer_of(node_id) == layer:
                    yield node

    def relations(self, kind: RelationKind | None = None) -> Iterator[Relation]:
        """Iterate relations in insertion order, base first."""
        yield from self._base.relations(kind)
        for segment in self._segments:
            if kind is None:
                yield from segment.relations
            else:
                yield from segment.by_kind.get(kind, [])

    def nodes_since(self, count: int, layer: str | None = None) -> Iterator[Node]:
        """The nodes of ``nodes(layer)`` past the first ``count``, in order.

        Equal to ``islice(self.nodes(layer), count, None)``, but the base
        and every segment lying wholly inside the first ``count`` are
        skipped by their lengths instead of walked, so reading a publish's
        new nodes costs the delta, not the net.
        """
        base = self._base
        if layer is None:
            parts = [(len(base), base._nodes.values())]
            parts += [(len(s), s.nodes.values()) for s in self._segments]
        else:
            base_nodes = base._layer_nodes.get(layer, [])
            parts = [(len(base_nodes), base_nodes)]
            for s in self._segments:
                nodes = (node for i, node in s.nodes.items() if layer_of(i) == layer)
                parts.append((s.layer_counts.get(layer, 0), nodes))
        return _skip(parts, count)

    def relations_since(self, count: int) -> Iterator[Relation]:
        """The relations of ``relations()`` past the first ``count``, in
        order — ``islice(self.relations(), count, None)`` with the base's
        chunks and whole segments skipped by their lengths."""
        parts = [(len(chunk), chunk) for chunk in self._base._relations]
        parts += [(len(s.relations), s.relations) for s in self._segments]
        return _skip(parts, count)

    def out_relations(self, node_id: str, kind: RelationKind) -> list[Relation]:
        """Outgoing relations of ``node_id``, base edges before delta edges."""
        found = self._base.out_relations(node_id, kind)
        for segment in self._segments:
            found.extend(segment.out.get((node_id, kind), []))
        return found

    def in_relations(self, node_id: str, kind: RelationKind) -> list[Relation]:
        """Incoming relations of ``node_id``, base edges before delta edges."""
        found = self._base.in_relations(node_id, kind)
        for segment in self._segments:
            found.extend(segment.inc.get((node_id, kind), []))
        return found

    def targets(self, node_id: str, kind: RelationKind) -> list[Node]:
        """Target nodes of outgoing ``kind`` edges."""
        return [self.get(r.target) for r in self.out_relations(node_id, kind)]

    def sources(self, node_id: str, kind: RelationKind) -> list[Node]:
        """Source nodes of incoming ``kind`` edges."""
        return [self.get(r.source) for r in self.in_relations(node_id, kind)]

    # ----------------------------------------------------------- statistics
    def count_nodes(self, layer: str) -> int:
        """Nodes in a layer — O(segments) from maintained counters."""
        return self._base.count_nodes(layer) + sum(
            s.layer_counts[layer] for s in self._segments
        )

    def count_relations(self, kind: RelationKind) -> int:
        """Relations of a kind — O(segments) from maintained counters."""
        return self._base.count_relations(kind) + sum(
            s.kind_counts.get(kind, 0) for s in self._segments
        )

    def stats(self) -> StoreStats:
        """Aggregate statistics over base + deltas (Table 2 shape)."""
        if not self._segments:
            return self._base.stats()
        items = self.count_nodes(ITEM_PREFIX)
        by_domain: dict[str, int] = {
            domain: len(ids)
            for domain, ids in self._base._domain_primitive_ids.items()
        }
        base_linked = self._base._linked_item_ids
        linked: set[str] = set()  # items the segments link, the base does not
        relations_total = sum(self._base._kind_counts.values())
        for segment in self._segments:
            for domain, ids in segment.domain_primitive_ids.items():
                by_domain[domain] = by_domain.get(domain, 0) + len(ids)
            linked |= segment.linked_item_ids - base_linked
            relations_total += len(segment.relations)
        n_linked = len(base_linked) + len(linked)
        return StoreStats(
            primitive_concepts=self.count_nodes(PRIMITIVE_PREFIX),
            ecommerce_concepts=self.count_nodes(ECOMMERCE_PREFIX),
            items=items,
            classes=self.count_nodes(CLASS_PREFIX),
            relations_total=relations_total,
            isa_primitive=self.count_relations(RelationKind.ISA_PRIMITIVE),
            isa_ecommerce=self.count_relations(RelationKind.ISA_ECOMMERCE),
            item_primitive=self.count_relations(RelationKind.ITEM_PRIMITIVE),
            item_ecommerce=self.count_relations(RelationKind.ITEM_ECOMMERCE),
            ecommerce_primitive=self.count_relations(RelationKind.INTERPRETED_BY),
            primitive_by_domain=by_domain,
            linked_item_fraction=(n_linked / items) if items else 0.0,
        )

    # -------------------------------------------------------------- helpers
    def classes_in_domain(self, domain: str) -> list[ClassNode]:
        """All taxonomy classes of a first-level domain, base first."""
        found = self._base.classes_in_domain(domain)
        for segment in self._segments:
            found.extend(
                segment.nodes[i] for i in segment.domain_class_ids.get(domain, [])
            )
        return found

    def primitives_in_domain(self, domain: str) -> list[PrimitiveConcept]:
        """All primitive concepts of a first-level domain, base first."""
        found = self._base.primitives_in_domain(domain)
        for segment in self._segments:
            found.extend(
                segment.nodes[i]
                for i in segment.domain_primitive_ids.get(domain, [])
            )
        return found

    def _edge(self, kind: RelationKind, source: str, target: str) -> Relation | None:
        """The stored (kind, source, target) edge in any layer, if any: a
        scan of the source's out lists (see :func:`~repro.kg.store._edge_to`)."""
        key = (source, kind)
        existing = _edge_to(self._base._out.get(key, ()), target)
        for segment in self._segments:
            if existing is not None:
                break
            existing = _edge_to(segment.out.get(key, ()), target)
        return existing


class GenerationalStore:
    """A frozen base store plus copy-on-write delta generations.

    Reads delegate to the currently *published* :class:`GenerationView`
    (lock-free — grab :meth:`current` once to pin a consistent
    generation for a multi-step read).  Writes go to the open
    :class:`DeltaSegment` through the same mutation API as
    :class:`AliCoCoStore` — all of it goes through :meth:`add_node` and
    :meth:`add_relations` (``add_relation`` and ``create_*`` included) —
    and stays invisible to readers until published:

    - :meth:`seal` closes the open segment and stages it;
    - :meth:`swap` publishes every staged segment as the next
      generation, bumping :attr:`generation_id` by one;
    - :meth:`publish` is the common ``seal(); swap()`` shorthand.

    Writers, ``seal`` and ``swap`` serialize on one internal lock;
    ``swap`` itself installs the new view with a single attribute
    assignment, so concurrent readers always see a whole generation.

    ``frozen`` is ``True`` and :meth:`freeze` returns ``self``: the
    *published* surface is immutable (the serving tier's caching
    contract), even though new generations can be prepared behind it.

    Long-lived stores bound their segment chain with :meth:`compact`
    (fold every published segment into a new frozen base — reads stay
    bit-identical, :attr:`generation_id` does not move) either manually
    or automatically via ``compact_after_segments``.

    Args:
        base: The frozen build output (frozen here if it is not yet).
        base_generation: Generation id the bare base represents — 0 for
            a fresh build; a compacted snapshot restores the id its base
            was folded at so generation numbering survives a warm start.
        compact_after_segments: When set, every :meth:`swap` that leaves
            more than this many published segments triggers an automatic
            :meth:`compact` — the chain-length bound for stores that
            keep evolving.

    Raises:
        ConfigError: On a negative ``base_generation`` or a
            non-positive ``compact_after_segments``.
    """

    def __init__(self, base: AliCoCoStore, *, base_generation: int = 0,
                 compact_after_segments: int | None = None) -> None:
        if base_generation < 0:
            raise ConfigError(
                f"base_generation must be >= 0, got {base_generation}"
            )
        if compact_after_segments is not None and compact_after_segments <= 0:
            raise ConfigError(
                "compact_after_segments must be positive, got "
                f"{compact_after_segments}"
            )
        self._base = base.freeze()
        self._lock = threading.Lock()
        self._open = DeltaSegment()
        self._staged: list[DeltaSegment] = []
        self._base_generation = base_generation
        self.compact_after_segments = compact_after_segments
        self._view = GenerationView(
            self._base, (), base_generation, base_generation=base_generation
        )
        # Lazily-initialised per-layer id counters for create_*: snapshot
        # replay leaves the base's IdAllocator at zero, so counters start
        # at the pending layer size and probe past collisions.
        self._id_counters: dict[str, int] = {}

    # ------------------------------------------------------------ published
    @property
    def generation_id(self) -> int:
        """Monotonic id of the currently published generation."""
        return self._view.generation_id

    @property
    def base_generation(self) -> int:
        """Generation id folded into the base (0 until a compaction)."""
        return self._base_generation

    def current(self) -> GenerationView:
        """The published view — pin it once per request for consistency."""
        return self._view

    @property
    def frozen(self) -> bool:
        """The published surface is always read-only."""
        return True

    def freeze(self) -> "GenerationalStore":
        """No-op for API compatibility with :class:`AliCoCoStore`."""
        return self

    # ------------------------------------------------------------- mutation
    def _pending(self) -> GenerationView:
        """A private view of published + staged + open (writer-side only)."""
        return GenerationView(
            self._base,
            self._view._segments + tuple(self._staged) + (self._open,),
            self._view.generation_id,
            base_generation=self._base_generation,
        )

    def add_node(self, node: Node) -> Node:
        """Insert a pre-built node into the open delta.

        Raises:
            DuplicateNodeError: If the id exists in any generation,
                staged segment, or the open delta.
            RelationError: If the node type does not match its id prefix.
        """
        with self._lock:
            return self._add_node_locked(node)

    def _add_node_locked(self, node: Node) -> Node:
        if node.id in self._pending():
            raise DuplicateNodeError(f"node {node.id!r} already exists")
        layer = layer_of(node.id)
        if not isinstance(node, _LAYER_TYPES[layer]):
            raise RelationError(
                f"node {node.id!r} has prefix {layer!r} "
                f"but type {type(node).__name__}"
            )
        self._open._add_node(node)
        return node

    def add_relation(self, relation: Relation) -> Relation:
        """Insert one relation: the one-edge case of :meth:`add_relations`.

        Raises:
            NodeNotFoundError: If either endpoint is missing.
            RelationError: If the endpoint layers do not match the kind.
        """
        return self.add_relations((relation,))[0]

    def add_relations(self, relations: Iterable[Relation]) -> list[Relation]:
        """Insert a batch of relations into the open delta, all or nothing.

        Endpoints may live in any layer of the pending state (base, a
        published or staged segment, or the open delta).  The result is
        that of :meth:`AliCoCoStore.add_relations`: duplicate (kind,
        source, target) triples — of each other or of an edge in any
        layer — resolve to the stored relation, which is what the
        returned list holds per input edge, and a batch with an invalid
        edge stages nothing.

        An edge with an endpoint in the open delta is checked for
        duplicates there only.  That is exact: node ids are unique across
        layers and every relation was validated against the pending
        state when it was inserted, so no older layer holds an edge that
        names a node created after it.

        Raises:
            NodeNotFoundError: If an endpoint is missing.
            RelationError: If an endpoint's layer does not match its kind.
        """
        with self._lock:
            return self._add_relations_locked(relations)

    def _add_relations_locked(self, relations: Iterable[Relation]) -> list[Relation]:
        pending = self._pending()
        open_nodes, open_out = self._open.nodes, self._open.out
        fresh: dict[tuple[RelationKind, str, str], Relation] = {}
        stored = []
        for relation in relations:
            kind, source, target = relation.kind, relation.source, relation.target
            in_open = False
            for node_id, expected in (
                (source, kind.source_layer),
                (target, kind.target_layer),
            ):
                if node_id in open_nodes:
                    in_open = True
                else:
                    pending.get(node_id)  # NodeNotFoundError if absent
                if layer_of(node_id) != expected:
                    raise RelationError(
                        f"node {node_id!r} is in layer {layer_of(node_id)!r}; "
                        f"expected {expected!r}"
                    )
            key = (kind, source, target)
            existing = fresh.get(key)
            if existing is None:
                existing = (
                    _edge_to(open_out.get((source, kind), ()), target)
                    if in_open
                    else pending._edge(kind, source, target)
                )
                if existing is None:
                    existing = fresh[key] = relation
            stored.append(existing)
        if fresh:
            self._open._add_relations(list(fresh.values()))
        return stored

    def _allocate(self, prefix: str) -> str:
        # Caller holds self._lock.
        pending = self._pending()
        n = self._id_counters.get(prefix)
        if n is None:
            n = pending.count_nodes(prefix)
        while f"{prefix}_{n}" in pending:
            n += 1
        self._id_counters[prefix] = n + 1
        return f"{prefix}_{n}"

    def create_class(
        self, name: str, domain: str, parent_id: str | None = None
    ) -> ClassNode:
        """Allocate an id and insert a taxonomy class into the open delta."""
        with self._lock:
            if parent_id is not None:
                self._pending().get(parent_id)  # validate before inserting
            node = ClassNode(self._allocate(CLASS_PREFIX), name, domain, parent_id)
            self._add_node_locked(node)
            if parent_id is not None:
                self._add_relations_locked(
                    (Relation(RelationKind.SUBCLASS_OF, node.id, parent_id),)
                )
            return node

    def create_primitive(self, name: str, class_id: str) -> PrimitiveConcept:
        """Allocate an id and insert a primitive concept under ``class_id``."""
        with self._lock:
            class_node = self._pending().get(class_id)
            if layer_of(class_id) != CLASS_PREFIX:
                raise RelationError(
                    f"node {class_id!r} is in layer {layer_of(class_id)!r}; "
                    f"expected {CLASS_PREFIX!r}"
                )
            node = PrimitiveConcept(
                self._allocate(PRIMITIVE_PREFIX), name, class_id, class_node.domain
            )
            self._add_node_locked(node)
            self._add_relations_locked(
                (Relation(RelationKind.INSTANCE_OF, node.id, class_id),)
            )
            return node

    def create_ecommerce(self, text: str, source: str = "mined") -> ECommerceConcept:
        """Allocate an id and insert an e-commerce concept into the delta."""
        with self._lock:
            return self._add_node_locked(
                ECommerceConcept(
                    self._allocate(ECOMMERCE_PREFIX), text, tuple(text.split()), source
                )
            )

    def create_item(
        self,
        title: str,
        shop: str = "shop_0",
        properties: dict[str, str] | None = None,
    ) -> Item:
        """Allocate an id and insert an item into the open delta."""
        with self._lock:
            return self._add_node_locked(
                Item(self._allocate(ITEM_PREFIX), title, shop, dict(properties or {}))
            )

    # ---------------------------------------------------------- publication
    def seal(self) -> DeltaSegment | None:
        """Close the open delta and stage it for the next :meth:`swap`.

        Returns the sealed segment, or ``None`` when the open delta was
        empty (nothing to stage).
        """
        with self._lock:
            if self._open.empty:
                return None
            segment = self._open.seal()
            self._staged.append(segment)
            self._open = DeltaSegment()
            return segment

    def swap(self) -> int:
        """Atomically publish all staged segments as the next generation.

        A no-op (current :attr:`generation_id` returned) when nothing is
        staged — an empty publish must not invalidate caches.  Empty
        segments are dropped rather than published (``seal`` never
        stages one, but a replayed or hand-staged empty segment must not
        mint a no-op generation that lengthens the chain and churns
        generation-keyed caches).

        When ``compact_after_segments`` is configured and the publish
        leaves more than that many segments, the chain is folded into a
        new base before returning (reads stay bit-identical).

        Returns:
            The now-published generation id.
        """
        with self._lock:
            staged = [s for s in self._staged if not s.empty]
            self._staged = []
            if not staged:
                return self._view.generation_id
            next_id = self._view.generation_id + 1
            view = GenerationView(
                self._base,
                self._view._segments + tuple(staged),
                next_id,
                self._view.segment_generations + (next_id,) * len(staged),
                base_generation=self._base_generation,
            )
            self._view = view  # single assignment: atomic publish
            if (
                self.compact_after_segments is not None
                and len(view._segments) > self.compact_after_segments
            ):
                self._compact_locked()
            return view.generation_id

    def publish(self) -> int:
        """``seal()`` + ``swap()``: publish whatever the open delta holds."""
        self.seal()
        return self.swap()

    def compact(self) -> int:
        """Fold every published segment into a new frozen base.

        Folds the published segments into the frozen base with
        :meth:`AliCoCoStore.fold` and atomically installs the result as
        the new zero-segment view.  The fold costs the delta, not the
        net: shallow dict copies, new lists for the keys the segments
        touch, and one new chunk on each chunked relation sequence; every
        other list and chunk is shared with the old base, no whole-net
        list is copied, and the collector is paused while it runs.  Every read
        API answers bit-identically before and after, and exactly like
        :func:`flatten` (insertion order, weight-tie order and
        name-collision order are all preserved), and
        :attr:`generation_id` does not move: compaction is a
        representation change, not a publish, so generation-pinned
        caches stay valid.

        Readers pinned to the old overlay keep working (the fold never
        mutates the old base or a sealed segment); staged and open
        segments are *not* folded — they belong to unpublished
        generations and stay writable behind the new base.

        Returns:
            The (unchanged) published generation id.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        view = self._view
        if not view._segments:
            return view.generation_id  # nothing to fold
        self._base = view._base.fold(view._segments)
        self._base_generation = view.generation_id
        # Single assignment: readers see the overlay or the folded base,
        # both of which answer every read identically.
        self._view = GenerationView(
            self._base,
            (),
            view.generation_id,
            base_generation=view.generation_id,
        )
        return view.generation_id

    @property
    def open_counts(self) -> tuple[int, int]:
        """(nodes, relations) waiting in the open delta — for observability."""
        with self._lock:
            return (len(self._open.nodes), len(self._open.relations))

    # ------------------------------------------------------- delegated reads
    def get(self, node_id: str) -> Node:
        return self._view.get(node_id)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._view

    def __len__(self) -> int:
        return len(self._view)

    def find_by_name(self, layer: str, name: str) -> list[Node]:
        return self._view.find_by_name(layer, name)

    def nodes(self, layer: str | None = None) -> Iterator[Node]:
        return self._view.nodes(layer)

    def relations(self, kind: RelationKind | None = None) -> Iterator[Relation]:
        return self._view.relations(kind)

    def nodes_since(self, count: int, layer: str | None = None) -> Iterator[Node]:
        return self._view.nodes_since(count, layer)

    def relations_since(self, count: int) -> Iterator[Relation]:
        return self._view.relations_since(count)

    def out_relations(self, node_id: str, kind: RelationKind) -> list[Relation]:
        return self._view.out_relations(node_id, kind)

    def in_relations(self, node_id: str, kind: RelationKind) -> list[Relation]:
        return self._view.in_relations(node_id, kind)

    def targets(self, node_id: str, kind: RelationKind) -> list[Node]:
        return self._view.targets(node_id, kind)

    def sources(self, node_id: str, kind: RelationKind) -> list[Node]:
        return self._view.sources(node_id, kind)

    def count_nodes(self, layer: str) -> int:
        return self._view.count_nodes(layer)

    def count_relations(self, kind: RelationKind) -> int:
        return self._view.count_relations(kind)

    def stats(self) -> StoreStats:
        return self._view.stats()

    def classes_in_domain(self, domain: str) -> list[ClassNode]:
        return self._view.classes_in_domain(domain)

    def primitives_in_domain(self, domain: str) -> list[PrimitiveConcept]:
        return self._view.primitives_in_domain(domain)

    # -------------------------------------------------------------- segments
    @property
    def published_segments(self) -> tuple[DeltaSegment, ...]:
        """Sealed segments of the published view, in publish order."""
        return self._view._segments


def flatten(view: GenerationView | GenerationalStore) -> AliCoCoStore:
    """Replay a generation view into one monolithic (unfrozen) store.

    Node objects are shared, not copied (they are immutable); nodes and
    relations replay in global insertion order through the trusted bulk
    paths (every one was validated when the view's layers took it), so
    the flattened store answers every read identically to the view.
    Used by snapshot loaders that want a plain store (sharding, tools)
    and as the oracle :meth:`GenerationalStore.compact` is tested
    against.  Unlike a compacted base, the result shares no index list
    with the view, so callers may mutate it.

    Raises:
        ConfigError: If ``view`` is not a generational view/store.
    """
    if isinstance(view, GenerationalStore):
        view = view.current()
    if not isinstance(view, GenerationView):
        raise ConfigError(
            f"flatten() expects a GenerationView, got {type(view).__name__}"
        )
    store = AliCoCoStore()
    store.add_nodes_trusted(view.nodes())
    store.add_relations_trusted(view.relations())
    return store

