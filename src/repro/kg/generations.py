"""Copy-on-write store generations: serve the net while it evolves.

The serving tier (:mod:`repro.serving`) freezes its store so cached
answers can never go stale — but the paper's production net *grows*
while serving traffic (newly mined concepts and item associations stream
in; AliCG calls this an "evolvable" conceptual graph).  This module
reconciles the two with a classic copy-on-write generation scheme.  A
**generation** is a frozen base plus one frozen segment per publish:

- a frozen **base** :class:`~repro.kg.store.AliCoCoStore` holds the
  build output (or a compaction of earlier generations) and is never
  touched again;
- writes go to an **open** delta — an unfrozen
  :class:`~repro.kg.store.AliCoCoStore` whose own indexes the views read
  after the base's;
- :meth:`GenerationalStore.swap` freezes the open delta into the next
  segment and atomically publishes the next generation — a new immutable
  :class:`GenerationView` whose reads see base + segments through the
  existing store/query API.  A view's :attr:`~GenerationView.generation_id`
  is its base's generation plus its segment count.

The concurrency contract mirrors the serving tier's: a published
:class:`GenerationView` is deeply immutable, so readers touch it without
locks; ``swap()`` installs the next view with one attribute assignment
(atomic under the GIL), so a reader sees either the old generation or
the new one — never a mix.  Writers and ``swap`` serialize on one
internal lock.

Semantics are **add-only**: nodes and relations can be added in a delta
but never removed or rewritten (node ids are never reused), matching the
store's own contract.  That is what makes overlay reads cheap and
deterministic: every read is the base result followed by each segment's
result in publish order, which is exactly the insertion order a
monolithic store would have produced — weight-tie ordering included.

Generation 0 (no published segments) is a view over the base alone: it
answers every read exactly as the base store does, so the serving tier
serves every net as a generation and a plain store is generation 0 of
one (:class:`GenerationalStore` wraps it).  A snapshot loads as the view
it saved (:func:`repro.kg.serialize.load_snapshot`).
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Iterable, Iterator

from ..errors import ConfigError
from .ids import (
    CLASS_PREFIX,
    ECOMMERCE_PREFIX,
    ITEM_PREFIX,
    PRIMITIVE_PREFIX,
    fresh_id,
)
from .nodes import ClassNode, ECommerceConcept, Item, Node, PrimitiveConcept
from .relations import Relation, RelationKind
from .stats import StoreStats
from .store import (
    AliCoCoStore,
    _check_edges,
    _check_endpoint,
    _check_node,
    _missing,
    _skip,
    _stats,
)


class GenerationView:
    """An immutable read view over base + published delta segments.

    Implements the read half of the :class:`AliCoCoStore` API (``get``,
    ``nodes``, ``relations``, adjacency, counters, ``stats``, domain
    helpers), so :mod:`repro.kg.query` functions and the serving tier
    work on it unchanged.  Every method answers base-first, then each
    segment in publish order — the insertion order a monolithic store
    would have.  A segment is itself a (frozen) :class:`AliCoCoStore`,
    read through its own indexes.

    A view is deeply immutable (the base and the segments are frozen),
    so reads are lock-free and results can be cached keyed by
    :attr:`generation_id`.  With zero segments every read answers
    exactly as the base store does.

    Args:
        base: The frozen base store.
        segments: The frozen segments, one per publish, in order.
        base_generation: Generation id folded into ``base`` (0 until a
            compaction); segment ``i`` (from 1) is generation
            ``base_generation + i``.
    """

    __slots__ = ("_base", "_segments", "_stores", "generation_id", "base_generation")

    def __init__(
        self,
        base: AliCoCoStore,
        segments: tuple[AliCoCoStore, ...] = (),
        base_generation: int = 0,
    ) -> None:
        self._base = base
        self._segments = segments
        # The base, then every segment: the order every read answers in.
        self._stores = (base, *segments)
        #: Generation id folded into ``_base``.  Pinned on the view so
        #: snapshotting a view is tear-free even if the owning store
        #: compacts concurrently.
        self.base_generation = base_generation
        #: Monotonic publish counter: one generation per segment.
        self.generation_id = base_generation + len(segments)

    # --------------------------------------------------------------- access
    def get(self, node_id: str) -> Node:
        """Node by id, searching base then segments.

        Raises:
            NodeNotFoundError: If absent from every layer.
        """
        # The base first, outside the loop: most reads hit it, and this
        # keeps a generation-0 read as cheap as the base store's own.
        node = self._base._nodes.get(node_id)
        if node is not None:
            return node
        for segment in self._segments:
            node = segment._nodes.get(node_id)
            if node is not None:
                return node
        raise _missing(node_id)

    def __contains__(self, node_id: str) -> bool:
        for store in self._stores:
            if node_id in store._nodes:
                return True
        return False

    def __len__(self) -> int:
        return sum(map(len, self._stores))

    def find_by_name(self, layer: str, name: str) -> list[Node]:
        """All nodes in ``layer`` whose name/text/title equals ``name``."""
        return [n for s in self._stores for n in s.find_by_name(layer, name)]

    def nodes(self, layer: str | None = None) -> Iterator[Node]:
        """Iterate nodes in insertion order, base first."""
        if layer is None:
            parts = [store._nodes.values() for store in self._stores]
        else:
            parts = [store._layer_nodes.get(layer, ()) for store in self._stores]
        return chain.from_iterable(parts)

    def relations(self, kind: RelationKind | None = None) -> Iterator[Relation]:
        """Iterate relations in insertion order, base first: one C-level
        walk over every layer's relation chunks."""
        if kind is None:
            chunks = [chunk for store in self._stores for chunk in store._relations]
        else:
            chunks = [
                chunk for store in self._stores for chunk in store._by_kind.get(kind, ())
            ]
        return chain.from_iterable(chunks)

    def nodes_since(self, count: int, layer: str | None = None) -> Iterator[Node]:
        """The nodes of ``nodes(layer)`` past the first ``count``, in order.

        Equal to ``islice(self.nodes(layer), count, None)``, but the base
        and every segment lying wholly inside the first ``count`` are
        skipped by their lengths instead of walked, so reading a publish's
        new nodes costs the delta, not the net.
        """
        if layer is None:
            nodes = [store._nodes.values() for store in self._stores]
        else:
            nodes = [store._layer_nodes.get(layer, []) for store in self._stores]
        return _skip([(len(part), part) for part in nodes], count)

    def relations_since(self, count: int) -> Iterator[Relation]:
        """The relations of ``relations()`` past the first ``count``, in
        order — ``islice(self.relations(), count, None)`` with whole
        chunks of the base and the segments skipped by their lengths."""
        parts = [
            (len(chunk), chunk) for store in self._stores for chunk in store._relations
        ]
        return _skip(parts, count)

    def out_relations(self, node_id: str, kind: RelationKind) -> list[Relation]:
        """Outgoing relations of ``node_id``, base edges before delta edges."""
        found = self._base.out_relations(node_id, kind)
        for segment in self._segments:
            found += segment._out.get((node_id, kind), ())
        return found

    def in_relations(self, node_id: str, kind: RelationKind) -> list[Relation]:
        """Incoming relations of ``node_id``, base edges before delta edges."""
        found = self._base.in_relations(node_id, kind)
        for segment in self._segments:
            found += segment._in.get((node_id, kind), ())
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
        return sum(store.count_nodes(layer) for store in self._stores)

    def count_relations(self, kind: RelationKind) -> int:
        """Relations of a kind — O(segments) from maintained counters."""
        return sum(store.count_relations(kind) for store in self._stores)

    def stats(self) -> StoreStats:
        """Aggregate statistics over base + deltas (Table 2 shape)."""
        return _stats(self._stores)

    # -------------------------------------------------------------- helpers
    def classes_in_domain(self, domain: str) -> list[ClassNode]:
        """All taxonomy classes of a first-level domain, base first."""
        return [n for s in self._stores for n in s.classes_in_domain(domain)]

    def primitives_in_domain(self, domain: str) -> list[PrimitiveConcept]:
        """All primitive concepts of a first-level domain, base first."""
        return [n for s in self._stores for n in s.primitives_in_domain(domain)]

    def _edge(self, kind: RelationKind, source: str, target: str) -> Relation | None:
        """The stored (kind, source, target) edge in any layer, if any."""
        for store in self._stores:
            existing = store._edge(kind, source, target)
            if existing is not None:
                return existing
        return None


class GenerationalStore:
    """A frozen base store plus copy-on-write delta generations.

    Reads delegate to the currently *published* :class:`GenerationView`
    (lock-free — grab :meth:`current` once to pin a consistent
    generation for a multi-step read).  Writes go to the open delta, an
    unfrozen :class:`AliCoCoStore`, through the same mutation API as
    :class:`AliCoCoStore` — all of it goes through :meth:`add_node` and
    :meth:`add_relations` (``add_relation`` and ``create_*`` included),
    which run the store's own checks against the whole pending state —
    and stays invisible to readers until :meth:`swap` freezes it into
    the next segment and publishes the next generation
    (:meth:`publish` is the same call).

    Writers and ``swap`` serialize on one internal lock; ``swap`` itself
    installs the new view with a single attribute assignment, so
    concurrent readers always see a whole generation.

    The *published* surface is immutable (the serving tier's caching
    contract), even though new generations are prepared behind it.

    Long-lived stores bound their segment chain with :meth:`compact`
    (fold every published segment into a new frozen base — reads stay
    bit-identical, :attr:`generation_id` does not move) either manually
    or automatically via ``compact_after_segments``.

    Args:
        base: The frozen build output (frozen here if it is not yet), or
            a published :class:`GenerationView` to grow from: the store
            then starts at that view, keeping its base, its segments and
            its generation numbering.
        compact_after_segments: When set, every :meth:`swap` that leaves
            more than this many published segments triggers an automatic
            :meth:`compact` — the chain-length bound for stores that
            keep evolving.

    Raises:
        ConfigError: On a non-positive ``compact_after_segments``.
    """

    def __init__(
        self,
        base: AliCoCoStore | GenerationView,
        *,
        compact_after_segments: int | None = None,
    ) -> None:
        if compact_after_segments is not None and compact_after_segments <= 0:
            raise ConfigError(
                "compact_after_segments must be positive, got "
                f"{compact_after_segments}"
            )
        if not isinstance(base, GenerationView):
            base = GenerationView(base.freeze())
        self._view = base
        self._lock = threading.Lock()
        self._open = AliCoCoStore()
        self.compact_after_segments = compact_after_segments

    # ------------------------------------------------------------ published
    @property
    def generation_id(self) -> int:
        """Monotonic id of the currently published generation."""
        return self._view.generation_id

    @property
    def base_generation(self) -> int:
        """Generation id folded into the base (0 until a compaction)."""
        return self._view.base_generation

    def current(self) -> GenerationView:
        """The published view — pin it once per request for consistency."""
        return self._view

    # ------------------------------------------------------------- mutation
    def _pending(self) -> GenerationView:
        """A private view of published + open (writer-side only)."""
        view = self._view
        return GenerationView(
            view._base, view._segments + (self._open,), view.base_generation
        )

    def add_node(self, node: Node) -> Node:
        """Insert a pre-built node into the open delta.

        Raises:
            DuplicateNodeError: If the id exists in any generation or the
                open delta.
            RelationError: If the node type does not match its id prefix.
        """
        with self._lock:
            return self._add_node_locked(node)

    def _add_node_locked(self, node: Node) -> Node:
        self._open._index_node(node, _check_node(node, self._pending()))
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
        published segment, or the open delta).  The result is that of
        :meth:`AliCoCoStore.add_relations`: duplicate (kind, source,
        target) triples — of each other or of an edge in any layer —
        resolve to the stored relation, which is what the returned list
        holds per input edge, and a batch with an invalid edge inserts
        nothing.

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
        open_nodes, open_edge = self._open._nodes, self._open._edge

        def edge(kind: RelationKind, source: str, target: str) -> Relation | None:
            if source in open_nodes or target in open_nodes:
                return open_edge(kind, source, target)
            return pending._edge(kind, source, target)

        stored, fresh = _check_edges(relations, pending, edge)
        self._open._insert_relations(fresh)
        return stored

    def create_class(
        self, name: str, domain: str, parent_id: str | None = None
    ) -> ClassNode:
        """Allocate an id and insert a taxonomy class into the open delta."""
        with self._lock:
            pending = self._pending()
            if parent_id is not None:
                _check_endpoint(pending, parent_id, CLASS_PREFIX)
            node = ClassNode(fresh_id(CLASS_PREFIX, pending), name, domain, parent_id)
            self._add_node_locked(node)
            if parent_id is not None:
                self._add_relations_locked(
                    (Relation(RelationKind.SUBCLASS_OF, node.id, parent_id),)
                )
            return node

    def create_primitive(self, name: str, class_id: str) -> PrimitiveConcept:
        """Allocate an id and insert a primitive concept under ``class_id``."""
        with self._lock:
            pending = self._pending()
            _check_endpoint(pending, class_id, CLASS_PREFIX)
            node = PrimitiveConcept(
                fresh_id(PRIMITIVE_PREFIX, pending),
                name,
                class_id,
                pending.get(class_id).domain,
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
                    fresh_id(ECOMMERCE_PREFIX, self._pending()),
                    text,
                    tuple(text.split()),
                    source,
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
                Item(
                    fresh_id(ITEM_PREFIX, self._pending()),
                    title,
                    shop,
                    dict(properties or {}),
                )
            )

    # ---------------------------------------------------------- publication
    def swap(self) -> int:
        """Freeze the open delta into the next segment and atomically
        publish it as the next generation.

        A no-op (current :attr:`generation_id` returned) when the open
        delta is empty — an empty publish must not mint a generation that
        lengthens the chain and invalidates generation-keyed caches.

        When ``compact_after_segments`` is configured and the publish
        leaves more than that many segments, the chain is folded into a
        new base before returning (reads stay bit-identical).

        Returns:
            The now-published generation id.
        """
        with self._lock:
            segment, view = self._open, self._view
            if not segment._nodes and not segment._kind_counts:
                return view.generation_id
            self._open = AliCoCoStore()
            view = GenerationView(
                view._base,
                view._segments + (segment.freeze(),),
                view.base_generation,
            )
            self._view = view  # single assignment: atomic publish
            if (
                self.compact_after_segments is not None
                and len(view._segments) > self.compact_after_segments
            ):
                self._compact_locked()
            return view.generation_id

    def publish(self) -> int:
        """Publish whatever the open delta holds: :meth:`swap`."""
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
        mutates the old base or a published segment); the open delta is
        *not* folded — it belongs to the next generation and stays
        writable behind the new base.

        Returns:
            The (unchanged) published generation id.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        view = self._view
        if view._segments:
            # Single assignment: readers see the overlay or the folded
            # base, both of which answer every read identically.
            self._view = GenerationView(
                view._base.fold(view._segments), (), view.generation_id
            )
        return view.generation_id

    @property
    def open_counts(self) -> tuple[int, int]:
        """(nodes, relations) waiting in the open delta — for observability."""
        with self._lock:
            return (len(self._open), sum(self._open._kind_counts.values()))

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
    def published_segments(self) -> tuple[AliCoCoStore, ...]:
        """Frozen segments of the published view, one per publish, in order."""
        return self._view._segments


def flatten(view: GenerationView | GenerationalStore) -> AliCoCoStore:
    """Replay a generation view into one monolithic (unfrozen) store.

    Node objects are shared, not copied (they are immutable); nodes and
    relations replay in global insertion order through the trusted bulk
    paths (every one was validated when the view's layers took it), so
    the flattened store answers every read identically to the view.
    Used wherever a plain store is wanted (sharding, tools, a loaded
    snapshot as one store) and as the oracle :meth:`GenerationalStore.compact` is tested
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

