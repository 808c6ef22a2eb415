"""The validated batch path: ``add_relations`` on both store types.

``add_relations(batch)`` must leave a store exactly as looping
``add_relation`` over the batch would — the same stored edges in the same
order, duplicates (inside the batch or of any older layer) resolving to
the stored edge — except that a batch with an invalid edge stages
nothing.  On a :class:`~repro.kg.generations.GenerationalStore` the
batch may touch the base, published segments (or a compacted base)
and the open delta at once; an edge with an endpoint in
the open delta is checked for duplicates there only, which the property
test below holds to the same answers as the full walk.

A second property runs whole histories — batches, new nodes,
``publish`` and ``compact`` (a fold of a fold included) in random order
— and after every step holds every keyed and bulk read of the published
view to :func:`~repro.kg.generations.flatten` and to a plain store given
the same published writes, and every earlier view to what it read when
it was published.

CI reruns the property tests with ``--hypothesis-profile=batch-relations``
(a larger example budget); tier-1 runs hypothesis's default.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    DataError,
    FrozenStoreError,
    GraphError,
    NodeNotFoundError,
    RelationError,
)
from repro.kg import (
    AliCoCoStore,
    ClassNode,
    ECommerceConcept,
    GenerationalStore,
    Item,
    PrimitiveConcept,
    Relation,
    RelationKind,
    flatten,
)
from repro.kg.ids import layer_of
from repro.kg.serialize import _write, load_snapshot

K = RelationKind


def _class(i, parent=None):
    return ClassNode(f"cls_{i}", f"class {i}", "Category", parent)


def _primitive(i):
    return PrimitiveConcept(f"pc_{i}", f"prim {i % 2}", "cls_1", "Category")


def _concept(i):
    text = f"concept {i % 3}"
    return ECommerceConcept(f"ec_{i}", text, tuple(text.split()))


def _item(i):
    return Item(f"item_{i}", f"item title {i}")


#: The layers a generational scenario is written in, oldest first: each
#: holds (nodes, relations); relations may name any node written so far.
#: Every layer but "open" becomes a segment: the "published-*" layers by
#: ``publish()``, the "staged" layer by calling ``swap()`` directly.
LAYERS = {
    "base": (
        [_class(0), _class(1, "cls_0"), _primitive(0), _primitive(1)]
        + [_primitive(2), _concept(0), _concept(1), _item(0), _item(1)],
        [
            Relation(K.SUBCLASS_OF, "cls_1", "cls_0"),
            Relation(K.INSTANCE_OF, "pc_0", "cls_1"),
            Relation(K.ISA_PRIMITIVE, "pc_1", "pc_0"),
            Relation(K.INTERPRETED_BY, "ec_0", "pc_0", name="Category"),
            Relation(K.ITEM_ECOMMERCE, "item_0", "ec_0", weight=0.7),
            Relation(K.ITEM_PRIMITIVE, "item_1", "pc_2"),
        ],
    ),
    "published-1": (
        [_primitive(3), _concept(2), _item(2)],
        [
            Relation(K.ITEM_ECOMMERCE, "item_1", "ec_1", weight=0.6),
            Relation(K.ITEM_ECOMMERCE, "item_2", "ec_2", weight=0.9),
            Relation(K.INTERPRETED_BY, "ec_2", "pc_3"),
        ],
    ),
    "published-2": (
        [_concept(3), _item(3)],
        [
            Relation(K.ISA_ECOMMERCE, "ec_3", "ec_0"),
            Relation(K.ITEM_ECOMMERCE, "item_3", "ec_1", weight=0.5),
            Relation(K.ITEM_PRIMITIVE, "item_0", "pc_3"),
        ],
    ),
    "staged": (
        [_concept(4), _item(4)],
        [
            Relation(K.ITEM_ECOMMERCE, "item_4", "ec_4", weight=0.8),
            Relation(K.ITEM_ECOMMERCE, "item_0", "ec_2", weight=0.4),
        ],
    ),
    "open": (
        [_concept(5), _primitive(4), _item(5)],
        [
            Relation(K.ITEM_ECOMMERCE, "item_5", "ec_5", weight=0.3),
            Relation(K.INTERPRETED_BY, "ec_5", "pc_4"),
            Relation(K.ITEM_PRIMITIVE, "item_2", "pc_1"),
        ],
    ),
}

NODE_IDS = [node.id for nodes, _ in LAYERS.values() for node in nodes]
MISSING_IDS = ["cls_9", "pc_99", "ec_99", "item_99"]
STORED = [relation for _, relations in LAYERS.values() for relation in relations]
#: Kinds whose two endpoint layers both have nodes in every scenario.
KINDS = [
    K.SUBCLASS_OF,
    K.INSTANCE_OF,
    K.ISA_PRIMITIVE,
    K.ISA_ECOMMERCE,
    K.INTERPRETED_BY,
    K.ITEM_PRIMITIVE,
    K.ITEM_ECOMMERCE,
]
WEIGHTS = [1.0, 0.25, 0.5]

#: Scenario shapes: a plain store, and generational stores over every
#: mix of layers — three published segments, or the first folded into
#: the base by ``compact()`` before the others were published.
SHAPES = ["plain", "segments", "compacted"]


def _plain():
    store = AliCoCoStore()
    for nodes, relations in LAYERS.values():
        for node in nodes:
            store.add_node(node)
        for relation in relations:
            store.add_relation(relation)
    return store


def _generational(compacted: bool):
    base_nodes, base_relations = LAYERS["base"]
    base = AliCoCoStore()
    for node in base_nodes:
        base.add_node(node)
    for relation in base_relations:
        base.add_relation(relation)
    store = GenerationalStore(base)
    for name in ("published-1", "published-2", "staged", "open"):
        nodes, relations = LAYERS[name]
        for node in nodes:
            store.add_node(node)
        for relation in relations:
            store.add_relation(relation)
        if name.startswith("published"):
            store.publish()
            if compacted and name == "published-1":
                store.compact()
        elif name == "staged":
            store.swap()
    return store


def _scenario(shape: str):
    return _plain() if shape == "plain" else _generational(shape == "compacted")


def _reads(store):
    """Every keyed read, over everything written (a generational store's
    pending state is published first, so the open delta is read too)."""
    if isinstance(store, GenerationalStore):
        store.publish()
    reads = {
        "relations": list(store.relations()),
        "nodes": [node.id for node in store.nodes()],
        "stats": store.stats(),
    }
    for kind in RelationKind:
        reads["kind", kind] = list(store.relations(kind))
        reads["count", kind] = store.count_relations(kind)
        for node_id in NODE_IDS:
            reads["out", node_id, kind] = store.out_relations(node_id, kind)
            reads["in", node_id, kind] = store.in_relations(node_id, kind)
    return reads


def _loop(store, batch):
    """The oracle: ``add_relation`` per edge; (stored edges, error)."""
    stored = []
    for relation in batch:
        try:
            stored.append(store.add_relation(relation))
        except GraphError as error:
            return stored, error
    return stored, None


def _open_counts(store):
    return store.open_counts if isinstance(store, GenerationalStore) else None


@st.composite
def _edges(draw):
    """One edge: fresh and valid, a copy of a stored edge (any layer,
    maybe reweighted), or arbitrary endpoints — a missing node or a
    wrong layer for its kind, most of the time."""
    weight = draw(st.sampled_from(WEIGHTS))
    choice = draw(st.sampled_from(["valid", "valid", "stored", "arbitrary"]))
    if choice == "stored":
        old = draw(st.sampled_from(STORED))
        return Relation(old.kind, old.source, old.target, weight=weight)
    kind = draw(st.sampled_from(KINDS))
    if choice == "valid":
        sources = [i for i in NODE_IDS if layer_of(i) == kind.source_layer]
        targets = [i for i in NODE_IDS if layer_of(i) == kind.target_layer]
    else:
        sources = targets = NODE_IDS + MISSING_IDS
    return Relation(
        kind,
        draw(st.sampled_from(sources)),
        draw(st.sampled_from(targets)),
        weight=weight,
    )


@st.composite
def _batches(draw):
    """A batch of edges with some of its own edges repeated in it."""
    batch = draw(st.lists(_edges(), max_size=8))
    for _ in range(draw(st.integers(0, 3)) if batch else 0):
        old = draw(st.sampled_from(batch))
        weight = draw(st.sampled_from(WEIGHTS))
        batch.insert(
            draw(st.integers(0, len(batch))),
            Relation(old.kind, old.source, old.target, weight=weight),
        )
    return batch


class TestBatchProperty:
    @settings(deadline=None)
    @given(shape=st.sampled_from(SHAPES), batch=_batches())
    def test_batch_equals_the_add_relation_loop(self, shape, batch):
        store, twin, untouched = (_scenario(shape) for _ in range(3))
        stored, error = _loop(twin, batch)
        if error is None:
            assert store.add_relations(batch) == stored
            assert _reads(store) == _reads(twin)
        else:
            counts = _open_counts(store)
            with pytest.raises(type(error)) as raised:
                store.add_relations(batch)
            assert str(raised.value) == str(error)
            assert _open_counts(store) == counts
            assert _reads(store) == _reads(untouched)

    @settings(deadline=None)
    @given(batch=_batches())
    def test_generational_batches_answer_like_the_plain_store(self, batch):
        """The open-delta shortcut and the segment walk against the
        plain store's single key index: same stored edges, same reads."""
        plain = _plain()
        try:
            expected = plain.add_relations(batch)
        except GraphError as error:
            for shape in ("segments", "compacted"):
                with pytest.raises(type(error)) as raised:
                    _scenario(shape).add_relations(batch)
                assert str(raised.value) == str(error)
            return
        for shape in ("segments", "compacted"):
            store = _scenario(shape)
            assert store.add_relations(batch) == expected
            assert _reads(store) == _reads(plain)


class TestBatchSemantics:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_stored_edges_come_back_per_input_edge(self, shape):
        store = _scenario(shape)
        older = Relation(K.ITEM_ECOMMERCE, "item_0", "ec_0", weight=0.1)
        fresh = Relation(K.ITEM_ECOMMERCE, "item_1", "ec_3", weight=0.2)
        again = Relation(K.ITEM_ECOMMERCE, "item_1", "ec_3", weight=0.9)
        opened = Relation(K.ITEM_ECOMMERCE, "item_5", "ec_5", weight=0.1)
        stored = store.add_relations([older, fresh, again, opened])
        assert stored[0] is STORED[4]  # the base edge, not the reweighted copy
        assert stored[1] is fresh and stored[2] is fresh
        assert stored[3] is LAYERS["open"][1][0]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "bad, error",
        [
            (Relation(K.ITEM_ECOMMERCE, "item_99", "ec_0"), NodeNotFoundError),
            (Relation(K.ITEM_ECOMMERCE, "item_5", "ec_99"), NodeNotFoundError),
            (Relation(K.ITEM_ECOMMERCE, "item_0", "pc_0"), RelationError),
            (Relation(K.INTERPRETED_BY, "ec_5", "ec_4"), RelationError),
        ],
    )
    def test_a_failing_batch_stages_nothing(self, shape, bad, error):
        store, untouched = _scenario(shape), _scenario(shape)
        counts = _open_counts(store)
        good = Relation(K.ITEM_ECOMMERCE, "item_5", "ec_0", weight=0.5)
        with pytest.raises(error):
            store.add_relations([good, bad])
        assert _open_counts(store) == counts
        assert _reads(store) == _reads(untouched)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_add_relation_is_the_one_edge_batch(self, shape, monkeypatch):
        store = _scenario(shape)
        seen = []
        batch_path = type(store).add_relations

        def spy(self, relations):
            relations = list(relations)
            seen.append(relations)
            return batch_path(self, relations)

        monkeypatch.setattr(type(store), "add_relations", spy)
        edge = Relation(K.ITEM_ECOMMERCE, "item_4", "ec_1")
        assert store.add_relation(edge) is edge
        assert seen == [[edge]]

    def test_frozen_plain_store_refuses_a_batch(self):
        store = _plain().freeze()
        with pytest.raises(FrozenStoreError):
            store.add_relations([Relation(K.ITEM_ECOMMERCE, "item_4", "ec_1")])

    def test_an_empty_batch_stages_nothing(self):
        store = _generational(compacted=False)
        counts = store.open_counts
        assert store.add_relations([]) == []
        assert store.open_counts == counts


#: Node writes every store refuses: a copy of the first node of each
#: pending layer, and a node whose type does not match its id prefix.
BAD_NODES = {
    **{f"copy-in-{name}": nodes[0] for name, (nodes, _) in LAYERS.items()},
    "type-mismatch": Item("ec_77", "an item in the concept layer"),
}


class TestNodeWriteParity:
    @pytest.mark.parametrize("node", BAD_NODES.values(), ids=list(BAD_NODES))
    def test_node_writes_fail_alike_everywhere(self, node, tmp_path):
        """Both stores share one node check, and the snapshot loader
        applies it to the node table under its own error type."""
        with pytest.raises(GraphError) as plain:
            _plain().add_node(node)
        for shape in ("segments", "compacted"):
            with pytest.raises(type(plain.value)) as generational:
                _scenario(shape).add_node(node)
            assert str(generational.value) == str(plain.value)
        store = _plain()
        path = tmp_path / "bad.snapshot"
        _write(
            path,
            [
                ("base", list(store.nodes()), list(store.relations())),
                ("delta:1", [node], []),
            ],
            config_fingerprint="",
            base_generation=0,
            index_states=None,
            model_states=None,
        )
        with pytest.raises(DataError, match="repeated or in the wrong layer"):
            load_snapshot(path)


# ------------------------------------------------------------------ histories
#: The layers a history writes after the base, one ``grow`` step each.
GROWN = ["published-1", "published-2", "staged", "open"]

#: History step kinds, weighted towards the steps that change what a
#: fold sees.
STEP_KINDS = ["batch", "batch", "grow", "grow", "publish", "publish", "compact"]


@st.composite
def _written_edges(draw, written):
    """A valid edge between written nodes, when their layers allow one."""
    kinds = [
        kind
        for kind in KINDS
        if any(layer_of(i) == kind.source_layer for i in written)
        and any(layer_of(i) == kind.target_layer for i in written)
    ]
    kind = draw(st.sampled_from(kinds))
    return Relation(
        kind,
        draw(st.sampled_from([i for i in written if layer_of(i) == kind.source_layer])),
        draw(st.sampled_from([i for i in written if layer_of(i) == kind.target_layer])),
        weight=draw(st.sampled_from(WEIGHTS)),
    )


def _base_store():
    nodes, relations = LAYERS["base"]
    store = AliCoCoStore()
    for node in nodes:
        store.add_node(node)
    store.add_relations(relations)
    return store


def _history_reads(store):
    """Every keyed and bulk read of a store or view; the delta reads at
    every count, so every chunk and segment boundary is crossed."""
    relations = list(store.relations())
    layers = {
        layer: [node.id for node in store.nodes(layer)]
        for layer in (None, "cls", "pc", "ec", "item")
    }
    reads = {"relations": relations, "nodes": layers, "stats": store.stats()}
    for count in range(len(relations) + 1):
        reads["relations since", count] = list(store.relations_since(count))
    for layer, ids in layers.items():
        for count in range(len(ids) + 1):
            reads["nodes since", layer, count] = [
                node.id for node in store.nodes_since(count, layer)
            ]
    for kind in RelationKind:
        reads["kind", kind] = list(store.relations(kind))
        reads["count", kind] = store.count_relations(kind)
        for node_id in layers[None]:
            reads["out", node_id, kind] = store.out_relations(node_id, kind)
            reads["in", node_id, kind] = store.in_relations(node_id, kind)
    for node in store.nodes():
        layer = layer_of(node.id)
        name = AliCoCoStore._name_of(node)
        reads["name", layer, name] = [n.id for n in store.find_by_name(layer, name)]
    reads["classes"] = [node.id for node in store.classes_in_domain("Category")]
    reads["primitives"] = [node.id for node in store.primitives_in_domain("Category")]
    return reads


def _write_both(store, pending, nodes, relations):
    """Write to the generational store and its pending twin; the two
    must store the same edges, or refuse the batch with the same error.
    Returns whether the write went in."""
    for node in nodes:
        assert store.add_node(node) == pending.add_node(node)
    try:
        expected = pending.add_relations(relations)
    except GraphError as error:
        with pytest.raises(type(error)) as raised:
            store.add_relations(relations)
        assert str(raised.value) == str(error)
        return False
    assert store.add_relations(relations) == expected
    return True


class TestHistoryProperty:
    @settings(deadline=None)
    @given(data=st.data())
    def test_every_history_reads_like_flatten(self, data):
        """A generational store against two plain stores: ``pending``
        takes every write at once (so each batch must give the same
        stored edges or the same error), ``published`` takes them at
        ``publish`` (so the published view must read like it)."""
        store = GenerationalStore(_base_store())
        pending, published = _base_store(), _base_store()
        unpublished: list = []
        grown = iter(GROWN)
        pinned: list = []
        for _ in range(data.draw(st.integers(1, 10), label="steps")):
            step = data.draw(st.sampled_from(STEP_KINDS), label="step")
            if step == "batch":
                written = [node.id for node in pending.nodes()]
                edges = st.one_of(_written_edges(written), _edges())
                write = ((), data.draw(st.lists(edges, max_size=6)))
            elif step == "grow":
                write = LAYERS.get(next(grown, None))
            else:
                write = None
            if write is not None and _write_both(store, pending, *write):
                unpublished.append(write)
            if step == "publish":
                store.publish()
                for nodes, relations in unpublished:
                    for node in nodes:
                        published.add_node(node)
                    published.add_relations(relations)
                unpublished = []
            elif step == "compact":
                store.compact()
            view = store.current()
            reads = _history_reads(view)
            assert reads == _history_reads(flatten(view)), step
            assert reads == _history_reads(published), step
            for earlier, expected in pinned:
                assert _history_reads(earlier) == expected, step
            if step in ("publish", "compact"):
                pinned.append((view, reads))
