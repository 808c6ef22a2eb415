"""Tests for the graph store, queries, stats and serialization."""

import pickle

import pytest

from repro.errors import (
    DuplicateNodeError, FrozenStoreError, NodeNotFoundError, RelationError,
    TaxonomyError,
)
from repro.kg import (
    AliCoCoStore, ECommerceConcept, GenerationalStore, Relation, RelationKind,
)
from repro.kg import query as kgq
from repro.kg.generations import flatten
from repro.kg.ids import layer_of
from repro.kg.serialize import load_snapshot, save_generations, save_snapshot
from repro.serving.shard import split_store


@pytest.fixture
def store():
    store = AliCoCoStore()
    category = store.create_class("Category", domain="Category")
    clothing = store.create_class("Clothing", domain="Category",
                                  parent_id=category.id)
    dress_class = store.create_class("Dress", domain="Category",
                                     parent_id=clothing.id)
    dress = store.create_primitive("dress", dress_class.id)
    maxi = store.create_primitive("maxi dress", dress_class.id)
    store.add_relation(Relation(RelationKind.ISA_PRIMITIVE, maxi.id, dress.id))
    concept = store.create_ecommerce("summer dress for women")
    store.add_relation(Relation(RelationKind.INTERPRETED_BY, concept.id,
                                dress.id))
    item = store.create_item("floral maxi dress", properties={"Color": "red"})
    store.add_relation(Relation(RelationKind.ITEM_PRIMITIVE, item.id, maxi.id))
    store.add_relation(Relation(RelationKind.ITEM_ECOMMERCE, item.id,
                                concept.id, weight=0.9))
    return store


class TestRelationKindLayers:
    """Every kind's endpoint layers, as the store validates them."""

    TABLE = {
        RelationKind.SUBCLASS_OF: ("cls", "cls"),
        RelationKind.INSTANCE_OF: ("pc", "cls"),
        RelationKind.ISA_PRIMITIVE: ("pc", "pc"),
        RelationKind.RELATED_PRIMITIVE: ("pc", "pc"),
        RelationKind.ISA_ECOMMERCE: ("ec", "ec"),
        RelationKind.INTERPRETED_BY: ("ec", "pc"),
        RelationKind.ITEM_PRIMITIVE: ("item", "pc"),
        RelationKind.ITEM_ECOMMERCE: ("item", "ec"),
        RelationKind.SCHEMA: ("cls", "cls"),
    }

    def test_every_kind_is_pinned(self):
        assert list(self.TABLE) == list(RelationKind)

    @pytest.mark.parametrize("kind", list(RelationKind))
    def test_layers_are_plain_attributes(self, kind):
        assert (kind.source_layer, kind.target_layer) == self.TABLE[kind]
        assert (kind.source_layer, kind.target_layer) == kind.value[:2]
        # Set on the member itself, not computed by a class property.
        assert "source_layer" in vars(kind) and "target_layer" in vars(kind)

    def test_layers_survive_pickling(self):
        import pickle

        for kind in RelationKind:
            clone = pickle.loads(pickle.dumps(kind))
            assert clone is kind
            assert clone.source_layer == self.TABLE[kind][0]


class TestStoreBasics:
    def test_ids_have_layer_prefixes(self, store):
        for node in store.nodes():
            assert layer_of(node.id) in ("cls", "pc", "ec", "item")

    def test_duplicate_node_rejected(self, store):
        node = next(store.nodes("pc"))
        with pytest.raises(DuplicateNodeError):
            store.add_node(node)

    def test_missing_node_raises(self, store):
        with pytest.raises(NodeNotFoundError):
            store.get("pc_9999")

    def test_relation_endpoint_validation(self, store):
        item = next(store.nodes("item"))
        concept = next(store.nodes("ec"))
        with pytest.raises(RelationError):
            # ITEM_PRIMITIVE must target a primitive, not an ec concept.
            store.add_relation(Relation(RelationKind.ITEM_PRIMITIVE,
                                        item.id, concept.id))

    def test_relation_missing_endpoint(self, store):
        item = next(store.nodes("item"))
        with pytest.raises(NodeNotFoundError):
            store.add_relation(Relation(RelationKind.ITEM_PRIMITIVE,
                                        item.id, "pc_404"))

    def test_duplicate_relation_ignored(self, store):
        before = store.count_relations(RelationKind.ISA_PRIMITIVE)
        maxi = store.find_by_name("pc", "maxi dress")[0]
        dress = store.find_by_name("pc", "dress")[0]
        store.add_relation(Relation(RelationKind.ISA_PRIMITIVE, maxi.id,
                                    dress.id))
        assert store.count_relations(RelationKind.ISA_PRIMITIVE) == before

    def test_duplicate_relation_returns_stored_edge(self, store):
        # Regression: a duplicate insert must hand back the edge that is
        # actually in the net, not the discarded new object.
        item = next(store.nodes("item"))
        concept = next(store.nodes("ec"))
        stored = store.add_relation(Relation(
            RelationKind.ITEM_ECOMMERCE, item.id, concept.id, weight=0.1))
        assert stored.weight == 0.9  # the original edge from the fixture
        assert stored in store.out_relations(item.id,
                                             RelationKind.ITEM_ECOMMERCE)

    def test_counters_match_scans(self, store):
        # The O(1) counters must agree with a full scan after mutations.
        for layer in ("cls", "pc", "ec", "item"):
            assert store.count_nodes(layer) == \
                sum(1 for n in store.nodes() if layer_of(n.id) == layer)
        for kind in RelationKind:
            assert store.count_relations(kind) == \
                sum(1 for r in store.relations() if r.kind == kind)

    def test_layer_lists_match_the_filtered_walk(self, store):
        store.create_item("late item")
        store.create_ecommerce("late concept")
        for layer in ("cls", "pc", "ec", "item"):
            assert list(store.nodes(layer)) == \
                [n for n in store.nodes() if layer_of(n.id) == layer]
        assert list(store.nodes("no-such-layer")) == []

    def test_domain_indexes_match_scans(self, store):
        classes = store.classes_in_domain("Category")
        assert {c.id for c in classes} == \
            {n.id for n in store.nodes("cls") if n.domain == "Category"}
        primitives = store.primitives_in_domain("Category")
        assert {p.id for p in primitives} == \
            {n.id for n in store.nodes("pc") if n.domain == "Category"}
        assert store.classes_in_domain("NoSuchDomain") == []
        assert store.primitives_in_domain("NoSuchDomain") == []

    def test_same_name_different_ids(self, store):
        cls = store.find_by_name("cls", "Dress")[0]
        first = store.create_primitive("village", cls.id)
        second = store.create_primitive("village", cls.id)
        assert first.id != second.id
        assert len(store.find_by_name("pc", "village")) == 2

    def test_create_primitive_unknown_class(self, store):
        with pytest.raises(NodeNotFoundError):
            store.create_primitive("thing", "cls_404")

    def test_trusted_node_insert_indexes_like_add_node(self, store):
        copy = AliCoCoStore()
        assert copy.add_nodes_trusted(store.nodes()) == len(store)
        assert [n.id for n in copy.nodes()] == [n.id for n in store.nodes()]
        for node in store.nodes():
            layer = layer_of(node.id)
            name = AliCoCoStore._name_of(node)
            assert copy.find_by_name(layer, name) == store.find_by_name(layer, name)
        for layer in ("cls", "pc", "ec", "item"):
            assert list(copy.nodes(layer)) == list(store.nodes(layer))
            assert copy.count_nodes(layer) == store.count_nodes(layer)
        assert copy.classes_in_domain("Category") == \
            store.classes_in_domain("Category")
        assert copy.primitives_in_domain("Category") == \
            store.primitives_in_domain("Category")

    def test_trusted_node_insert_refuses_duplicates_and_frozen(self, store):
        node = next(store.nodes("ec"))
        with pytest.raises(DuplicateNodeError):
            store.add_nodes_trusted([node])
        with pytest.raises(FrozenStoreError):
            AliCoCoStore().freeze().add_nodes_trusted([node])

    def test_relations_since_equals_the_walk(self, store):
        relations = list(store.relations())
        for count in range(len(relations) + 2):
            assert list(store.relations_since(count)) == relations[count:]


class TestQueries:
    def test_class_path(self, store):
        dress_class = store.find_by_name("cls", "Dress")[0]
        path = kgq.class_path(store, dress_class.id)
        assert [c.name for c in path] == ["Category", "Clothing", "Dress"]

    def test_class_path_cycle_detected(self):
        store = AliCoCoStore()
        store.create_class("A", domain="Category")
        # Manually create a cyclic node (bypassing create_class validation).
        from repro.kg.nodes import ClassNode
        b = ClassNode("cls_99", "B", "Category", parent_id="cls_100")
        c = ClassNode("cls_100", "C", "Category", parent_id="cls_99")
        store.add_node(b)
        store.add_node(c)
        with pytest.raises(TaxonomyError):
            kgq.class_path(store, "cls_99")

    def test_hypernyms_and_hyponyms(self, store):
        maxi = store.find_by_name("pc", "maxi dress")[0]
        dress = store.find_by_name("pc", "dress")[0]
        assert [n.id for n in kgq.hypernyms(store, maxi.id)] == [dress.id]
        assert [n.id for n in kgq.hyponyms(store, dress.id)] == [maxi.id]
        assert kgq.is_a(store, maxi.id, dress.id)
        assert not kgq.is_a(store, dress.id, maxi.id)

    def test_transitive_hypernyms(self, store):
        cls = store.find_by_name("cls", "Dress")[0]
        dress = store.find_by_name("pc", "dress")[0]
        garment = store.create_primitive("garment", cls.id)
        store.add_relation(Relation(RelationKind.ISA_PRIMITIVE, dress.id,
                                    garment.id))
        maxi = store.find_by_name("pc", "maxi dress")[0]
        closure = kgq.hypernyms(store, maxi.id, transitive=True)
        assert {n.name for n in closure} == {"dress", "garment"}

    def test_items_for_concept_sorted_by_weight(self, store):
        concept = next(store.nodes("ec"))
        other = store.create_item("plain dress")
        store.add_relation(Relation(RelationKind.ITEM_ECOMMERCE, other.id,
                                    concept.id, weight=0.2))
        items = kgq.items_for_concept(store, concept.id)
        assert items[0].title == "floral maxi dress"
        assert kgq.items_for_concept(store, concept.id, top_k=1) == items[:1]

    def test_interpretation(self, store):
        concept = next(store.nodes("ec"))
        names = [p.name for p in kgq.interpretation(store, concept.id)]
        assert names == ["dress"]

    def test_concepts_for_item(self, store):
        item = next(store.nodes("item"))
        concepts = kgq.concepts_for_item(store, item.id)
        assert concepts[0].text == "summer dress for women"


class TestStats:
    def test_counts(self, store):
        stats = store.stats()
        assert stats.primitive_concepts == 2
        assert stats.ecommerce_concepts == 1
        assert stats.items == 1
        assert stats.isa_primitive == 1
        assert stats.item_primitive == 1
        assert stats.item_ecommerce == 1
        assert stats.ecommerce_primitive == 1
        assert stats.linked_item_fraction == 1.0

    def test_averages(self, store):
        stats = store.stats()
        assert stats.avg_primitive_per_item == 1.0
        assert stats.avg_items_per_ecommerce == 1.0

    def test_summary_mentions_layers(self, store):
        text = store.stats().summary()
        assert "Primitive concepts" in text
        assert "E-commerce" in text


class TestSerialization:
    def test_roundtrip(self, store, tmp_path):
        path = tmp_path / "net.snapshot"
        save_snapshot(store, path)
        loaded = load_snapshot(path).store
        assert len(loaded) == len(store)
        assert loaded.stats() == store.stats()
        concept = next(loaded.nodes("ec"))
        assert isinstance(concept, ECommerceConcept)
        assert concept.tokens == ("summer", "dress", "for", "women")

    def test_roundtrip_preserves_weights(self, store, tmp_path):
        path = tmp_path / "net.snapshot"
        save_snapshot(store, path)
        loaded = load_snapshot(path).store
        weights = [r.weight for r in loaded.relations(RelationKind.ITEM_ECOMMERCE)]
        assert weights == [0.9]


class TestRelationValue:
    """``Relation`` is a NamedTuple value: what callers may rely on."""

    def test_positional_and_keyword_construction_with_defaults(self):
        kind = RelationKind.ISA_PRIMITIVE
        positional = Relation(kind, "pc_1", "pc_2")
        keyword = Relation(kind=kind, source="pc_1", target="pc_2")
        assert positional == keyword == Relation(kind, "pc_1", "pc_2", 1.0, "")
        assert (keyword.weight, keyword.name) == (1.0, "")
        named = Relation(kind, "pc_1", "pc_2", name="color", weight=0.5)
        assert (named.weight, named.name) == (0.5, "color")
        # Equality and hashing are the field tuple's.
        fields = (kind, "pc_1", "pc_2", 0.5, "color")
        assert named == fields and hash(named) == hash(fields)
        with pytest.raises(TypeError):
            Relation(kind, "pc_1")

    def test_fields_are_read_only_and_there_is_no_dict(self, store):
        relation = next(store.relations(RelationKind.ITEM_ECOMMERCE))
        for field in Relation._fields:
            with pytest.raises(AttributeError):
                setattr(relation, field, None)
        with pytest.raises(AttributeError):
            relation.extra = 1
        assert not hasattr(relation, "__dict__")
        assert relation.weight == 0.9

    def test_relations_pickle_round_trip(self, store):
        for relation in store.relations():
            clone = pickle.loads(pickle.dumps(relation))
            assert type(clone) is Relation
            assert clone == relation and hash(clone) == hash(relation)

    def test_loaded_split_and_flattened_edges_are_the_built_ones(
            self, store, tmp_path):
        base = list(store.relations())
        generational = GenerationalStore(store.freeze())
        concept = generational.create_ecommerce("maxi dress for party")
        dress = generational.find_by_name("pc", "maxi dress")[0]
        generational.add_relation(Relation(
            RelationKind.INTERPRETED_BY, concept.id, dress.id, 0.75, "style"))
        generational.publish()
        built = list(generational.relations())
        assert len(built) == len(base) + 1

        path = tmp_path / "net.gen.snap"
        save_generations(generational, path)
        loaded = load_snapshot(path).store
        read_back = {
            "loaded base": list(loaded._base.relations()),
            "loaded delta": [relation for segment in loaded._segments
                             for relation in segment.relations()],
            "loaded": list(loaded.relations()),
            "flatten loaded": list(flatten(loaded).relations()),
            "flatten": list(flatten(generational).relations()),
            "split": [relation for shard in split_store(store, 2)
                      for relation in shard.relations()],
        }
        assert read_back["loaded base"] == base
        assert read_back["loaded delta"] == built[len(base):]
        for how in ("loaded", "flatten loaded", "flatten"):
            assert read_back[how] == built, how
            assert [hash(r) for r in read_back[how]] == [hash(r) for r in built]
        assert set(read_back["split"]) == set(base)
        for how, relations in read_back.items():
            assert all(type(r) is Relation for r in relations), how
