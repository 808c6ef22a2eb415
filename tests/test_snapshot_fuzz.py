"""Fuzzing snapshot format 2: damage is always a DataError, never a build.

A small generational net (every layer, named and weighted relations, two
delta segments, an index state and a model state) is saved once.  Every
truncation, every appended suffix and every single-bit flip of that file
must raise :class:`DataError` from :func:`load_snapshot`, and the bulk
build paths must never be entered: the tests replace them, and
``add_node``, with ones that fail.

The example budget is hypothesis's default in tier-1; CI runs this
module again under the larger ``snapshot-fuzz`` profile registered in
``tests/conftest.py``.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DataError
from repro.kg import AliCoCoStore, GenerationalStore, Relation, RelationKind
from repro.kg.serialize import MAGIC, load_snapshot, save_generations
from repro.matching.bm25 import BM25Index
from repro.ml import Linear
from repro.ml.serialize import module_state_record


def _net() -> GenerationalStore:
    store = AliCoCoStore()
    dress = store.create_class("Dress", "Category")
    event = store.create_class("Party", "Event")
    store.add_relation(
        Relation(RelationKind.SCHEMA, dress.id, event.id, 0.5, "suitable_when")
    )
    red = store.create_primitive("red", dress.id)
    gown = store.create_primitive("gown", dress.id)
    store.add_relation(Relation(RelationKind.ISA_PRIMITIVE, gown.id, red.id, 0.25))
    concept = store.create_ecommerce("red gown for party")
    store.add_relation(
        Relation(RelationKind.INTERPRETED_BY, concept.id, red.id, 1.0, "color")
    )
    item = store.create_item("red party gown", properties={"color": "red"})
    store.add_relation(Relation(RelationKind.ITEM_ECOMMERCE, item.id, concept.id, 0.9))
    store.add_relation(Relation(RelationKind.ITEM_PRIMITIVE, item.id, gown.id))
    generational = GenerationalStore(store.freeze())
    for tag in ("one", "two"):
        fresh = generational.create_ecommerce(f"fresh {tag} gown")
        generational.add_relation(
            Relation(RelationKind.INTERPRETED_BY, fresh.id, gown.id, 0.75, "style")
        )
        generational.publish()
    return generational


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The saved file, its regions by name, and a path for damaged copies."""
    directory = tmp_path_factory.mktemp("fuzz")
    net = _net()
    concepts = {node.id: node.tokens for node in net.nodes("ec")}
    path = directory / "net.snapshot"
    save_generations(
        net,
        path,
        config_fingerprint="fuzz",
        index_states={"bm25-concepts": BM25Index().fit(concepts).to_state()},
        model_states={
            "demo": module_state_record(Linear(3, 2, np.random.default_rng(0)))
        },
    )
    data = path.read_bytes()
    (length,) = struct.unpack_from("<Q", data, len(MAGIC))
    body = len(MAGIC) + 8
    start = body + length + 32
    regions = {
        "magic": (0, len(MAGIC)),
        "header length": (len(MAGIC), body),
        "header": (body, body + length),
        "header digest": (body + length, start),
    }
    for entry in json.loads(data[body : body + length])["sections"]:
        offset = start + entry["offset"]
        regions[entry["name"]] = (offset, offset + entry["length"])
    expected = {"base", "delta:1", "delta:2", "index:bm25-concepts", "model:demo"}
    assert expected <= set(regions)
    return data, regions, directory / "damaged.snapshot"


def _assert_rejected(path, damaged: bytes) -> None:
    """The loader raises DataError, the empty file included, and nothing
    is ever built: the bulk paths, the edge insert and ``add_node`` are
    made to fail."""

    def no_build(*args, **kwargs):
        raise AssertionError("a damaged snapshot reached the bulk build path")

    path.write_bytes(damaged)
    with pytest.MonkeyPatch.context() as patch:
        for method in (
            "add_relations_trusted",
            "add_nodes_trusted",
            "_insert_relations",
            "add_node",
        ):
            patch.setattr(AliCoCoStore, method, no_build)
        with pytest.raises(DataError):
            load_snapshot(path)


def _flip(data: bytes, position: int, bit: int) -> bytes:
    damaged = bytearray(data)
    damaged[position] ^= 1 << bit
    return bytes(damaged)


def test_the_undamaged_file_loads(saved):
    data, _, path = saved
    path.write_bytes(data)
    snapshot = load_snapshot(path)
    assert snapshot.store.generation_id == 2
    assert len(snapshot.store._segments) == 2
    assert set(snapshot.model_states) == {"demo"}


REGIONS = (
    "magic",
    "header length",
    "header",
    "header digest",
    "base",
    "delta:1",
    "delta:2",
    "index:bm25-concepts",
    "model:demo",
)


@pytest.mark.parametrize("region", REGIONS)
def test_a_flip_at_each_end_of_every_region_is_rejected(saved, region):
    data, regions, path = saved
    begin, end = regions[region]
    for position in (begin, (begin + end) // 2, end - 1):
        for bit in (0, 7):
            _assert_rejected(path, _flip(data, position, bit))


@settings(deadline=None)
@given(st.data())
def test_every_single_bit_flip_is_rejected(saved, data):
    raw, regions, path = saved
    begin, end = regions[data.draw(st.sampled_from(REGIONS), label="region")]
    position = data.draw(st.integers(begin, end - 1), label="position")
    bit = data.draw(st.integers(0, 7), label="bit")
    _assert_rejected(path, _flip(raw, position, bit))


@settings(deadline=None)
@given(st.data())
def test_every_truncation_is_rejected(saved, data):
    raw, regions, path = saved
    begin, end = regions[data.draw(st.sampled_from(REGIONS), label="region")]
    length = data.draw(st.integers(begin, end - 1), label="length")
    _assert_rejected(path, raw[:length])


@settings(deadline=None)
@given(suffix=st.binary(min_size=1, max_size=64))
def test_every_appended_suffix_is_rejected(saved, suffix):
    raw, _, path = saved
    _assert_rejected(path, raw + suffix)
