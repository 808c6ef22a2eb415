"""Format-2 snapshots: round-trips, header validation, atomicity."""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro import build_alicoco, TINY
from repro.errors import DataError
from repro.kg import AliCoCoStore, flatten
from repro.kg.serialize import (
    load_snapshot,
    MAGIC,
    read_sections,
    save_snapshot,
    SNAPSHOT_FORMAT,
    write_sections,
)
from repro.matching.bm25 import BM25Index
from repro.ml import Linear
from repro.ml.serialize import load_module_state, module_state_record
from repro.serving import AliCoCoService


@pytest.fixture(scope="module")
def built():
    return build_alicoco(TINY)


def _forge(source, target, edit_header=None, edit_sections=None):
    """Rewrite a snapshot with edited contents but valid digests."""
    header, sections = read_sections(source)
    if edit_header is not None:
        edit_header(header)
    items = list(sections.items())
    if edit_sections is not None:
        items = edit_sections(items)
    write_sections(target, header, items)
    return target


@pytest.fixture(scope="module")
def snapshot_path(built, tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "net.snapshot"
    service = AliCoCoService.from_build(built, config_fingerprint=TINY.fingerprint())
    service.save_snapshot(path)
    return path


class TestSnapshotRoundTrip:
    def test_save_load_save_is_byte_identical(self, snapshot_path, tmp_path):
        snapshot = load_snapshot(snapshot_path)
        resaved = tmp_path / "resaved.snapshot"
        save_snapshot(
            snapshot.store,
            resaved,
            config_fingerprint=snapshot.header.config_fingerprint,
            index_states=snapshot.index_states,
        )
        assert snapshot_path.read_bytes() == resaved.read_bytes()

    def test_header_reflects_contents(self, built, snapshot_path):
        header = load_snapshot(snapshot_path).header
        assert header.format_version == SNAPSHOT_FORMAT
        assert header.node_count == len(built.store)
        assert header.relation_count == built.store.stats().relations_total
        assert header.config_fingerprint == TINY.fingerprint()
        assert "bm25-concepts" in header.index_names

    def test_store_survives_snapshot_round_trip(self, built, snapshot_path):
        loaded = load_snapshot(snapshot_path).store
        assert loaded.stats() == built.store.stats()
        loaded_ids = sorted(n.id for n in loaded.nodes())
        assert loaded_ids == sorted(n.id for n in built.store.nodes())
        assert list(loaded.relations()) == list(built.store.relations())

    def test_index_state_rehydrates_identically(self, snapshot_path):
        snapshot = load_snapshot(snapshot_path)
        state = snapshot.index_states["bm25-concepts"]
        index = BM25Index.from_state(state)
        assert index.to_state() == state
        concept = next(snapshot.store.nodes("ec"))
        top = index.top_k(concept.tokens, k=1)
        assert top and top[0][0] == concept.id

    def test_load_store_accepts_snapshot_files(self, built, snapshot_path):
        loaded = flatten(load_snapshot(snapshot_path).store)
        assert isinstance(loaded, AliCoCoStore)
        assert loaded.stats() == built.store.stats()

    def test_save_store_writes_a_state_free_snapshot(self, built, tmp_path):
        path = tmp_path / "net.snapshot"
        written = save_snapshot(built.store, path)
        assert written == path.stat().st_size
        snapshot = load_snapshot(path)
        assert snapshot.index_states == snapshot.model_states == {}
        assert snapshot.store.generation_id == 0
        assert list(snapshot.store.relations()) == list(built.store.relations())

    def test_headerless_files_are_refused(self, built, tmp_path):
        """An empty file, or one without the magic (such as a JSON-lines
        record stream), is not a snapshot."""
        records = tmp_path / "legacy.jsonl"
        records.write_text(
            '{"record": "node", "type": "class", "id": "cls_0", '
            '"name": "X", "domain": "D", "parent_id": null}\n'
        )
        empty = tmp_path / "empty.snapshot"
        empty.write_bytes(b"")
        for path in (records, empty):
            with pytest.raises(DataError, match="not a snapshot"):
                load_snapshot(path)

    def test_sections_rewrite_byte_identically(self, snapshot_path, tmp_path):
        """What `_forge` relies on."""
        header, sections = read_sections(snapshot_path)
        copy = tmp_path / "copy.snapshot"
        write_sections(copy, header, list(sections.items()))
        assert copy.read_bytes() == snapshot_path.read_bytes()

    def test_saving_the_same_net_twice_gives_identical_bytes(
        self, built, snapshot_path, tmp_path
    ):
        again = tmp_path / "again.snapshot"
        service = AliCoCoService.from_build(
            built, config_fingerprint=TINY.fingerprint()
        )
        service.save_snapshot(again)
        assert again.read_bytes() == snapshot_path.read_bytes()
        assert again.read_bytes().startswith(MAGIC)


class TestModelRecords:
    """Model bundles riding the snapshot as one section per model."""

    @staticmethod
    def _module(seed=3):
        return Linear(4, 2, np.random.default_rng(seed))

    def test_model_states_round_trip_bit_identical(self, built, tmp_path):
        module = self._module()
        path = tmp_path / "with_model.snapshot"
        record = module_state_record(module, config={"kind": "demo"})
        save_snapshot(built.store, path, model_states={"demo": record})
        snapshot = load_snapshot(path)
        assert snapshot.header.model_names == ("demo",)
        assert snapshot.model_states["demo"] == record
        other = self._module(seed=9)
        load_module_state(other, snapshot.model_states["demo"])
        np.testing.assert_array_equal(other.weight.data, module.weight.data)
        np.testing.assert_array_equal(other.bias.data, module.bias.data)

    def test_model_less_snapshots_still_load(self, snapshot_path):
        snapshot = load_snapshot(snapshot_path)
        assert snapshot.header.model_names == ()
        assert snapshot.model_states == {}

    def test_corrupt_model_record_names_its_line(self, built, tmp_path):
        """A model section that is not JSON (digests valid) names its
        section."""
        record = module_state_record(self._module())
        path = tmp_path / "with_model.snapshot"
        save_snapshot(built.store, path, model_states={"demo": record})

        def corrupt(items):
            return [
                (name, b"{not json" if name == "model:demo" else payload)
                for name, payload in items
            ]

        _forge(path, path, edit_sections=corrupt)
        with pytest.raises(DataError, match="section 'model:demo'"):
            load_snapshot(path)

    def test_mismatched_architecture_rejected_on_restore(self, built, tmp_path):
        record = module_state_record(self._module())
        save_snapshot(
            built.store, tmp_path / "m.snapshot", model_states={"demo": record}
        )
        snapshot = load_snapshot(tmp_path / "m.snapshot")
        wider = Linear(4, 3, np.random.default_rng(0))
        with pytest.raises(DataError, match="fingerprint"):
            load_module_state(wider, snapshot.model_states["demo"])


class TestHeaderValidation:
    """Damage the digests cannot see: files rewritten with valid digests."""

    def test_version_mismatch_rejected_with_line(self, snapshot_path, tmp_path):
        def future(header):
            header["format"] = SNAPSHOT_FORMAT + 1

        bad = _forge(snapshot_path, tmp_path / "future.snapshot", future)
        with pytest.raises(DataError, match=r"snapshot format 3 unsupported"):
            load_snapshot(bad)

    def test_corrupted_header_rejected_with_line(self, snapshot_path, tmp_path):
        def corrupt(header):
            header["nodes"] = "not-a-count"

        bad = _forge(snapshot_path, tmp_path / "corrupt.snapshot", corrupt)
        with pytest.raises(DataError, match=r"corrupted snapshot header"):
            load_snapshot(bad)

    def test_truncated_snapshot_detected_by_counts(self, snapshot_path, tmp_path):
        data = snapshot_path.read_bytes()
        bad = tmp_path / "truncated.snapshot"
        bad.write_bytes(data[:-40])
        with pytest.raises(DataError, match="header describes"):
            load_snapshot(bad)

        def inflate(header):
            header["nodes"] += 1

        bad = _forge(snapshot_path, tmp_path / "counts.snapshot", inflate)
        with pytest.raises(DataError, match="header promises"):
            load_snapshot(bad)

    def test_header_not_first_rejected(self, snapshot_path, tmp_path):
        """Misplaced sections: out of the header's order, or a section
        table whose offsets do not tile the file."""
        bad = _forge(
            snapshot_path,
            tmp_path / "reordered.snapshot",
            edit_sections=lambda items: items[1:] + items[:1],
        )
        with pytest.raises(DataError, match="do not match its header"):
            load_snapshot(bad)

        data = snapshot_path.read_bytes()
        (length,) = struct.unpack_from("<Q", data, len(MAGIC))
        body = len(MAGIC) + 8
        header = json.loads(data[body : body + length])
        first, second = header["sections"][:2]
        first["offset"], second["offset"] = second["offset"], first["offset"]
        text = json.dumps(header).encode()
        prefix = MAGIC + struct.pack("<Q", len(text)) + text
        digest = hashlib.blake2b(prefix, digest_size=32).digest()
        bad = tmp_path / "misplaced.snapshot"
        bad.write_bytes(prefix + digest + data[body + length + 32 :])
        with pytest.raises(DataError, match="misplaced"):
            load_snapshot(bad)

    def test_malformed_json_keeps_line_numbers(self, snapshot_path, tmp_path):
        """A node table line that is not JSON (digests valid) is reported
        with its section and line."""

        def mangle(items):
            name, payload = items[0]
            node_bytes, relations = struct.unpack_from("<II", payload)
            lines = payload[8 : 8 + node_bytes].split(b"\n")
            lines[2] = b"not json,"
            table = b"\n".join(lines)
            payload = (
                struct.pack("<II", len(table), relations)
                + table
                + payload[8 + node_bytes :]
            )
            return [(name, payload)] + items[1:]

        bad = _forge(snapshot_path, tmp_path / "mangled.snapshot", edit_sections=mangle)
        with pytest.raises(DataError, match="section 'base' line 3"):
            load_snapshot(bad)


class TestAtomicity:
    def test_failed_save_keeps_previous_snapshot(self, built, tmp_path, monkeypatch):
        """A crash mid-write must leave the old snapshot intact and no
        temp files behind."""
        path = tmp_path / "net.snapshot"
        save_snapshot(built.store, path, config_fingerprint="v1")
        before = path.read_bytes()

        import repro.utils.io as io_module

        def exploding_fsync(descriptor):
            raise OSError("disk on fire")

        monkeypatch.setattr(io_module.os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            save_snapshot(built.store, path, config_fingerprint="v2")
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]

    def test_save_store_streams_atomically(self, built, tmp_path, monkeypatch):
        path = tmp_path / "net.snapshot"
        save_snapshot(built.store, path)
        before = path.read_bytes()

        import repro.utils.io as io_module

        def exploding_replace(src, dst):
            raise OSError("power loss at rename")

        monkeypatch.setattr(io_module.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_snapshot(built.store, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


class TestWarmStartParity:
    def test_warm_service_answers_match_fresh(self, built, snapshot_path):
        fresh = AliCoCoService.from_build(built)
        warm = AliCoCoService.from_snapshot(
            snapshot_path, expected_fingerprint=TINY.fingerprint()
        )
        requests = []
        for spec in built.concepts[:25]:
            concept_id = built.concept_ids[spec.text]
            requests.append(("search", spec.text))
            requests.append(("items_for_concept", concept_id, 5))
            requests.append(("interpretation", concept_id))
        some_primitive = next(iter(built.primitive_ids.values()))
        requests.append(("hypernyms", some_primitive, True))
        item_id = built.item_ids[0]
        requests.append(("concepts_for_item", item_id))
        assert fresh.batch(requests) == warm.batch(requests)

    def test_fingerprint_mismatch_refused(self, snapshot_path):
        with pytest.raises(DataError, match="fingerprint"):
            AliCoCoService.from_snapshot(snapshot_path, expected_fingerprint="deadbeef")

    def test_fingerprints_distinguish_scales(self):
        assert TINY.fingerprint() != TINY.with_seed(8).fingerprint()
        assert TINY.fingerprint() == TINY.fingerprint()
