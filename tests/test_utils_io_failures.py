"""Tests for the io helpers plus failure-injection across the stack."""

import json
import struct

import numpy as np
import pytest

from repro import build_alicoco, TINY
from repro.errors import BudgetExhaustedError, DataError
from repro.kg.serialize import load_snapshot, read_sections, save_snapshot, write_sections
from repro.utils.io import atomic_write_bytes


class TestIoHelpers:
    def test_atomic_write_roundtrip(self, tmp_path):
        path = tmp_path / "out.bin"
        assert atomic_write_bytes(path, [b"hel", b"lo"]) == 5
        assert path.read_bytes() == b"hello"
        atomic_write_bytes(path, [b"replaced"])
        assert path.read_bytes() == b"replaced"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_write_empty(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"old contents")
        assert atomic_write_bytes(path, []) == 0
        assert path.read_bytes() == b""
        assert [p.name for p in tmp_path.iterdir()] == ["empty.bin"]


def _forge(source, target, edit_header=None, edit_base=None):
    """Rewrite a snapshot with edited contents but valid digests."""
    header, sections = read_sections(source)
    if edit_header is not None:
        edit_header(header)
    if edit_base is not None:
        sections["base"] = edit_base(sections["base"])
    write_sections(target, header, list(sections.items()))
    return target


def _edit_node_table(payload: bytes, edit) -> bytes:
    """A base block whose node-table records went through ``edit``."""
    node_bytes, relations = struct.unpack_from("<II", payload)
    records = edit(json.loads(payload[8 : 8 + node_bytes]))
    table = json.dumps(records).encode("utf-8")
    return struct.pack("<II", len(table), relations) + table + payload[8 + node_bytes :]


@pytest.fixture(scope="module")
def saved_tiny(tmp_path_factory):
    built = build_alicoco(TINY)
    path = tmp_path_factory.mktemp("store") / "net.snapshot"
    save_snapshot(built.store, path)
    return built, path


class TestStoreSerializationFailures:
    def test_full_build_roundtrip(self, saved_tiny, tmp_path):
        built, _ = saved_tiny
        path = tmp_path / "net.snapshot"
        written = save_snapshot(built.store, path)
        assert written == path.stat().st_size
        loaded = load_snapshot(path).store
        assert loaded.stats() == built.store.stats()

    def test_unknown_relation_kind_rejected(self, saved_tiny, tmp_path):
        _, source = saved_tiny

        def teleport(header):
            header["kinds"][0] = "TELEPORTS_TO"

        bad = _forge(source, tmp_path / "bad.snapshot", edit_header=teleport)
        with pytest.raises(DataError, match="relation string tables"):
            load_snapshot(bad)

    def test_bad_node_fields_rejected(self, saved_tiny, tmp_path):
        _, source = saved_tiny

        def extra_field(records):
            records[0]["extra_field"] = 1
            return records

        bad = _forge(
            source,
            tmp_path / "bad.snapshot",
            edit_base=lambda payload: _edit_node_table(payload, extra_field),
        )
        with pytest.raises(DataError, match="bad node record"):
            load_snapshot(bad)

    def test_truncated_file_is_detected(self, saved_tiny, tmp_path):
        """A truncated file, or one whose relations reference nodes cut out
        of its node table (digests valid), fails loudly instead of
        producing a silently broken store."""
        _, source = saved_tiny
        data = source.read_bytes()
        for length in (0, len(data) // 2, len(data) - 1):
            truncated = tmp_path / "truncated.snapshot"
            truncated.write_bytes(data[:length])
            with pytest.raises(DataError):
                load_snapshot(truncated)

        def no_nodes(header):
            header["nodes"] = 0

        dangling = _forge(
            source,
            tmp_path / "dangling.snapshot",
            edit_header=no_nodes,
            edit_base=lambda payload: _edit_node_table(payload, lambda _: []),
        )
        with pytest.raises(DataError, match="out of range"):
            load_snapshot(dangling)


class TestOracleBudgetFailures:
    def test_budget_exhaustion_mid_experiment(self):
        """An annotation budget that runs out surfaces as a typed error the
        caller can catch — no silent mislabels."""
        from repro.synth import build_lexicon, Oracle, World
        world = World(build_lexicon(seed=7), seed=7)
        oracle = Oracle(world, budget=5)
        pairs = world.lexicon.hypernym_pairs("Category")[:10]
        labelled = []
        with pytest.raises(BudgetExhaustedError):
            for hyponym, hypernym in pairs:
                labelled.append(oracle.label_hypernym(hyponym, hypernym))
        assert len(labelled) == 5
        assert oracle.labels_used == 5

    def test_budget_spans_question_types(self):
        from repro.synth import build_lexicon, Oracle, World
        world = World(build_lexicon(seed=7), seed=7)
        rng = np.random.default_rng(0)
        spec = world.sample_good_concepts(rng, 1)[0]
        oracle = Oracle(world, budget=2)
        oracle.label_concept(spec)
        oracle.label_tagging(spec)
        with pytest.raises(BudgetExhaustedError):
            oracle.label_concept(spec)


class TestTrainingFailureModes:
    def test_crf_rejects_inconsistent_shapes_not_crashes(self, rng):
        from repro.errors import ShapeError
        from repro.ml.tensor import Tensor
        from repro.nlp.crf import LinearChainCRF
        crf = LinearChainCRF(3, rng)
        with pytest.raises(ShapeError):
            crf.fuzzy_nll(Tensor(np.zeros((2, 3))), [[0]])

    def test_miner_survives_degenerate_single_label_data(self):
        from repro.mining import BiLSTMCRFMiner, TaggedSentence
        from repro.mining.bilstm_crf import LabelSet
        from repro.nlp.vocab import Vocab
        data = [TaggedSentence(("x",), ("O",))] * 4
        vocab = Vocab.from_corpus([["x"]])
        miner = BiLSTMCRFMiner(vocab, LabelSet.from_data(data),
                               embedding_dim=4, hidden_dim=4, seed=0)
        history = miner.fit(data, epochs=2)
        assert all(np.isfinite(history))
        assert miner.predict(("x",)) == ["O"]

    def test_matcher_with_all_negative_training_stays_finite(self):
        """Degenerate click logs (nobody clicked) must not NaN the model."""
        from repro.matching import DSSMMatcher, train_matcher
        from repro.matching.base import matching_vocab
        from repro.matching.dataset import MatchingExample
        from repro.synth import build_lexicon, World
        from repro.synth.items import generate_items
        world = World(build_lexicon(seed=7), seed=7)
        items = generate_items(world, 20)
        specs = world.sample_good_concepts(np.random.default_rng(0), 5)
        examples = [MatchingExample(spec, item, 0)
                    for spec in specs for item in items[:4]]
        vocab = matching_vocab(examples)
        model = DSSMMatcher(vocab, dim=8, seed=0)
        history = train_matcher(model, examples, epochs=2, seed=0)
        assert all(np.isfinite(history))
        scores = model.score_pairs(examples[:3])
        assert np.all(np.isfinite(scores))
