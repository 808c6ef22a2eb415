"""Persistence for a full AliCoCo store: format-2 snapshots.

One on-disk format lives here, the *snapshot*, format 2, written by
:func:`save_snapshot` (a plain store) or :func:`save_generations` (a
generation) and read by :func:`load_snapshot`: the net, its serialised
query-index states (e.g. the fitted
:class:`~repro.matching.bm25.BM25Index` over concept texts) and a *model
bundle* — one state per trained model, built on
:func:`repro.ml.serialize.module_state_record` — in one checksummed file
that a serving process warm-starts from (see :mod:`repro.serving`).

Snapshot layout (integers little-endian)::

    magic          8 bytes    b"ALCCSNAP"
    header length  8 bytes    <u8
    header         JSON, UTF-8
    header digest  32 bytes   blake2b of magic + length + header
    sections       back to back, in section-table order

The header holds ``format`` (:data:`SNAPSHOT_FORMAT`), the ``nodes`` and
``relations`` counts, the ``config`` fingerprint, ``base_generation``,
the number of delta ``generations``, the ``indexes`` and ``models``
names, the ``kinds`` and ``names`` string tables of the relation
columns, and the ``sections`` table: each entry gives a section's
``name``, ``offset`` (from the first byte after the header digest),
``length`` and ``digest`` (blake2b, hex).  The sections are, in order:

- ``base`` — the base store as a *block*;
- ``delta:<generation>`` — one non-empty block per published segment,
  in publish order, named ``delta:<b+1>`` … ``delta:<b+n>`` after the
  generation it was published as (``b`` is ``base_generation``);
- ``index:<name>`` and ``model:<name>`` — one JSON object each.

A block is ``<u4`` node-table bytes, ``<u4`` relation count, the node
table (a JSON array, one node record per line), then the relations as
columns: kind ``u1`` (into ``kinds``), source and target ``<i4`` (node
table positions, counting the base's nodes then each delta's), weight
``<f8`` and name ``<i4`` (into ``names``), read with ``np.frombuffer``.

What the digests guarantee: the loader reads the whole file and checks
the magic, the header digest, the exact file length and every section's
digest before it decodes a section, then checks the decoded tables (the
counts, the delta names, every node id's layer, every relation's
endpoint layers, range and uniqueness) before it builds anything.  A
truncated or extended file, or any flipped bit, raises
:class:`DataError` and no store, index or model state is built from it.
The digests detect damage, not forgery: whoever can write the file can
recompute them.  Saving the same net twice writes identical bytes.

Once every check has passed, the relations are built in bulk: each
column becomes a list of field values through one fancy index over an
object array, and each edge costs one tuple (``tuple.__new__`` on the
:class:`~repro.kg.relations.Relation` NamedTuple).  Each block becomes
one frozen store, built through the trusted bulk inserts, which skip the
checks the loader has already made on whole tables, and the file loads
as the generation it saved: a
:class:`~repro.kg.generations.GenerationView` over the base and one
segment per delta.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import ConfigError, DataError, GraphError
from ..utils.io import atomic_write_bytes
from .generations import GenerationalStore, GenerationView
from .nodes import ClassNode, ECommerceConcept, Item, Node, PrimitiveConcept
from .relations import Relation, RelationKind
from .store import _LAYER_TYPES, AliCoCoStore, _check_node, gc_paused

#: Version of the snapshot layout; loaders reject any other version.
SNAPSHOT_FORMAT = 2

#: The first bytes of every snapshot file.
MAGIC = b"ALCCSNAP"

_LENGTH = struct.Struct("<Q")
_BLOCK_PREFIX = struct.Struct("<II")
_DIGEST_SIZE = 32
#: A block's relation columns, in file order.
_COLUMNS = (
    ("kind", "u1"),
    ("source", "<i4"),
    ("target", "<i4"),
    ("weight", "<f8"),
    ("name", "<i4"),
)
_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)
_LAYER_CODES = {layer: code for code, layer in enumerate(_LAYER_TYPES)}
_KIND_CODES = {kind: code for code, kind in enumerate(RelationKind)}

_NODE_TYPES = {
    "class": ClassNode,
    "primitive": PrimitiveConcept,
    "ecommerce": ECommerceConcept,
    "item": Item,
}
_TYPE_NAMES = {cls: name for name, cls in _NODE_TYPES.items()}


@dataclass(frozen=True)
class SnapshotHeader:
    """The counts and names a snapshot's header carries.

    Attributes:
        format_version: Snapshot layout version (:data:`SNAPSHOT_FORMAT`).
        node_count: Nodes the snapshot contains, base and deltas.
        relation_count: Relations the snapshot contains, base and deltas.
        config_fingerprint: Digest of the build configuration
            (:meth:`repro.config.RunScale.fingerprint`), or ``""``.
        index_names: Names of the serialised index states.
        model_names: Names of the model-bundle states.
        generation_count: Number of delta sections (0 for
            non-generational snapshots).
        base_generation: Generation id the base was compacted at (0 for
            uncompacted stores).  Delta sections, if any, continue the
            numbering from here.
    """

    format_version: int
    node_count: int
    relation_count: int
    config_fingerprint: str = ""
    index_names: tuple[str, ...] = ()
    model_names: tuple[str, ...] = ()
    generation_count: int = 0
    base_generation: int = 0


@dataclass
class Snapshot:
    """Everything read back from one snapshot file.

    ``store`` is the generation the file saved: a
    :class:`~repro.kg.generations.GenerationView` over the frozen base
    and one frozen segment per delta, numbered as it was saved.  Hand it
    to :class:`~repro.kg.generations.GenerationalStore` to grow it, or to
    :func:`~repro.kg.generations.flatten` for one plain store.
    """

    header: SnapshotHeader
    store: GenerationView
    index_states: dict[str, dict[str, Any]] = field(default_factory=dict)
    model_states: dict[str, dict[str, Any]] = field(default_factory=dict)


# ------------------------------------------------------------- node records
def _node_record(node: Node) -> dict[str, Any]:
    return {"type": _TYPE_NAMES[type(node)], **vars(node)}


def _parse_node(where: str, record: Any) -> Node:
    if not isinstance(record, dict):
        raise DataError(f"{where}: expected a node object")
    type_name = record.pop("type", None)
    node_cls = _NODE_TYPES.get(type_name)
    if node_cls is None:
        raise DataError(f"{where}: unknown node type {type_name!r}")
    if node_cls is ECommerceConcept and isinstance(record.get("tokens"), list):
        record["tokens"] = tuple(record["tokens"])
    try:
        return node_cls(**record)
    except TypeError as error:
        raise DataError(f"{where}: bad node record ({error})") from error


# ------------------------------------------------------------ section file
def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


def write_sections(
    path: str | Path, header: Mapping[str, Any], sections: Sequence[tuple[str, bytes]]
) -> int:
    """Write a format-2 file atomically: ``header`` plus a section table
    (offsets, lengths, digests) for ``sections``, then the sections.

    Returns:
        Number of bytes written.
    """
    table = []
    offset = 0
    for name, payload in sections:
        table.append(
            {
                "name": name,
                "offset": offset,
                "length": len(payload),
                "digest": _digest(payload).hex(),
            }
        )
        offset += len(payload)
    header_json = json.dumps({**header, "sections": table}, ensure_ascii=False)
    header_bytes = header_json.encode("utf-8")
    prefix = MAGIC + _LENGTH.pack(len(header_bytes)) + header_bytes
    return atomic_write_bytes(
        path, [prefix, _digest(prefix), *(payload for _, payload in sections)]
    )


def read_sections(path: str | Path) -> tuple[dict[str, Any], dict[str, bytes]]:
    """The header (without its section table) and the sections (name ->
    bytes, in file order) of a format-2 file, every byte checked but
    nothing decoded; :func:`write_sections` writes them back byte for
    byte.

    Raises:
        DataError: On a wrong magic, a header or section digest that does
            not match, a section table that does not tile the file, or a
            file longer or shorter than its header describes.
    """
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise DataError(f"{path}: not a snapshot (bad magic)")
    body = len(MAGIC) + _LENGTH.size
    if len(data) < body:
        raise DataError(f"{path}: snapshot truncated inside its prefix")
    (header_length,) = _LENGTH.unpack_from(data, len(MAGIC))
    header_end = body + header_length
    start = header_end + _DIGEST_SIZE
    if start > len(data):
        raise DataError(f"{path}: snapshot truncated inside its header")
    if _digest(data[:header_end]) != data[header_end:start]:
        raise DataError(f"{path}: header digest mismatch")
    try:
        header = json.loads(data[body:header_end])
        entries = [
            (entry["name"], entry["offset"], entry["length"], entry["digest"])
            for entry in header.pop("sections")
        ]
    except (ValueError, KeyError, TypeError) as error:
        raise DataError(f"{path}: corrupted snapshot header ({error!r})") from error
    offset = 0
    for name, entry_offset, length, _ in entries:
        if (
            not isinstance(name, str)
            or entry_offset != offset
            or type(length) is not int
            or length < 0
        ):
            raise DataError(
                f"{path}: section table entry {name!r} is misplaced or malformed"
            )
        offset += length
    if start + offset != len(data):
        raise DataError(
            f"{path}: file is {len(data)} bytes but its header "
            f"describes {start + offset}"
        )
    sections: dict[str, bytes] = {}
    for name, offset, length, digest in entries:
        payload = data[start + offset : start + offset + length]
        if _digest(payload).hex() != digest:
            raise DataError(f"{path}: section {name!r} digest mismatch")
        if name in sections:
            raise DataError(f"{path}: section {name!r} appears twice")
        sections[name] = payload
    return header, sections


# ---------------------------------------------------------------- snapshot
def _encode_block(
    nodes: Sequence[Node],
    relations: Sequence[Relation],
    position: dict[str, int],
    name_codes: dict[str, int],
) -> bytes:
    """One block; ``position`` must already cover ``nodes``, and
    ``name_codes`` grows by the names first seen here."""
    records = (json.dumps(_node_record(node), ensure_ascii=False) for node in nodes)
    node_table = ("[" + ",\n".join(records) + "]").encode("utf-8")
    columns = (
        [_KIND_CODES[relation.kind] for relation in relations],
        [position[relation.source] for relation in relations],
        [position[relation.target] for relation in relations],
        [relation.weight for relation in relations],
        [
            name_codes.setdefault(relation.name, len(name_codes))
            for relation in relations
        ],
    )
    parts = [_BLOCK_PREFIX.pack(len(node_table), len(relations)), node_table]
    parts += (
        np.asarray(values, dtype=dtype).tobytes()
        for values, (_, dtype) in zip(columns, _COLUMNS)
    )
    return b"".join(parts)


def _delta_names(base_generation: int, count: int) -> list[str]:
    """The delta section names of a generation with ``count`` segments:
    each is named after the generation it was published as."""
    return [f"delta:{base_generation + n}" for n in range(1, count + 1)]


def _write(
    path: str | Path,
    blocks: Sequence[tuple[str, Sequence[Node], Sequence[Relation]]],
    *,
    config_fingerprint: str,
    base_generation: int,
    index_states: Mapping[str, Mapping[str, Any]] | None,
    model_states: Mapping[str, Mapping[str, Any]] | None,
) -> int:
    index_states = dict(index_states or {})
    model_states = dict(model_states or {})
    position: dict[str, int] = {}
    name_codes: dict[str, int] = {}
    sections = []
    for name, nodes, relations in blocks:
        for node in nodes:
            position[node.id] = len(position)
        sections.append((name, _encode_block(nodes, relations, position, name_codes)))
    for prefix, states in (("index", index_states), ("model", model_states)):
        for name, state in states.items():
            payload = json.dumps(dict(state), ensure_ascii=False).encode("utf-8")
            sections.append((f"{prefix}:{name}", payload))
    header = {
        "format": SNAPSHOT_FORMAT,
        "nodes": len(position),
        "relations": sum(len(relations) for _, _, relations in blocks),
        "config": config_fingerprint,
        "base_generation": base_generation,
        "generations": len(blocks) - 1,
        "indexes": list(index_states),
        "models": list(model_states),
        "kinds": [kind.name for kind in _KIND_CODES],
        "names": list(name_codes),
    }
    return write_sections(path, header, sections)


def save_snapshot(
    store: AliCoCoStore,
    path: str | Path,
    *,
    config_fingerprint: str = "",
    index_states: Mapping[str, Mapping[str, Any]] | None = None,
    model_states: Mapping[str, Mapping[str, Any]] | None = None,
) -> int:
    """Write a format-2 snapshot: the store as the base block, then the
    index and model states (atomic).

    Args:
        store: The net to persist.
        config_fingerprint: Digest of the configuration the net was built
            under; loaders may verify it before serving.
        index_states: Name -> JSON-serialisable index state
            (``BM25Index.to_state()`` or ``BruteForceDense.to_state()``),
            rehydrated on warm start instead of re-fitted.
        model_states: Name -> model-state record
            (:func:`repro.ml.serialize.module_state_record`): trained
            weights + architecture fingerprint, restored on warm start
            instead of re-trained.

    Returns:
        Number of bytes written.
    """
    return _write(
        path,
        [("base", list(store.nodes()), list(store.relations()))],
        config_fingerprint=config_fingerprint,
        base_generation=0,
        index_states=index_states,
        model_states=model_states,
    )


def _parse_header(
    record: Mapping[str, Any],
) -> tuple[SnapshotHeader, list[RelationKind], list[str]]:
    """The header, and the kind and name tables of the relation columns."""
    version = record.get("format")
    if version != SNAPSHOT_FORMAT:
        raise DataError(
            f"snapshot format {version!r} unsupported (this build reads "
            f"format {SNAPSHOT_FORMAT})"
        )
    try:
        header = SnapshotHeader(
            format_version=SNAPSHOT_FORMAT,
            node_count=record["nodes"],
            relation_count=record["relations"],
            config_fingerprint=record["config"],
            index_names=tuple(record["indexes"]),
            model_names=tuple(record["models"]),
            generation_count=record["generations"],
            base_generation=record["base_generation"],
        )
    except (KeyError, TypeError) as error:
        raise DataError(f"corrupted snapshot header ({error!r})") from error
    counts = (
        header.node_count,
        header.relation_count,
        header.generation_count,
        header.base_generation,
    )
    state_names = header.index_names + header.model_names
    if (
        any(type(count) is not int or count < 0 for count in counts)
        or not isinstance(header.config_fingerprint, str)
        or not all(isinstance(name, str) for name in state_names)
    ):
        raise DataError(f"corrupted snapshot header (counts {counts})")
    kinds, names = record.get("kinds"), record.get("names")
    if not (
        isinstance(kinds, list)
        and isinstance(names, list)
        and all(isinstance(kind, str) for kind in kinds)
        and all(kind in RelationKind.__members__ for kind in kinds)
        and all(isinstance(name, str) for name in names)
    ):
        raise DataError("corrupted snapshot header (relation string tables)")
    return header, [RelationKind[kind] for kind in kinds], names


@dataclass
class _Block:
    """One decoded block: node objects and raw relation columns."""

    section: str
    nodes: list[Node]
    columns: dict[str, np.ndarray]


def _decode_block(section: str, payload: bytes) -> _Block:
    prefix = _BLOCK_PREFIX.size
    if len(payload) < prefix:
        raise DataError(f"section {section!r}: shorter than a block prefix")
    node_bytes, n_relations = _BLOCK_PREFIX.unpack_from(payload)
    if prefix + node_bytes + n_relations * _ROW_BYTES != len(payload):
        raise DataError(f"section {section!r}: block sizes do not add up")
    try:
        records = json.loads(payload[prefix : prefix + node_bytes])
    except ValueError as error:
        line = getattr(error, "lineno", "?")
        raise DataError(
            f"section {section!r} line {line}: malformed node table ({error})"
        ) from error
    if not isinstance(records, list):
        raise DataError(f"section {section!r}: node table is not a list")
    nodes = [
        _parse_node(f"section {section!r} line {line}", record)
        for line, record in enumerate(records, start=1)
    ]
    columns = {}
    offset = prefix + node_bytes
    for name, dtype in _COLUMNS:
        columns[name] = np.frombuffer(
            payload, dtype=dtype, count=n_relations, offset=offset
        )
        offset += columns[name].nbytes
    return _Block(section, nodes, columns)


def _decode_state(section: str, payload: bytes) -> dict[str, Any]:
    try:
        state = json.loads(payload)
    except ValueError as error:
        raise DataError(f"section {section!r}: malformed JSON ({error})") from error
    if not isinstance(state, dict):
        raise DataError(f"section {section!r}: expected a JSON object")
    return state


def _check_tables(
    blocks: Sequence[_Block],
    header: SnapshotHeader,
    kinds: Sequence[RelationKind],
    n_names: int,
) -> None:
    """Every schema check the trusted bulk build skips, on whole columns:
    counts, node ids (new, and a type that matches the id's layer: the
    store's own node check), relation codes, endpoint ranges and layers,
    and (kind, source, target) uniqueness across base and deltas."""
    layer_codes: list[int] = []
    seen: set[str] = set()
    for block in blocks:
        for node in block.nodes:
            try:
                layer = _check_node(node, seen) if isinstance(node.id, str) else None
            except (GraphError, ValueError):
                layer = None
            if layer is None:
                raise DataError(
                    f"section {block.section!r}: node {node.id!r} is repeated "
                    f"or in the wrong layer"
                )
            seen.add(node.id)
            layer_codes.append(_LAYER_CODES[layer])
    n_relations = sum(len(block.columns["kind"]) for block in blocks)
    if (len(layer_codes), n_relations) != (header.node_count, header.relation_count):
        raise DataError(
            f"snapshot holds {len(layer_codes)} nodes / {n_relations} "
            f"relations but its header promises {header.node_count} / "
            f"{header.relation_count}"
        )
    node_layers = np.asarray(layer_codes, dtype=np.int64)
    source_layers = np.asarray(
        [_LAYER_CODES[kind.source_layer] for kind in kinds], dtype=np.int64
    )
    target_layers = np.asarray(
        [_LAYER_CODES[kind.target_layer] for kind in kinds], dtype=np.int64
    )
    covered = 0
    triples = []
    for block in blocks:
        covered += len(block.nodes)
        kind, source, target, name = (
            block.columns[column] for column in ("kind", "source", "target", "name")
        )
        if not len(kind):
            continue
        if (
            kind.max() >= len(kinds)
            or name.min() < 0
            or name.max() >= n_names
            or min(source.min(), target.min()) < 0
            or max(source.max(), target.max()) >= covered
        ):
            raise DataError(
                f"section {block.section!r}: a relation code or endpoint is "
                f"out of range"
            )
        if (
            (node_layers[source] != source_layers[kind]).any()
            or (node_layers[target] != target_layers[kind]).any()
        ):
            raise DataError(
                f"section {block.section!r}: a relation's endpoint layers do "
                f"not match its kind"
            )
        triples.append((kind, source, target))
    if triples:
        kind, source, target = (
            np.concatenate(parts).astype(np.int64) for parts in zip(*triples)
        )
        keys = (kind * covered + source) * covered + target
        if np.unique(keys).size != keys.size:
            raise DataError("snapshot repeats a (kind, source, target) relation")


def _objects(values: Sequence[Any]) -> np.ndarray:
    """``values`` as a one-dimensional object array, for fancy indexing."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def _relations(
    block: _Block, ids: np.ndarray, kinds: np.ndarray, names: np.ndarray
) -> list[Relation]:
    """A block's relations, one tuple each: ``ids``, ``kinds`` and
    ``names`` are object arrays, so each column's field values come from
    one fancy index (ranges were checked by :func:`_check_tables`)."""
    columns = block.columns
    fields = zip(
        kinds[columns["kind"]].tolist(),
        ids[columns["source"]].tolist(),
        ids[columns["target"]].tolist(),
        columns["weight"].tolist(),
        names[columns["name"]].tolist(),
    )
    return list(map(tuple.__new__, repeat(Relation), fields))


def load_snapshot(path: str | Path) -> Snapshot:
    """Read a format-2 snapshot written by :func:`save_snapshot` or
    :func:`save_generations`.

    Every check — magic, exact length, every digest, then the decoded
    header, the delta names and the tables — runs before anything is
    built; each block is then built into a frozen store through the
    trusted bulk inserts, and the store is the generation the file saved.

    Returns:
        The header, the saved generation (a
        :class:`~repro.kg.generations.GenerationView`) and the serialised
        index and model states.

    Raises:
        DataError: If the file is not a snapshot, is damaged anywhere,
            comes from another format version, its deltas are not named
            ``delta:<b+1>`` … ``delta:<b+n>`` or one is empty, or its
            tables disagree with its header.
    """
    record, sections = read_sections(path)
    header, kinds, names = _parse_header(record)
    states = [f"index:{name}" for name in header.index_names]
    states += [f"model:{name}" for name in header.model_names]
    deltas = _delta_names(header.base_generation, header.generation_count)
    if list(sections) != ["base", *deltas, *states]:
        raise DataError(
            f"snapshot sections {list(sections)} do not match its header "
            f"(expected {['base', *deltas, *states]})"
        )
    with gc_paused():
        blocks = [_decode_block(name, sections[name]) for name in ["base", *deltas]]
        for block in blocks[1:]:
            if not block.nodes and not len(block.columns["kind"]):
                raise DataError(f"section {block.section!r}: delta is empty")
        decoded = {name: _decode_state(name, sections[name]) for name in states}
        _check_tables(blocks, header, kinds, len(names))
        node_ids = [node.id for block in blocks for node in block.nodes]
        tables = (_objects(node_ids), _objects(kinds), _objects(names))
        layers = []
        for block in blocks:
            # Endpoints may lie in an earlier layer: _check_tables has
            # checked every one, so the insert skips the lookup.
            layer = AliCoCoStore()
            layer.add_nodes_trusted(block.nodes)
            layer._insert_relations(_relations(block, *tables))
            layers.append(layer.freeze())
    return Snapshot(
        header,
        GenerationView(layers[0], tuple(layers[1:]), header.base_generation),
        {name: decoded[f"index:{name}"] for name in header.index_names},
        {name: decoded[f"model:{name}"] for name in header.model_names},
    )


def save_generations(
    store: GenerationalStore | GenerationView,
    path: str | Path,
    *,
    config_fingerprint: str = "",
    index_states: Mapping[str, Mapping[str, Any]] | None = None,
    model_states: Mapping[str, Mapping[str, Any]] | None = None,
) -> int:
    """Write a generational snapshot: the base block plus one delta block
    per published segment (atomic).

    Given a :class:`GenerationView`, that view is written — a server
    passes the generation it serves, so the ``index_states`` built over
    it describe exactly the saved net.  Given a
    :class:`GenerationalStore`, its *published* view is pinned at entry
    (the open delta is not persisted — publish first if it should be).
    Each delta section is named after the generation its segment was
    published as, and :func:`load_snapshot` reads the file back as this
    view, numbering included.

    Args:
        store: The generational net to persist, or one view of it.
        config_fingerprint / index_states / model_states: As in
            :func:`save_snapshot`.

    Returns:
        Number of bytes written.

    Raises:
        ConfigError: If ``store`` is neither a :class:`GenerationalStore`
            nor a :class:`GenerationView`.
    """
    # Everything is read off the one view — base, segments and the base
    # generation — so a concurrent compact() can never tear the snapshot
    # (a folded base paired with the old overlay's deltas would
    # duplicate content on load).  The base and each segment are stores,
    # so each becomes its block the same way.
    view = store.current() if isinstance(store, GenerationalStore) else store
    if not isinstance(view, GenerationView):
        raise ConfigError(
            f"save_generations needs a GenerationalStore or a GenerationView, "
            f"got {type(store).__name__}; use save_snapshot for plain stores"
        )
    deltas = _delta_names(view.base_generation, len(view._segments))
    blocks = [
        (name, list(layer.nodes()), list(layer.relations()))
        for name, layer in zip(["base", *deltas], view._stores)
    ]
    return _write(
        path,
        blocks,
        config_fingerprint=config_fingerprint,
        base_generation=view.base_generation,
        index_states=index_states,
        model_states=model_states,
    )
