"""Set-up of the system under test: build, train, snapshot, warm start.

One set-up builds the net from a fixed seed, trains the DSSM reranker
and the concept tagger, serves the net cold once to write a snapshot
with both model bundles, and warm-starts the system under test from
that snapshot.  Nothing here reads the workload seed.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import repro.kg.serialize as serialize_module
from repro.concepts import ConceptTagger
from repro.config import RunScale
from repro.kg import GenerationalStore
from repro.kg.relations import RelationKind
from repro.matching import DSSMMatcher, train_matcher
from repro.matching.base import matching_vocab
from repro.matching.bm25 import BM25Index
from repro.matching.dataset import pair_from_texts
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.pipeline.build import build_alicoco
from repro.serving import (
    CONCEPT_INDEX,
    DENSE_CONCEPT_INDEX,
    DENSE_ITEM_INDEX,
    RERANKER_KIND,
    RERANKER_MODEL,
    TAGGER_KIND,
    TAGGER_MODEL,
    AliCoCoCluster,
    AliCoCoService,
    ServiceConfig,
    restore_serving_module,
)

from pace import clock, sampling

#: The serving configuration under test: the hybrid retriever the recall
#: bench favours, every other field at its default (fast path, 4096-entry
#: result cache, 8192-entry doc cache).
SERVICE_CONFIG = ServiceConfig(retriever="hybrid")

#: Net-building seed and the non-size knobs of the build; the item count
#: comes from the :class:`Scale`.
BUILD_SCALE = RunScale(
    name="perfbench",
    n_items=4800,
    n_queries=400,
    n_reviews=200,
    n_guides=80,
    embedding_dim=16,
    hidden_dim=16,
    epochs=4,
    seed=7,
)

#: evolve_rw folds the segment chain once it is longer than this, so one
#: publish in ten compacts: well over the 5% that puts the freshness p95
#: inside the compacting mode instead of on the edge between modes.
COMPACT_AFTER_SEGMENTS = 9


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run.

    Attributes:
        n_items / n_concepts: The built net.
        setup_repeats: Set-ups per run; ``setup_s`` is their median.
        hot_per_endpoint: Hot keys per endpoint (evolve_rw's reads).
        tail_cycle: Distinct requests in one tail cycle; above the
            result cache's 4096 entries, so tail text requests all miss.
        cycles_per_second / min_cycles: evolve_rw publishing cycles.
        reads_per_cycle: evolve_rw reads between two cycles.
    """

    n_items: int
    n_concepts: int
    setup_repeats: int
    hot_per_endpoint: int
    tail_cycle: int
    cycles_per_second: int
    min_cycles: int
    reads_per_cycle: int


FULL = Scale(
    n_items=4800,
    n_concepts=220,
    setup_repeats=3,
    hot_per_endpoint=40,
    tail_cycle=4500,
    cycles_per_second=10,
    min_cycles=200,
    reads_per_cycle=160,
)

#: For the benchmark's own tests: a small net and short runs (its tail
#: cycle fits in the result cache), with enough publishes for one
#: compaction.
SMOKE = Scale(
    n_items=160,
    n_concepts=40,
    setup_repeats=1,
    hot_per_endpoint=6,
    tail_cycle=300,
    cycles_per_second=3,
    min_cycles=COMPACT_AFTER_SEGMENTS + 2,
    reads_per_cycle=10,
)


@dataclass
class Models:
    tagger: ConceptTagger
    reranker: DSSMMatcher
    reranker_vocab: Vocab
    tagger_vocab: Vocab

    def fresh_tagger(self, built) -> ConceptTagger:
        """An untrained tagger of the trained one's architecture."""
        return _tagger(built, self.tagger_vocab)

    def fresh_reranker(self) -> DSSMMatcher:
        return DSSMMatcher(self.reranker_vocab, dim=8, hidden=8, seed=1)


@dataclass
class Setup:
    """One set-up's products and timings (:mod:`pace` clock seconds)."""

    built: Any
    models: Models
    reference: AliCoCoService  # the cold-built service
    sut: Any
    build_s: float
    train_s: float
    warm_start_s: float
    total_s: float
    unsearchable: int  # concepts the warm-started system could not find

    def timings(self) -> dict[str, float]:
        """The set-up's end-to-end timings by metric name, its refresh
        time and its readiness misses.

        ``refresh_s`` is what a frozen net takes to make new concepts
        searchable: build, snapshot, warm start and readiness searches,
        with the models reused rather than trained again.
        """
        return {
            "setup_s": self.total_s,
            "build_s": self.build_s,
            "warm_start_s": self.warm_start_s,
            "refresh_s": self.total_s - self.train_s,
            "unsearchable": self.unsearchable,
        }


def _tagger(built, vocab: Vocab) -> ConceptTagger:
    return ConceptTagger(
        vocab,
        built.lexicon,
        PosTagger(built.lexicon.pos_lexicon()),
        use_fuzzy=False,
        word_dim=8,
        char_dim=4,
        hidden_dim=6,
        seed=1,
    )


def train_models(built) -> Models:
    """The concept tagger and the DSSM reranker, from fixed seeds."""
    tagger_vocab = Vocab.from_corpus([list(spec.tokens) for spec in built.concepts])
    tagger = _tagger(built, tagger_vocab)
    tagger.fit(built.concepts, epochs=1, lr=0.02, seed=1)
    pairs = []
    for spec in built.concepts[:10]:
        concept_id = built.concept_ids[spec.text]
        linked = {
            relation.source
            for relation in built.store.in_relations(
                concept_id, RelationKind.ITEM_ECOMMERCE
            )
        }
        for index in range(8):
            item_id = built.item_ids[index]
            title = built.store.get(item_id).title.split()
            pairs.append(
                pair_from_texts(spec.tokens, title, label=int(item_id in linked))
            )
    vocab = matching_vocab(pairs)
    reranker = DSSMMatcher(vocab, dim=8, hidden=8, seed=1)
    train_matcher(reranker, pairs, epochs=2, lr=0.05, seed=0)
    return Models(tagger, reranker, vocab, tagger_vocab)


def _generational_from_snapshot(path: Path, models: Models, built) -> AliCoCoService:
    """Warm-start a service over an auto-compacting generational store.

    ``AliCoCoService.from_snapshot`` serves a delta-less snapshot frozen,
    so this composes the same public steps over a ``GenerationalStore``.
    ``load_snapshot`` is looked up on its module at call time, where the
    traced run wraps it.
    """
    snapshot = serialize_module.load_snapshot(path)
    store = GenerationalStore(
        snapshot.store, compact_after_segments=COMPACT_AFTER_SEGMENTS
    )
    tagger, reranker = models.fresh_tagger(built), models.fresh_reranker()
    restore_serving_module(
        tagger, snapshot.model_states[TAGGER_MODEL], TAGGER_KIND, TAGGER_MODEL
    )
    restore_serving_module(
        reranker, snapshot.model_states[RERANKER_MODEL], RERANKER_KIND, RERANKER_MODEL
    )
    return AliCoCoService(
        store,
        config=SERVICE_CONFIG,
        search_index=BM25Index.from_state(snapshot.index_states[CONCEPT_INDEX]),
        tagger=tagger,
        reranker=reranker,
        dense_index_states={
            name: snapshot.index_states[name]
            for name in (DENSE_CONCEPT_INDEX, DENSE_ITEM_INDEX)
        },
        config_fingerprint=snapshot.header.config_fingerprint,
    )


def warm_start(kind: str, path: Path, models: Models, built) -> Any:
    """The system under test, warm-started from ``path``.

    ``kind`` is ``"service"``, ``"cluster"`` (``ClusterConfig()``
    defaults: 2 shards, the default executor) or ``"generational"``.
    """
    if kind == "generational":
        return _generational_from_snapshot(path, models, built)
    models_kwargs = {
        "tagger": models.fresh_tagger(built),
        "reranker": models.fresh_reranker(),
    }
    if kind == "cluster":
        return AliCoCoCluster.from_snapshot(
            path, service_config=SERVICE_CONFIG, **models_kwargs
        )
    return AliCoCoService.from_snapshot(path, config=SERVICE_CONFIG, **models_kwargs)


def unsearchable(system: Any, built) -> int:
    """Concepts of the built net that ``search`` on their own text does
    not return: the readiness check that ends every set-up."""
    missing = 0
    for spec in built.concepts:
        concept_id = built.concept_ids[spec.text]
        if concept_id not in {hit for hit, _ in system.search(spec.text)}:
            missing += 1
    return missing


def close(system: Any) -> None:
    """Stop whatever a system under test runs (cluster executors)."""
    if isinstance(system, AliCoCoCluster):
        system.close()


def setup(scale: Scale, kind: str) -> Setup:
    """One full set-up; the snapshot lives in a temporary directory that
    is removed before this returns."""
    with sampling():
        return _setup(scale, kind)


def _setup(scale: Scale, kind: str) -> Setup:
    start = clock()
    run_scale = replace(BUILD_SCALE, n_items=scale.n_items)
    built = build_alicoco(run_scale, n_concepts=scale.n_concepts)
    build_s = clock() - start
    train_start = clock()
    models = train_models(built)
    train_s = clock() - train_start
    reference = AliCoCoService(
        built.store,
        config=SERVICE_CONFIG,
        tagger=models.tagger,
        reranker=models.reranker,
        config_fingerprint=run_scale.fingerprint(),
    )
    with tempfile.TemporaryDirectory(prefix="perfbench-snapshot-") as directory:
        path = Path(directory) / "net.snapshot.jsonl"
        reference.save_snapshot(path)
        warm_start_begin = clock()
        sut = warm_start(kind, path, models, built)
        warm_start_s = clock() - warm_start_begin
    missing = unsearchable(sut, built)
    return Setup(
        built=built,
        models=models,
        reference=reference,
        sut=sut,
        build_s=build_s,
        train_s=train_s,
        warm_start_s=warm_start_s,
        total_s=clock() - start,
        unsearchable=missing,
    )
