"""Background evolution: mine -> classify -> link -> match -> publish.

The paper's net is "continuously growing"; the offline build
(:mod:`repro.pipeline.build`) only captures one snapshot of it.  This
module closes the loop at serving time.  An :class:`EvolutionDriver`
re-runs the construction stages against fresh synthetic corpus batches:

1. **mine** — candidate concepts for a new batch of queries and guides,
   by pattern combination
   (:meth:`~repro.concepts.generation.CandidateGenerator.combine_primitives`,
   Section 5.2.1); raw mined phrases carry no gold interpretation to
   link, so the default stage does not run the phrase miner;
2. **classify** — accept or reject each candidate.  The default is the
   ground-truth oracle (the repo's crowdsourcing substitute); wire in a
   trained Section 5.2.2 model with :func:`classifier_stage`;
3. **link** — INTERPRETED_BY edges from each accepted concept to the
   primitive concepts of its gold interpretation (Section 4.3);
4. **match** — ITEM_ECOMMERCE edges to catalog items.  As in the build,
   candidates are retrieved before they are verified (Section 6): the
   :class:`~repro.synth.index.ItemKeyIndex` hands over the items that
   share the concept's key part, and each is checked with the concept's
   ``concept_matcher`` and weighted like the offline build — so a new
   concept costs its key's items, not the whole catalog.

The link and match stages each stage one concept's edges as one
:meth:`~repro.kg.generations.GenerationalStore.add_relations` batch.

Accepted concepts and relations are staged into the serving tier's
:class:`~repro.kg.generations.GenerationalStore` open delta — invisible
to readers — and published as numbered generations on a size-or-interval
policy, against any target with a ``publish()`` method (the store itself,
an :class:`~repro.serving.AliCoCoService`, or an
:class:`~repro.serving.AliCoCoCluster`).

The driver runs on a background thread with a typed lifecycle
(:class:`EvolutionState`): ``pause()``/``resume()`` gate the loop,
``drain()`` publishes everything staged and stops, and repeated stage
failures back off exponentially before the driver wedges itself —
serving simply continues on the last good generation instead of
crashing.  ``run_cycle()`` is the same cycle exposed synchronously for
deterministic tests and scripts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

from ..concepts.generation import CandidateGenerator
from ..errors import ConfigError
from ..kg.generations import GenerationalStore
from ..kg.ids import ECOMMERCE_PREFIX, PRIMITIVE_PREFIX
from ..kg.nodes import ECommerceConcept
from ..kg.relations import Relation, RelationKind
from ..synth.guides import generate_guides
from ..synth.index import ItemKeyIndex
from ..synth.items import SynthItem, concept_matcher
from ..synth.queries import generate_queries
from ..synth.world import ConceptSpec, World
from ..utils.rng import derive_seed, spawn_rng
from ..utils.timing import LatencyReservoir

__all__ = [
    "CorpusBatch",
    "CycleReport",
    "EVOLUTION_STAGES",
    "EvolutionConfig",
    "EvolutionDriver",
    "EvolutionState",
    "EvolutionStats",
    "StageLatency",
    "classifier_stage",
]

#: The pipeline stages the driver meters, in execution order.
EVOLUTION_STAGES = ("mine", "classify", "link", "match", "publish")


class EvolutionState(Enum):
    """Lifecycle of the background loop."""

    STOPPED = "stopped"
    RUNNING = "running"
    PAUSED = "paused"
    DRAINING = "draining"
    WEDGED = "wedged"


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs for the evolution loop.

    Attributes:
        seed: Master seed; every cycle derives its own child seeds, so
            two drivers with the same seed mine identical batches.
        n_good / n_bad: Pattern-combined candidates per cycle (the bad
            share exercises the classify stage).
        n_queries / n_guides: Size of the fresh corpus batch per cycle.
        publish_min_nodes: Publish as soon as this many nodes are staged
            in the open delta (the *size* trigger).
        publish_max_interval: Publish any non-empty delta older than
            this many seconds (the *interval* trigger — keeps trickles
            from going stale).
        cycle_interval: Idle sleep between successful cycles.
        max_retries: Consecutive cycle failures tolerated before the
            driver wedges itself.
        backoff_base / backoff_max: Exponential backoff bounds between
            failed cycles, in seconds.
    """

    seed: int = 7
    n_good: int = 4
    n_bad: int = 3
    n_queries: int = 40
    n_guides: int = 25
    publish_min_nodes: int = 6
    publish_max_interval: float = 10.0
    cycle_interval: float = 0.05
    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "n_good",
            "n_queries",
            "n_guides",
            "publish_min_nodes",
            "max_retries",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_bad < 0:
            raise ConfigError("n_bad must be >= 0")
        for name in (
            "publish_max_interval",
            "cycle_interval",
            "backoff_base",
            "backoff_max",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class CorpusBatch:
    """One cycle's fresh text batch plus its dedicated RNG."""

    cycle_index: int
    sentences: list[list[str]]
    rng: np.random.Generator


@dataclass(frozen=True)
class CycleReport:
    """Outcome of one mine->classify->link->match cycle.

    ``published_generation`` is the generation id minted by this cycle's
    publish, or ``None`` when the policy left the delta open.
    """

    cycle_index: int
    candidates: int
    accepted: int
    rejected: int
    duplicates: int
    links: int
    matches: int
    published_generation: int | None


@dataclass(frozen=True)
class StageLatency:
    """Wall-clock latency of one evolution stage.

    ``mine`` is metered per batch; ``classify``/``link``/``match`` per
    candidate; ``publish`` per actual generation flip (skipped publish
    checks do not record).

    Attributes:
        stage: One of :data:`EVOLUTION_STAGES`.
        calls: Stage invocations recorded so far.
        p50_ms / p95_ms / p99_ms: Latency percentiles over a uniform
            reservoir sample of all invocations.
    """

    stage: str
    calls: int
    p50_ms: float
    p95_ms: float
    p99_ms: float


@dataclass(frozen=True)
class EvolutionStats:
    """Point-in-time snapshot of the driver's counters."""

    state: EvolutionState
    cycles: int
    failures: int
    consecutive_failures: int
    concepts_accepted: int
    concepts_rejected: int
    relations_staged: int
    publishes: int
    generation_id: int
    open_nodes: int
    open_relations: int
    last_error: str
    retry_budget: int = 3
    stage_latency: tuple[StageLatency, ...] = ()

    @property
    def wedged(self) -> bool:
        """Whether the loop has burned its retry budget and stopped."""
        return self.state is EvolutionState.WEDGED

    def format_table(self) -> str:
        """Human-readable report: loop health, stage latency, wedge state."""
        lines = [
            f"evolution: {self.state.value}, {self.cycles} cycles, "
            f"{self.publishes} publishes, serving generation "
            f"{self.generation_id}",
            f"staged: {self.concepts_accepted} accepted / "
            f"{self.concepts_rejected} rejected concepts, "
            f"{self.relations_staged} relations; open delta "
            f"{self.open_nodes} nodes / {self.open_relations} relations",
        ]
        for stage in self.stage_latency:
            lines.append(
                f"stage {stage.stage:<9} {stage.calls:>6} calls, "
                f"p50 {stage.p50_ms:.2f}ms, p95 {stage.p95_ms:.2f}ms, "
                f"p99 {stage.p99_ms:.2f}ms"
            )
        if self.wedged:
            lines.append(
                f"wedge: WEDGED after {self.consecutive_failures} "
                f"consecutive failures (budget {self.retry_budget}); "
                f"last error: {self.last_error or '-'}"
            )
        else:
            last = f"; last error: {self.last_error}" if self.last_error else ""
            lines.append(
                f"wedge: clear ({self.consecutive_failures}/{self.retry_budget} "
                f"consecutive failures burned, {self.failures} total{last})"
            )
        return "\n".join(lines)


def classifier_stage(
    classifier: Any, threshold: float = 0.5
) -> Callable[[ConceptSpec], bool]:
    """Acceptance check backed by a trained Section 5.2.2 classifier.

    Args:
        classifier: A fitted
            :class:`~repro.concepts.classifier.ConceptClassifier` (or
            anything with ``predict_proba(texts) -> array``).
        threshold: Acceptance probability cutoff.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("threshold must be in [0, 1]")

    def classify(spec: ConceptSpec) -> bool:
        return float(classifier.predict_proba([spec.text])[0]) >= threshold

    return classify


class EvolutionDriver:
    """Grows a served net in the background, one generation at a time.

    Args:
        target: What to publish through — a
            :class:`~repro.kg.generations.GenerationalStore`, or an
            ``AliCoCoService`` / ``AliCoCoCluster`` (each serves one).
            The driver stages writes into the target's generational
            store, so every ``publish()`` rebuilds the target's indexes
            too.
        world: Ground-truth world (candidate patterns, oracle, item
            matching all derive from it).
        items: Catalog :class:`~repro.synth.items.SynthItem` objects the
            match stage draws from (usually ``result.corpus.items``); they
            are indexed by key once, here.
        item_ids: ``item.index -> node id`` mapping for those items
            (usually ``result.item_ids``).
        config: Loop knobs.
        mine / classify / link / match: Optional stage overrides; each
            defaults to the construction-pipeline behaviour described in
            the module docstring.  Signatures::

                mine(batch: CorpusBatch) -> Sequence[ConceptSpec]
                classify(spec: ConceptSpec) -> bool
                link(store, node, spec) -> int        # edges added
                match(store, node, spec, rng) -> int  # edges added

        clock: Monotonic clock, injectable for deterministic
            interval-policy tests.
    """

    def __init__(
        self,
        target: Any,
        world: World,
        items: Sequence[SynthItem] = (),
        item_ids: dict[int, str] | None = None,
        config: EvolutionConfig | None = None,
        *,
        mine: Callable[[CorpusBatch], Sequence[ConceptSpec]] | None = None,
        classify: Callable[[ConceptSpec], bool] | None = None,
        link: Callable[..., int] | None = None,
        match: Callable[..., int] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or EvolutionConfig()
        self._target = target
        self._store = self._staging_store_of(target)
        self._world = world
        self._item_index = ItemKeyIndex(items, item_ids or {})
        self._mine = mine or self._default_mine
        self._classify = classify or self._default_classify
        self._link = link or self._default_link
        self._match = match or self._default_match
        self._clock = clock
        self._generator = CandidateGenerator(world)
        self._stage_rtt = {
            stage: LatencyReservoir(256, seed=index)
            for index, stage in enumerate(EVOLUTION_STAGES)
        }
        self._primitive_ids: dict[tuple[str, str], str | None] = {}
        self._staged_texts: set[str] = set()
        self._cycle_index = 0

        self._cond = threading.Condition()
        self._cycle_lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._state = EvolutionState.STOPPED
        self._last_publish = clock()
        self._cycles = 0
        self._failures = 0
        self._consecutive_failures = 0
        self._accepted = 0
        self._rejected = 0
        self._relations_staged = 0
        self._publishes = 0
        self._last_error = ""

    @classmethod
    def from_build(cls, result: Any, target: Any, **kwargs: Any) -> "EvolutionDriver":
        """Driver over a :class:`~repro.pipeline.build.BuildResult`."""
        return cls(
            target,
            result.world,
            items=result.corpus.items,
            item_ids=dict(result.item_ids),
            **kwargs,
        )

    @staticmethod
    def _staging_store_of(target: Any) -> GenerationalStore:
        # A cluster stages into its source, a service into its store.
        store = getattr(target, "source", getattr(target, "store", target))
        if not isinstance(store, GenerationalStore):
            raise ConfigError(
                "EvolutionDriver needs a publish target backed by a "
                "GenerationalStore: the store itself, or a service or "
                f"cluster, got {type(target).__name__}"
            )
        return store

    # ------------------------------------------------------- default stages
    def _fresh_batch(self, cycle_index: int) -> CorpusBatch:
        """A new text batch: every cycle sees sentences no cycle saw."""
        seed = derive_seed(self.config.seed, "evolve-batch", str(cycle_index))
        rng = spawn_rng(self.config.seed, "evolve-cycle", str(cycle_index))
        topics = self._world.sample_good_concepts(rng, max(2, self.config.n_good))
        queries = generate_queries(
            self._world, topics, self.config.n_queries, seed=seed
        )
        guides = generate_guides(self._world, topics, self.config.n_guides, seed=seed)
        sentences = [list(query.tokens) for query in queries] + guides
        return CorpusBatch(cycle_index=cycle_index, sentences=sentences, rng=rng)

    def _default_mine(self, batch: CorpusBatch) -> Sequence[ConceptSpec]:
        """Section 5.2.1 pattern-combined candidates for the batch.

        Raw mined phrases have no gold interpretation to link, so only
        pattern-combined specs can continue down the pipeline, and the
        default stage does not run the phrase miner.  A custom ``mine``
        stage can read the batch's text from ``batch.sentences``.
        """
        return self._generator.combine_primitives(
            batch.rng, self.config.n_good, self.config.n_bad
        )

    def _default_classify(self, spec: ConceptSpec) -> bool:
        """Crowdsourcing substitute: the world's ground-truth label."""
        return spec.good

    def _default_link(
        self, store: GenerationalStore, node: ECommerceConcept, spec: ConceptSpec
    ) -> int:
        """INTERPRETED_BY edges to the gold primitive senses, staged as
        one batch."""
        links = []
        for part in spec.parts:
            primitive_id = self._primitive_id(part.surface, part.domain)
            if primitive_id is not None:
                links.append(
                    Relation(
                        RelationKind.INTERPRETED_BY,
                        node.id,
                        primitive_id,
                        name=part.domain,
                    )
                )
        store.add_relations(links)
        return len(links)

    def _default_match(
        self,
        store: GenerationalStore,
        node: ECommerceConcept,
        spec: ConceptSpec,
        rng: np.random.Generator,
    ) -> int:
        """ITEM_ECOMMERCE edges from the catalog items that match ``spec``,
        staged as one batch.

        Candidates come from the item-key index and are verified with the
        spec's :func:`~repro.synth.items.concept_matcher` in catalog
        order, so the matched items, and the weights drawn for them from
        ``rng``, come in the same sequence as from a scan of the whole
        catalog.
        """
        matches = concept_matcher(self._world, spec)
        matched = [
            item_id
            for item, item_id in self._item_index.candidates(spec)
            if matches(item)
        ]
        # One array draw gives the same values, in the same order, as one
        # scalar draw per matched item inside the verify loop.
        weights = np.clip(rng.normal(0.8, 0.1, size=len(matched)), 0.05, 1.0)
        store.add_relations(
            [
                Relation(RelationKind.ITEM_ECOMMERCE, item_id, node.id, weight=weight)
                for item_id, weight in zip(matched, weights.tolist())
            ]
        )
        return len(matched)

    def _primitive_id(self, surface: str, domain: str) -> str | None:
        key = (surface, domain)
        if key not in self._primitive_ids:
            found = None
            for node in self._store.find_by_name(PRIMITIVE_PREFIX, surface):
                if getattr(node, "domain", None) == domain:
                    found = node.id
                    break
            self._primitive_ids[key] = found
        return self._primitive_ids[key]

    def _is_known(self, text: str) -> bool:
        if text in self._staged_texts:
            return True
        return bool(self._store.find_by_name(ECOMMERCE_PREFIX, text))

    def _timed(self, stage: str, call: Callable[..., Any], *args: Any) -> Any:
        """Run one stage invocation under its latency reservoir."""
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self._stage_rtt[stage].record(time.perf_counter() - start)

    # --------------------------------------------------------------- cycles
    def run_cycle(self) -> CycleReport:
        """Run one full cycle synchronously and apply the publish policy.

        Deterministic given the config seed and cycle number; the
        background loop calls exactly this, so scripted tests and the
        thread produce identical stores.
        """
        with self._cycle_lock:
            cycle_index = self._cycle_index
            self._cycle_index += 1
            batch = self._fresh_batch(cycle_index)
            store, rng = self._store, batch.rng
            candidates = list(self._timed("mine", self._mine, batch))
            accepted = rejected = duplicates = links = matches = 0
            for spec in candidates:
                if not self._timed("classify", self._classify, spec):
                    rejected += 1
                    continue
                if self._is_known(spec.text):
                    duplicates += 1
                    continue
                node = store.create_ecommerce(spec.text, source=spec.pattern)
                self._staged_texts.add(spec.text)
                accepted += 1
                links += int(self._timed("link", self._link, store, node, spec))
                matches += int(
                    self._timed("match", self._match, store, node, spec, rng)
                )
            with self._cond:
                self._cycles += 1
                self._accepted += accepted
                self._rejected += rejected
                self._relations_staged += links + matches
            published = self._maybe_publish()
        return CycleReport(
            cycle_index=cycle_index,
            candidates=len(candidates),
            accepted=accepted,
            rejected=rejected,
            duplicates=duplicates,
            links=links,
            matches=matches,
            published_generation=published,
        )

    def _maybe_publish(self, force: bool = False) -> int | None:
        with self._publish_lock:
            open_nodes, open_relations = self._store.open_counts
            waiting = open_nodes + open_relations
            if not force:
                if waiting == 0:
                    return None
                due_size = open_nodes >= self.config.publish_min_nodes
                elapsed = self._clock() - self._last_publish
                due_time = elapsed >= self.config.publish_max_interval
                if not (due_size or due_time):
                    return None
            generation_id = int(self._timed("publish", self._target.publish))
            self._last_publish = self._clock()
            with self._cond:
                if waiting:
                    self._publishes += 1
                self._staged_texts.clear()
            return generation_id

    # ------------------------------------------------------------ lifecycle
    @property
    def state(self) -> EvolutionState:
        with self._cond:
            return self._state

    def start(self) -> None:
        """Start (or restart) the background loop.

        Raises:
            ConfigError: If the loop is already running.
        """
        with self._cond:
            if self._thread is not None and self._thread.is_alive():
                raise ConfigError(f"evolution driver is already {self._state.value}")
            self._consecutive_failures = 0
            self._last_error = ""
            self._state = EvolutionState.RUNNING
            self._thread = threading.Thread(
                target=self._run_loop, name="evolution-driver", daemon=True
            )
            self._thread.start()

    def pause(self) -> None:
        """Hold the loop between cycles; readers are unaffected."""
        with self._cond:
            if self._state is not EvolutionState.RUNNING:
                raise ConfigError(f"cannot pause from state {self._state.value!r}")
            self._state = EvolutionState.PAUSED
            self._cond.notify_all()

    def resume(self) -> None:
        """Resume a paused loop, or restart a wedged one."""
        restart = False
        with self._cond:
            if self._state is EvolutionState.PAUSED:
                self._state = EvolutionState.RUNNING
                self._cond.notify_all()
            elif self._state is EvolutionState.WEDGED:
                self._consecutive_failures = 0
                self._last_error = ""
                self._state = EvolutionState.RUNNING
                restart = self._thread is None or not self._thread.is_alive()
            else:
                raise ConfigError(f"cannot resume from state {self._state.value!r}")
            if restart:
                self._thread = threading.Thread(
                    target=self._run_loop, name="evolution-driver", daemon=True
                )
                self._thread.start()

    def drain(self, timeout: float | None = 10.0) -> int:
        """Publish everything staged, stop the loop, and return the
        published generation id.

        From a running loop the in-flight cycle finishes first; from a
        stopped or wedged driver the flush happens inline.
        """
        thread = None
        with self._cond:
            if self._state in (
                EvolutionState.RUNNING,
                EvolutionState.PAUSED,
                EvolutionState.DRAINING,
            ):
                self._state = EvolutionState.DRAINING
                self._cond.notify_all()
                thread = self._thread
            else:
                self._state = EvolutionState.STOPPED
        if thread is not None and thread.is_alive():
            thread.join(timeout)
            if thread.is_alive():
                raise ConfigError(
                    "drain timed out mid-cycle; the loop will still flush and stop"
                )
        else:
            self._maybe_publish(force=True)
        return self._store.generation_id

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop the loop without a final publish.

        Staged work stays in the open delta: a later ``drain()`` or an
        external ``publish()`` can still ship it.
        """
        with self._cond:
            thread = self._thread
            self._state = EvolutionState.STOPPED
            self._cond.notify_all()
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def stats(self) -> EvolutionStats:
        """A consistent snapshot of counters plus the open-delta size."""
        open_nodes, open_relations = self._store.open_counts
        stage_latency = []
        for stage in EVOLUTION_STAGES:
            reservoir = self._stage_rtt[stage]
            summary = reservoir.percentiles_ms()
            stage_latency.append(
                StageLatency(
                    stage=stage,
                    calls=reservoir.count,
                    p50_ms=summary["p50"],
                    p95_ms=summary["p95"],
                    p99_ms=summary["p99"],
                )
            )
        with self._cond:
            return EvolutionStats(
                state=self._state,
                cycles=self._cycles,
                failures=self._failures,
                consecutive_failures=self._consecutive_failures,
                concepts_accepted=self._accepted,
                concepts_rejected=self._rejected,
                relations_staged=self._relations_staged,
                publishes=self._publishes,
                generation_id=self._store.generation_id,
                open_nodes=open_nodes,
                open_relations=open_relations,
                last_error=self._last_error,
                retry_budget=self.config.max_retries,
                stage_latency=tuple(stage_latency),
            )

    # ------------------------------------------------------ background loop
    def _run_loop(self) -> None:
        while True:
            with self._cond:
                while self._state is EvolutionState.PAUSED:
                    self._cond.wait()
                state = self._state
            if state in (EvolutionState.STOPPED, EvolutionState.WEDGED):
                return
            if state is EvolutionState.DRAINING:
                try:
                    self._maybe_publish(force=True)
                finally:
                    with self._cond:
                        self._state = EvolutionState.STOPPED
                        self._cond.notify_all()
                return
            try:
                self.run_cycle()
            except Exception as error:  # noqa: BLE001 — degrade, don't crash
                wedged = self._record_failure(error)
                if wedged:
                    return
                continue
            with self._cond:
                self._consecutive_failures = 0
            self._sleep(self.config.cycle_interval)

    def _record_failure(self, error: Exception) -> bool:
        """Count a failed cycle; back off, or wedge past the retry budget.

        A wedged driver stops staging and publishing but leaves the last
        good generation serving — degradation, not an outage.
        """
        with self._cond:
            self._failures += 1
            self._consecutive_failures += 1
            self._last_error = f"{type(error).__name__}: {error}"
            if self._consecutive_failures >= self.config.max_retries:
                if self._state is EvolutionState.RUNNING:
                    self._state = EvolutionState.WEDGED
                    self._cond.notify_all()
                    return True
                return False
            exponent = self._consecutive_failures - 1
        delay = min(self.config.backoff_max, self.config.backoff_base * (2.0**exponent))
        self._sleep(delay)
        return False

    def _sleep(self, delay: float) -> None:
        if delay <= 0.0:
            return
        with self._cond:
            if self._state is EvolutionState.RUNNING:
                self._cond.wait(delay)
