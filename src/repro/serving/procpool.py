"""Out-of-process shard workers: the cluster's process executor.

In-process, every shard's work runs on the parent's interpreter, so a
cluster's scattered sub-requests serialize on the GIL and adding shards
buys almost no throughput.  :class:`ProcessShardPool` moves each shard
into its own **worker process**: scattered sub-requests then compute on
separate interpreters in parallel.  A worker answers the same shard
verbs an in-process shard does (:class:`~repro.serving.shard.ShardHandler`),
so the pool offers the cluster the same surface as
:class:`~repro.serving.shard.LocalShardPool`; what this module adds is
transport — spawn, framed RPC, restart — and the worker's map from
cluster generation id to retained generation.

**Lifecycle.**

- *Spawn, not fork*: workers start via the ``multiprocessing`` spawn
  context — a fresh interpreter per shard, no inherited locks or
  arbitrary parent state, identical semantics on every platform.
- *Snapshot bootstrap*: the parent writes one per-shard snapshot file
  (:func:`~repro.serving.service.save_shard_snapshot` — shard store plus
  its projections of the cluster's global indexes) and each worker loads
  *its shard only* from disk
  (:func:`~repro.serving.service.shard_service_from_snapshot`).  Live
  stores are never pickled across the spawn boundary; only the (small,
  verified-picklable) trained models ride the spawn args.  The same
  file is the restart image after a crash.
- *Health*: a worker announces readiness with a ``ready`` hello frame
  (boot errors travel back as typed envelopes, not silent hangs) and
  answers ``ping`` round-trips thereafter.
- *Bounded restart*: a broken pipe mid-call triggers at most one
  respawn-and-retry per call, and at most ``max_restarts`` respawns per
  worker over the pool's lifetime.  A respawned worker replays the
  pool's **delta log** (every ``apply_delta`` the shard has
  acknowledged) over its bootstrap snapshot, so it rejoins at the
  exact generation it crashed at — answers after recovery are
  bit-identical.  Budget exhausted means the shard degrades to a typed
  :class:`~repro.errors.ShardUnavailableError`; healthy shards keep
  serving routed traffic.

**Pipelined scatter.**  :meth:`ProcessShardPool.scatter` sends every
shard its request *first* and only then collects responses, holding the
per-shard channel locks (acquired in increasing shard order — no
deadlock against routed calls, which take a single lock).  All workers
therefore compute concurrently; the parent's wall-clock for a fan-out is
the slowest shard plus IPC, not the sum — this is the GIL escape.  One
round-trip carries one whole per-shard batch (e.g. every pool-scoring
candidate the shard owns), never one frame per candidate.

**Generation pinning.**  A scattered verb carries the shard's pin from
the parent's pinned cluster bundle — for a worker, the cluster
generation id.  Each worker retains its last few published
:class:`~repro.serving.ServingGeneration` bundles keyed by that id, so a
fan-out racing a ``publish()`` reads one whole generation, as an
in-process shard does.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping, Sequence

from ..errors import ConfigError, DataError, ShardUnavailableError
from ..kg.store import AliCoCoStore
from ..matching.bm25 import BM25Index
from ..retrieval import BruteForceDense
from .rpc import (
    ShardChannel,
    decode_frame,
    encode_frame,
    error_envelope,
    raise_remote,
    serve_connection,
)
from .service import (
    AliCoCoService,
    ServingGeneration,
    save_shard_snapshot,
    shard_service_from_snapshot,
)
from .shard import ShardHandler

#: Published generations a worker keeps addressable by cluster
#: generation id.  Scatters only ever pin the current bundle (briefly
#: the previous one, mid-publish), so a handful is plenty.
RETAINED_GENERATIONS = 4

#: Pipe failures that mean "the worker is gone", not "the query failed".
_PIPE_ERRORS = (EOFError, OSError)


@dataclass(frozen=True)
class ShardWorkerSpec:
    """Everything a worker process needs to boot one shard.

    The spec crosses the spawn boundary pickled, so it carries only
    small things: the snapshot *path* (never the store), the serving
    config, and the prepared models.

    Attributes:
        shard_id: This worker's shard index.
        snapshot_path: Per-shard bootstrap snapshot
            (:func:`~repro.serving.service.save_shard_snapshot`).
        service_config: The per-shard :class:`~repro.serving.ServiceConfig`.
        tagger / reranker: Trained models (picklable modules); ``None``
            for a model-less cluster.
        cluster_generation_id: The cluster generation the bootstrap
            snapshot represents; keys the worker's first retained bundle.
    """

    shard_id: int
    snapshot_path: str
    service_config: Any
    tagger: Any = None
    reranker: Any = None
    cluster_generation_id: int = 0


class _ShardWorker(ShardHandler):
    """Worker-process shard handler: pins are cluster generation ids."""

    def __init__(self, service: AliCoCoService, cluster_generation_id: int):
        super().__init__(service)
        self._gens = {cluster_generation_id: service._gen}

    def pinned(self, pin: int) -> ServingGeneration:
        gen = self._gens.get(pin)
        if gen is None:
            retained = ", ".join(str(key) for key in sorted(self._gens))
            raise DataError(
                f"worker retains no cluster generation {pin} (retained: {retained})"
            )
        return gen

    def _verb_ping(self) -> tuple:
        return ("pong", os.getpid(), self.service.generation_id)

    def _verb_apply_delta(
        self,
        cluster_generation_id: int,
        ops: list,
        projection: BM25Index | None,
        dense_rows: dict[str, BruteForceDense | None],
    ) -> None:
        """:meth:`ShardHandler.apply_delta`, retained under the cluster
        generation id."""
        self._gens[cluster_generation_id] = self.apply_delta(
            ops, projection, dense_rows
        )
        while len(self._gens) > RETAINED_GENERATIONS:
            self._gens.pop(min(self._gens))


def _worker_main(connection: Any, spec: ShardWorkerSpec) -> None:
    """Spawn target: boot the shard service, hello, then serve the loop."""
    try:
        service = shard_service_from_snapshot(
            spec.snapshot_path,
            config=spec.service_config,
            tagger=spec.tagger,
            reranker=spec.reranker,
        )
        worker = _ShardWorker(service, spec.cluster_generation_id)
        hello = (True, ("ready", os.getpid()))
    except BaseException as error:  # boot failures must travel, typed
        try:
            connection.send_bytes(encode_frame(error_envelope(error)))
        finally:
            connection.close()
        return
    connection.send_bytes(encode_frame(hello))
    try:
        serve_connection(connection, worker.dispatch)
    finally:
        connection.close()


@dataclass
class _WorkerSlot:
    """Parent-side mutable state for one shard worker."""

    spec: ShardWorkerSpec
    channel: ShardChannel
    process: Any = None
    pid: int = 0
    restarts: int = 0
    dead: bool = False
    delta_log: list = field(default_factory=list)


@dataclass(frozen=True)
class WorkerStats:
    """One shard worker's parent-side health report.

    Attributes:
        shard: Shard index.
        pid: The worker process id (0 before first boot).
        alive: Whether the process is currently running and serviceable.
        restarts: Respawns consumed from the restart budget.
        calls: RPC round-trips completed.
        rtt_p50_ms / rtt_p95_ms / rtt_p99_ms: Round-trip percentiles.
    """

    shard: int
    pid: int
    alive: bool
    restarts: int
    calls: int
    rtt_p50_ms: float
    rtt_p95_ms: float
    rtt_p99_ms: float


@dataclass(frozen=True)
class ProcPoolStats:
    """Whole-pool worker health (one entry per shard)."""

    workers: tuple[WorkerStats, ...]

    @property
    def total_restarts(self) -> int:
        """Respawns consumed across all shards."""
        return sum(worker.restarts for worker in self.workers)

    @property
    def all_alive(self) -> bool:
        """Whether every shard currently has a live worker."""
        return all(worker.alive for worker in self.workers)


class ProcessShardPool:
    """Spawned shard workers behind a framed-RPC scatter/route surface.

    Args:
        specs: One :class:`ShardWorkerSpec` per shard, in shard order.
        max_restarts: Respawns allowed per worker before the shard
            degrades to :class:`~repro.errors.ShardUnavailableError`.
        reservoir_capacity / seed: Per-channel round-trip reservoirs.
        boot_timeout: Seconds to wait for a worker's hello frame.
        scratch_dir: A directory the pool owns (the bootstrap snapshots'),
            removed on :meth:`close`.

    Raises:
        ShardUnavailableError: If a worker fails to boot in time.
        ReproError: A worker-side boot failure, re-raised typed.
    """

    def __init__(
        self,
        specs: list[ShardWorkerSpec],
        *,
        max_restarts: int = 2,
        reservoir_capacity: int = 512,
        seed: int = 0,
        boot_timeout: float = 120.0,
        scratch_dir: Path | None = None,
    ):
        self._scratch_dir = scratch_dir
        if max_restarts < 0:
            raise ConfigError(f"max_restarts must be >= 0, got {max_restarts}")
        self._context = multiprocessing.get_context("spawn")
        self._max_restarts = max_restarts
        self._boot_timeout = boot_timeout
        self._closed = False
        self._slots = [
            _WorkerSlot(
                spec=spec,
                channel=ShardChannel(
                    None,
                    reservoir_capacity=reservoir_capacity,
                    seed=seed + 211 + position,
                ),
            )
            for position, spec in enumerate(specs)
        ]
        self._pins = [spec.cluster_generation_id for spec in specs]
        try:
            for slot in self._slots:
                self._spawn_locked(slot)
        except BaseException:
            self.close()
            raise

    # --------------------------------------------------------- lifecycle
    def _spawn_locked(self, slot: _WorkerSlot) -> None:
        """(Re)spawn one worker and wait for its hello.

        Caller holds the slot's channel lock (or is the constructor,
        before the pool is shared).
        """
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_end, slot.spec),
            name=f"alicoco-shard-{slot.spec.shard_id}",
            daemon=True,
        )
        process.start()
        child_end.close()
        slot.process = process
        slot.channel.reset(parent_end)
        if not parent_end.poll(self._boot_timeout):
            self._reap(slot)
            raise ShardUnavailableError(
                f"shard {slot.spec.shard_id} worker sent no hello within "
                f"{self._boot_timeout:.0f}s",
                shard=slot.spec.shard_id,
            )
        try:
            ok, value = decode_frame(parent_end.recv_bytes())
        except _PIPE_ERRORS as error:
            self._reap(slot)
            raise ShardUnavailableError(
                f"shard {slot.spec.shard_id} worker died before its hello: "
                f"{error!r}",
                shard=slot.spec.shard_id,
            ) from error
        if not ok:
            self._reap(slot)
            raise_remote(value)
        _tag, slot.pid = value

    def _reap(self, slot: _WorkerSlot) -> None:
        """Force one worker process down and release its pipe."""
        slot.channel.close()
        process = slot.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _restart_locked(self, slot: _WorkerSlot, cause: BaseException) -> None:
        """Consume restart budget and respawn + replay, or degrade typed.

        Caller holds the slot's channel lock.
        """
        shard = slot.spec.shard_id
        self._reap(slot)
        if slot.restarts >= self._max_restarts:
            slot.dead = True
            raise ShardUnavailableError(
                f"shard {shard} worker is gone and its restart budget "
                f"({self._max_restarts}) is exhausted: {cause!r}",
                shard=shard,
            ) from cause
        slot.restarts += 1
        try:
            self._spawn_locked(slot)
            # Replay every acknowledged delta over the bootstrap image,
            # in publish order — the respawned worker rejoins at the
            # generation it crashed at, bit-identically.
            for method, args in slot.delta_log:
                slot.channel.send(method, args)
                slot.channel.receive()
        except _PIPE_ERRORS as error:
            raise ShardUnavailableError(
                f"shard {shard} worker respawn failed: {error!r}", shard=shard
            ) from error

    def close(self) -> None:
        """Shut every worker down and join it (idempotent).

        Workers get a cooperative ``shutdown`` round-trip first; a
        worker that does not exit promptly is terminated.  After close
        no worker process of this pool is left running, and the pool's
        scratch directory is gone.
        """
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            with slot.channel.lock:
                process = slot.process
                if process is not None and process.is_alive():
                    try:
                        slot.channel.send("shutdown", ())
                        slot.channel.receive()
                    except Exception:
                        pass
                self._reap(slot)
        if self._scratch_dir is not None:
            shutil.rmtree(self._scratch_dir, ignore_errors=True)

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -------------------------------------------------------------- calls
    def call(self, shard: int, method: str, *args: Any) -> Any:
        """One routed round-trip, with restart-once-on-crash.

        Raises:
            ShardUnavailableError: If the shard's worker is dead and the
                restart budget is exhausted (or the respawn failed).
            ReproError: Worker-side failures, re-raised typed.
        """
        slot = self._slots[shard]
        with slot.channel.lock:
            self._check_serviceable(slot)
            try:
                return slot.channel.roundtrip(method, args)
            except _PIPE_ERRORS as error:
                self._restart_locked(slot, error)
                try:
                    return slot.channel.roundtrip(method, args)
                except _PIPE_ERRORS as again:
                    raise ShardUnavailableError(
                        f"shard {shard} worker died again right after a "
                        f"restart: {again!r}",
                        shard=shard,
                    ) from again

    def _check_serviceable(self, slot: _WorkerSlot) -> None:
        if self._closed:
            raise ShardUnavailableError(
                f"shard {slot.spec.shard_id}: the worker pool is closed",
                shard=slot.spec.shard_id,
            )
        if slot.dead:
            raise ShardUnavailableError(
                f"shard {slot.spec.shard_id} worker is gone (restart "
                f"budget {self._max_restarts} exhausted)",
                shard=slot.spec.shard_id,
            )

    def scatter(self, calls: Mapping[int, tuple[str, tuple]]) -> dict[int, Any]:
        """Pipelined fan-out: send to every shard, then collect.

        Channel locks are held from send to receive, acquired in
        increasing shard order (routed calls take a single lock, so
        ordered multi-acquisition cannot deadlock them).  Workers
        compute their sub-requests truly in parallel — the GIL escape.
        A shard whose pipe breaks mid-scatter is retried once through
        :meth:`call` (which restarts it) after all locks are released;
        worker-side *application* errors are drained from every shard
        first and then re-raised deterministically (lowest shard wins).

        Returns:
            ``{shard: result}`` for every entry in ``calls``.
        """
        shards = sorted(calls)
        slots = {shard: self._slots[shard] for shard in shards}
        results: dict[int, Any] = {}
        crashed: dict[int, BaseException] = {}
        failed: dict[int, BaseException] = {}
        starts: dict[int, float] = {}
        acquired: list[int] = []
        try:
            for shard in shards:
                slot = slots[shard]
                slot.channel.lock.acquire()
                acquired.append(shard)
                try:
                    self._check_serviceable(slot)
                    starts[shard] = perf_counter()
                    method, args = calls[shard]
                    slot.channel.send(method, args)
                except _PIPE_ERRORS as error:
                    crashed[shard] = error
                except ShardUnavailableError as error:
                    failed[shard] = error
            for shard in shards:
                if shard in crashed or shard in failed:
                    continue
                slot = slots[shard]
                try:
                    results[shard] = slot.channel.receive()
                    slot.channel.record_roundtrip(perf_counter() - starts[shard])
                except _PIPE_ERRORS as error:
                    crashed[shard] = error
                except Exception as error:  # app-level: drain the rest
                    failed[shard] = error
        finally:
            for shard in reversed(acquired):
                slots[shard].channel.lock.release()
        # Crashed shards get one restart-and-retry each, outside the
        # multi-lock region; a retry failure propagates typed.
        for shard in sorted(crashed):
            method, args = calls[shard]
            slot = slots[shard]
            with slot.channel.lock:
                self._check_serviceable(slot)
                self._restart_locked(slot, crashed[shard])
                try:
                    results[shard] = slot.channel.roundtrip(method, args)
                except _PIPE_ERRORS as again:
                    raise ShardUnavailableError(
                        f"shard {shard} worker died again right after a "
                        f"restart: {again!r}",
                        shard=shard,
                    ) from again
        if failed:
            raise failed[min(failed)]
        return results

    # ----------------------------------------------------------- mutation
    def apply_delta(
        self,
        shard: int,
        cluster_generation_id: int,
        ops: list,
        projection: BM25Index | None,
        dense_rows: dict[str, BruteForceDense | None],
    ) -> int:
        """Ship one shard's publish delta and log it for crash replay.

        The payload lands in the shard's delta log only after the worker
        acknowledges it — a worker that crashes mid-apply restarts from
        the bootstrap image plus the *previous* deltas and the retried
        call applies this one exactly once.

        Returns:
            The shard's new pin: the cluster generation id the worker
            retains the new generation under.
        """
        args = (cluster_generation_id, ops, projection, dense_rows)
        self.call(shard, "apply_delta", *args)
        self._slots[shard].delta_log.append(("apply_delta", args))
        self._pins[shard] = cluster_generation_id
        return cluster_generation_id

    # ------------------------------------------------------ introspection
    @property
    def n_shards(self) -> int:
        """Number of shard workers."""
        return len(self._slots)

    def pins(self) -> tuple[int, ...]:
        """Each shard's current pin, in shard order."""
        return tuple(self._pins)

    def ping(self, shard: int) -> tuple:
        """Health-check one worker (restarts it if crashed, as any call)."""
        return self.call(shard, "ping")

    def ping_all(self) -> list[tuple]:
        """Health-check every worker, in shard order."""
        return [self.ping(shard) for shard in range(self.n_shards)]

    def alive(self, shard: int) -> bool:
        """Whether a shard currently has a live, serviceable worker."""
        slot = self._slots[shard]
        return (
            not slot.dead
            and not self._closed
            and slot.process is not None
            and slot.process.is_alive()
        )

    def worker_process(self, shard: int) -> Any:
        """The live process handle (tests kill it to exercise recovery)."""
        return self._slots[shard].process

    def stats(self) -> ProcPoolStats:
        """Per-worker health: liveness, restart budget burn, RTT."""
        workers = []
        for shard, slot in enumerate(self._slots):
            channel = slot.channel.stats()
            workers.append(
                WorkerStats(
                    shard=shard,
                    pid=slot.pid,
                    alive=self.alive(shard),
                    restarts=slot.restarts,
                    calls=channel.calls,
                    rtt_p50_ms=channel.rtt_p50_ms,
                    rtt_p95_ms=channel.rtt_p95_ms,
                    rtt_p99_ms=channel.rtt_p99_ms,
                )
            )
        return ProcPoolStats(workers=tuple(workers))


def spawn_shard_pool(
    shard_stores: Sequence[AliCoCoStore],
    config: Any,
    *,
    search_indexes: Sequence[BM25Index | None],
    dense_indexes: Sequence[dict[str, BruteForceDense | None]],
    config_fingerprint: str,
    **spec: Any,
) -> ProcessShardPool:
    """Write one bootstrap snapshot per shard store, its index projections
    embedded, and spawn a worker over each.  A worker boots from the
    projections it is given and never fits an index.

    ``config`` is the :class:`~repro.serving.cluster.ClusterConfig`;
    ``spec`` holds the :class:`ShardWorkerSpec` fields all shards share.
    Without ``config.worker_dir`` the snapshots go to a private
    temporary directory the pool removes on close.
    """
    owned = config.worker_dir is None
    directory = Path(
        tempfile.mkdtemp(prefix="alicoco-shards-") if owned else config.worker_dir
    )
    directory.mkdir(parents=True, exist_ok=True)
    try:
        specs = []
        for shard, shard_store in enumerate(shard_stores):
            path = directory / f"shard-{shard}.snap"
            save_shard_snapshot(
                path,
                shard_store,
                search_index=search_indexes[shard],
                dense_indexes=dense_indexes[shard],
                config_fingerprint=config_fingerprint,
            )
            specs.append(
                ShardWorkerSpec(shard_id=shard, snapshot_path=str(path), **spec)
            )
        return ProcessShardPool(
            specs,
            max_restarts=config.max_worker_restarts,
            reservoir_capacity=config.reservoir_capacity,
            seed=config.seed,
            scratch_dir=directory if owned else None,
        )
    except BaseException:
        if owned:
            shutil.rmtree(directory, ignore_errors=True)
        raise
