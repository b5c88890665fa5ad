"""Supervision of shard-worker processes: spawn, pipeline, recover, collect.

The :class:`Supervisor` owns one :class:`WorkerHandle` per worker process and
gives the :class:`~repro.engine.workers.pool.ProcessPoolExecutor` three
guarantees:

* **Pipelining with bounded depth** — ``submit`` returns as soon as a batch
  is on the worker's command queue (a feeder-thread ``multiprocessing
  .Queue``, so the put never blocks on a full OS pipe and a slow worker
  cannot head-of-line-block its siblings), letting the coordinator route
  batch *k+1* while workers apply batch *k*; a per-worker window of
  unacknowledged batches (:data:`DEFAULT_WINDOW`) bounds memory and keeps
  backpressure honest.  ``worker_queue_depth`` gauges the total in-flight
  count.

* **Crash recovery that preserves bit-identity** — every batch message is
  appended to a replay log before it is sent.  Periodically (every
  :data:`DEFAULT_SNAPSHOT_EVERY` acked batches, tunable via the
  ``REPRO_WORKER_SNAPSHOT_EVERY`` env var) the supervisor asks the worker
  for its encoded shard state and truncates the log to the entries sent
  after that cut.  When a worker dies (``EOFError`` on its result pipe),
  the supervisor respawns it, restores the last snapshot, and
  replays the log FIFO — because a shard is a deterministic function of its
  routed subsequence, the rebuilt state is byte-identical to an uncrashed
  run.  ``worker_restarts_total{worker=...}`` counts recoveries.

* **Telemetry without double counting** — every state frame carries the
  worker's metric-registry *deltas* (the worker resets after shipping) plus
  its buffered span records; the supervisor merges the registry into the
  engine's and re-emits the spans as trace events on drain.

Worker *logic* errors (an ``("error", ...)`` frame) are not crashes: the
worker is telling us deterministic re-execution would fail the same way, so
the supervisor raises :class:`~repro.errors.EngineError` instead of
restarting.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from typing import TYPE_CHECKING

from repro.engine.workers.worker import worker_main
from repro.errors import EngineError
from repro.obs import spans as obs_spans
from repro.obs.registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.config import EngineConfig
    from repro.engine.telemetry import Telemetry

#: Acked batches between automatic worker state snapshots.
DEFAULT_SNAPSHOT_EVERY = 64
#: Unacknowledged batches allowed in flight per worker.
DEFAULT_WINDOW = 8

SNAPSHOT_EVERY_ENV = "REPRO_WORKER_SNAPSHOT_EVERY"
START_METHOD_ENV = "REPRO_WORKER_START_METHOD"

_RESTARTS_HELP = "shard workers restarted after a crash"
_SNAPSHOTS_HELP = "worker state snapshots taken for crash recovery"
_QUEUE_DEPTH_HELP = "ingest batches submitted to workers but not yet applied"


def snapshot_cadence() -> int:
    """Acked batches between snapshots (``REPRO_WORKER_SNAPSHOT_EVERY``)."""
    raw = os.environ.get(SNAPSHOT_EVERY_ENV)
    if not raw:
        return DEFAULT_SNAPSHOT_EVERY
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_SNAPSHOT_EVERY


def start_method() -> str:
    """Multiprocessing start method (``REPRO_WORKER_START_METHOD`` override).

    Fork is preferred where available: workers inherit the registered
    summary types and start in milliseconds; spawn remains the portable
    fallback (everything workers need crosses the pipe as primitives).
    """
    method = os.environ.get(START_METHOD_ENV)
    if method:
        return method
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class WorkerHandle:
    """Coordinator-side state for one worker process."""

    __slots__ = (
        "worker_id",
        "shard_indexes",
        "process",
        "command",
        "results",
        "generation",
        "log",
        "pending",
        "requests",
        "counts",
        "snapshot",
        "acked_since_snapshot",
        "last_pong",
    )

    def __init__(self, worker_id: int, shard_indexes: list[int]) -> None:
        self.worker_id = worker_id
        self.shard_indexes = tuple(shard_indexes)
        self.process = None
        self.command = None  # coordinator -> worker command queue
        self.results = None  # worker -> coordinator pipe end
        #: Bumped on every restart; lets waiters detect a lost request.
        self.generation = 0
        #: Batch messages sent since the last absorbed snapshot (replay log).
        self.log: list[tuple] = []
        #: Batch ids sent but not yet acknowledged, FIFO.
        self.pending: deque[int] = deque()
        #: (request_id, log_cut) pairs awaiting a ``state`` frame, FIFO.
        self.requests: deque[tuple[int, int]] = deque()
        #: Last acknowledged ``summary.n`` per owned shard.
        self.counts: dict[int, int] = {index: 0 for index in self.shard_indexes}
        #: Last snapshot per owned shard, as
        #: :func:`~repro.engine.workers.ipc.encode_shard_state` encoded it
        #: (None = fresh summary).
        self.snapshot: dict[int, tuple | None] = {
            index: None for index in self.shard_indexes
        }
        self.acked_since_snapshot = 0
        self.last_pong: dict | None = None

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class Supervisor:
    """Spawns, feeds, health-checks and crash-recovers the worker fleet."""

    def __init__(
        self,
        config: "EngineConfig",
        telemetry: "Telemetry",
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.worker_count = max(1, min(config.workers, config.shards))
        self.window = max(1, window)
        self.snapshot_every = snapshot_cadence()
        self._context = multiprocessing.get_context(start_method())
        self._owner = [index % self.worker_count for index in range(config.shards)]
        self._handles = [
            WorkerHandle(
                worker_id,
                [
                    index
                    for index in range(config.shards)
                    if index % self.worker_count == worker_id
                ],
            )
            for worker_id in range(self.worker_count)
        ]
        self._sequence = 0
        self._closed = False
        self._queue_depth = telemetry.registry.gauge(
            "worker_queue_depth", help=_QUEUE_DEPTH_HELP
        )
        for handle in self._handles:
            self._restarts_counter(handle)
            self._snapshots_counter(handle)

    def _restarts_counter(self, handle: WorkerHandle):
        return self.telemetry.registry.counter(
            "worker_restarts_total", help=_RESTARTS_HELP, worker=str(handle.worker_id)
        )

    def _snapshots_counter(self, handle: WorkerHandle):
        return self.telemetry.registry.counter(
            "worker_snapshots_total",
            help=_SNAPSHOTS_HELP,
            worker=str(handle.worker_id),
        )

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        for handle in self._handles:
            self._spawn(handle)

    def _spawn(self, handle: WorkerHandle) -> None:
        command_queue = self._context.Queue()
        result_read, result_write = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=worker_main,
            args=(
                handle.worker_id,
                list(handle.shard_indexes),
                self.config.to_payload(),
                command_queue,
                result_write,
            ),
            daemon=True,
            name=f"repro-shard-worker-{handle.worker_id}",
        )
        process.start()
        # Close the child's result end in the coordinator so a dead worker
        # surfaces as EOFError instead of a silent hang.
        result_write.close()
        handle.process = process
        handle.command = command_queue
        handle.results = result_read

    def close(self) -> None:
        """Stop every worker (idempotent; graceful first, terminate second)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if handle.command is not None:
                try:
                    handle.command.put(("stop",))
                except (ValueError, OSError):
                    pass
            process = handle.process
            if process is not None:
                process.join(timeout=2)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2)
            self._close_channels(handle)

    def _close_channels(self, handle: WorkerHandle) -> None:
        if handle.command is not None:
            try:
                # A dead reader can leave the feeder thread blocked on
                # buffered frames; never wait for it.
                handle.command.cancel_join_thread()
                handle.command.close()
            except (ValueError, OSError):
                pass
        if handle.results is not None:
            try:
                handle.results.close()
            except OSError:
                pass

    # -- introspection -------------------------------------------------------------

    def owner_of(self, shard_index: int) -> int:
        return self._owner[shard_index]

    def worker_pids(self) -> list[int | None]:
        return [handle.pid for handle in self._handles]

    def restarts_total(self) -> int:
        return sum(
            self._restarts_counter(handle).value for handle in self._handles
        )

    def queue_depth(self) -> int:
        return sum(len(handle.pending) for handle in self._handles)

    # -- ingest path ---------------------------------------------------------------

    def submit(self, assignments: dict[int, list]) -> None:
        """Send one routed batch: ``{worker_id: [(shard, mode, payload), ...]}``."""
        self._sequence += 1
        batch_id = self._sequence
        for worker_id in sorted(assignments):
            handle = self._handles[worker_id]
            self._ensure_capacity(handle)
            message = ("batch", batch_id, assignments[worker_id])
            handle.log.append(message)
            self._dispatch(handle, message, batch_id)
        # Opportunistic non-blocking drain keeps ack queues short.
        for worker_id in assignments:
            while self._pump(self._handles[worker_id], block=False):
                pass
        self._queue_depth.set(self.queue_depth())

    def _dispatch(self, handle: WorkerHandle, message: tuple, batch_id: int) -> None:
        if handle.process is None or not handle.process.is_alive():
            # The message is already in the log; restart replays it.
            self._restart(handle)
            return
        try:
            handle.command.put(message)
        except (ValueError, OSError):
            self._restart(handle)
            return
        handle.pending.append(batch_id)

    def _ensure_capacity(self, handle: WorkerHandle) -> None:
        while len(handle.pending) >= self.window:
            self._pump(handle, block=True)

    def sync(self) -> None:
        """Barrier: every submitted batch is applied, every request answered."""
        for handle in self._handles:
            while handle.pending or handle.requests:
                self._pump(handle, block=True)
        self._queue_depth.set(0)

    # -- frame handling ------------------------------------------------------------

    def _pump(self, handle: WorkerHandle, block: bool) -> bool:
        """Process one incoming frame; False when non-blocking and idle.

        A dead worker surfaces here as ``EOFError`` (its pipe ends close with
        the process) and triggers :meth:`_restart`.
        """
        if not block and not handle.results.poll():
            return False
        try:
            message = handle.results.recv()
        except EOFError:
            self._restart(handle)
            return True
        self._handle_frame(handle, message)
        return True

    def _handle_frame(self, handle: WorkerHandle, message: tuple) -> None:
        kind = message[0]
        if kind == "applied":
            _, batch_id, counts = message
            if not handle.pending or handle.pending[0] != batch_id:
                raise EngineError(
                    f"shard worker {handle.worker_id} acknowledged batch "
                    f"{batch_id} out of order"
                )
            handle.pending.popleft()
            handle.counts.update(counts)
            handle.acked_since_snapshot += 1
            if (
                handle.acked_since_snapshot >= self.snapshot_every
                and not handle.requests
            ):
                self._request_state(handle)
        elif kind == "state":
            _, request_id, states, registry_payload, span_records = message
            if not handle.requests or handle.requests[0][0] != request_id:
                raise EngineError(
                    f"shard worker {handle.worker_id} sent an unexpected "
                    "state frame"
                )
            _, cut = handle.requests.popleft()
            handle.snapshot = dict(states)
            del handle.log[:cut]
            handle.acked_since_snapshot = 0
            self._absorb(registry_payload, span_records)
            self._snapshots_counter(handle).inc()
        elif kind == "pong":
            _, _request_id, info = message
            handle.last_pong = info
        elif kind == "error":
            _, text, trace = message
            raise EngineError(
                f"shard worker {handle.worker_id} failed: {text}\n{trace}"
            )
        else:
            raise EngineError(f"unknown worker frame kind {kind!r}")

    def _absorb(self, registry_payload: dict, span_records: list[dict]) -> None:
        """Fold a worker's shipped metric deltas and spans into the parent."""
        self.telemetry.registry.merge(MetricRegistry.from_payload(registry_payload))
        for record in span_records:
            attributes = {key: value for key, value in record.items() if key != "name"}
            obs_spans.event(record.get("name", "engine.worker.span"), **attributes)

    # -- snapshots and collection ----------------------------------------------------

    def _request_state(self, handle: WorkerHandle) -> int | None:
        """Ask a worker for its encoded state; returns the request id."""
        if handle.process is None or not handle.process.is_alive():
            self._restart(handle)
            return None
        self._sequence += 1
        request_id = self._sequence
        try:
            handle.command.put(("collect", request_id))
        except (ValueError, OSError):
            self._restart(handle)
            return None
        handle.requests.append((request_id, len(handle.log)))
        return request_id

    def collect_states(self) -> list[tuple]:
        """Fresh encoded shard states for every shard, in shard order.

        Doubles as a snapshot: each answered request resets the worker's
        replay log, so collection also tightens the crash-recovery window.
        """
        self.sync()
        for handle in self._handles:
            while True:
                generation = handle.generation
                if self._request_state(handle) is None:
                    continue  # restarted before the request went out
                while handle.requests and handle.generation == generation:
                    self._pump(handle, block=True)
                if handle.generation == generation:
                    break
                # Restarted while waiting: the request died with the old
                # process. Drain the replay acks, then ask again.
                while handle.pending or handle.requests:
                    self._pump(handle, block=True)
        states: dict[int, tuple] = {}
        for handle in self._handles:
            states.update(handle.snapshot)
        return [states[index] for index in range(self.config.shards)]

    def restore(self, states: list[tuple], counts: list[int]) -> None:
        """Reset every worker's shards from encoded shard states."""
        self.sync()
        for handle in self._handles:
            handle.log.clear()
            handle.pending.clear()
            handle.requests.clear()
            handle.acked_since_snapshot = 0
            handle.snapshot = {
                index: states[index] for index in handle.shard_indexes
            }
            handle.counts = {
                index: counts[index] for index in handle.shard_indexes
            }
            try:
                handle.command.put(("restore", dict(handle.snapshot)))
            except (ValueError, OSError):
                self._restart(handle)  # restart restores from the snapshot

    # -- shard counts and health -----------------------------------------------------

    def shard_counts(self) -> list[int]:
        """Per-shard item counts as of the last sync (call :meth:`sync` first)."""
        counts: dict[int, int] = {}
        for handle in self._handles:
            counts.update(handle.counts)
        return [counts[index] for index in range(self.config.shards)]

    def health_check(self) -> list[dict]:
        """Ping every worker; dead ones are restarted. Returns info dicts."""
        self.sync()
        report = []
        for handle in self._handles:
            generation = handle.generation
            handle.last_pong = None
            self._sequence += 1
            alive = handle.process is not None and handle.process.is_alive()
            if alive:
                try:
                    handle.command.put(("ping", self._sequence))
                except (ValueError, OSError):
                    self._restart(handle)
            else:
                self._restart(handle)
            while handle.last_pong is None and handle.generation == generation:
                self._pump(handle, block=True)
            report.append(
                {
                    "worker": handle.worker_id,
                    "pid": handle.pid,
                    "shards": list(handle.shard_indexes),
                    "restarted": handle.generation != generation,
                    "restarts": self._restarts_counter(handle).value,
                    **(handle.last_pong or {}),
                }
            )
        return report

    # -- crash recovery --------------------------------------------------------------

    def _restart(self, handle: WorkerHandle) -> None:
        """Respawn a dead worker and rebuild its state deterministically.

        Restore the last snapshot, then replay the logged batches FIFO: the
        rebuilt shard state is byte-identical to an uncrashed worker's,
        because each shard is a deterministic function of its routed
        subsequence.
        """
        handle.generation += 1
        process = handle.process
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)
        self._close_channels(handle)
        self._restarts_counter(handle).inc()
        obs_spans.event(
            "engine.worker.restart",
            worker=handle.worker_id,
            replayed_batches=len(handle.log),
        )
        handle.pending.clear()
        handle.requests.clear()
        handle.acked_since_snapshot = 0
        handle.last_pong = None
        self._spawn(handle)
        try:
            handle.command.put(("restore", dict(handle.snapshot)))
            for message in handle.log:
                handle.command.put(message)
                handle.pending.append(message[1])
        except (ValueError, OSError) as error:
            raise EngineError(
                f"failed to restart shard worker {handle.worker_id}"
            ) from error
