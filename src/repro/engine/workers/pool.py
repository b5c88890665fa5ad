"""The ``processes`` executor: worker processes own the shards.

Shard summaries *live* in long-running worker processes here.  The
coordinator's per-batch work shrinks to routing and cheap encoding:

* When a raw batch is int-faithful (the common synthetic/bench shape),
  routing runs on the ints directly (:func:`~repro.engine.workers.ipc
  .fast_int_buckets`, vectorised when numpy is importable, bit-identical
  to routing ``Fraction(v)`` either way) and each bucket ships as bare
  ints — Fraction construction, the single biggest serial cost, moves
  into the workers and parallelises.
* Otherwise the batch is normalised through
  :func:`~repro.engine.engine.as_fraction` first — so malformed values
  raise exactly like the serial path, before any worker mutates — and
  buckets ship as ``(numerator, denominator)`` pairs (or bare numerators
  when integral).
* On the columnar lane (``EngineConfig.lane == "columnar"``) int-faithful
  buckets additionally pack into contiguous int64 buffers (``"i64"``) and
  the workers apply them through ``process_numeric`` — no Fraction or Item
  is built on either side of the pipe.

Batches pipeline: ``apply_batch`` returns once the sub-batches are on the
pipes, the supervisor's ack window bounds the in-flight depth, and the
engine's end-of-ingest ``sync`` is the only barrier.  Reads go through
:meth:`collect`, which ships every shard back through the shard-state codec
(:func:`~repro.engine.workers.ipc.encode_shard_state`): a columnar GK shard
crosses the pipe as three int64 column buffers, any other shard as the
:mod:`repro.persistence` payload that checkpoints use.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.engine import as_fraction
from repro.engine.routing import route_batch
from repro.engine.workers.base import ShardExecutor
from repro.engine.workers.ipc import (
    MODE_INTS,
    encode_fractions,
    encode_int_bucket,
    encode_shard_state,
    fast_int_buckets,
)
from repro.engine.workers.supervisor import Supervisor


class ProcessPoolExecutor(ShardExecutor):
    """Long-lived supervised worker processes, each owning a shard subset."""

    kind = "processes"
    remote = True

    def __init__(self) -> None:
        super().__init__()
        self._supervisor: Supervisor | None = None

    # -- lifecycle -----------------------------------------------------------------

    def bind(self, engine) -> None:
        super().bind(engine)
        self._supervisor = Supervisor(engine.config, engine.telemetry)
        self._supervisor.start()

    @property
    def supervisor(self) -> Supervisor:
        if self._supervisor is None:
            raise RuntimeError("ProcessPoolExecutor is not bound to an engine")
        return self._supervisor

    def close(self) -> None:
        if self._supervisor is not None:
            self._supervisor.close()

    # -- ingest --------------------------------------------------------------------

    def apply_batch(self, values: Sequence, already_ingested: int) -> tuple[int, int]:
        config = self.engine.config
        buckets = fast_int_buckets(
            values, config.shards, config.routing, already_ingested
        )
        if buckets is not None:
            items = len(values)
            if config.lane == "columnar":
                # Columnar lane: pack each routed bucket into one contiguous
                # int64 buffer; the worker applies it via process_numeric.
                encoded = [encode_int_bucket(bucket) for bucket in buckets]
            else:
                encoded = [(MODE_INTS, bucket) for bucket in buckets]
        else:
            fractions = [as_fraction(value) for value in values]
            items = len(fractions)
            buckets = route_batch(
                fractions, config.shards, config.routing, already_ingested
            )
            encoded = [encode_fractions(bucket) for bucket in buckets]
        supervisor = self.supervisor
        assignments: dict[int, list] = {}
        busy = 0
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue
            busy += 1
            mode, payload = encoded[index]
            assignments.setdefault(supervisor.owner_of(index), []).append(
                (index, mode, payload)
            )
        if assignments:
            supervisor.submit(assignments)
        return items, busy

    def sync(self) -> None:
        self.supervisor.sync()

    # -- reads ---------------------------------------------------------------------

    def shard_counts(self) -> list[int]:
        supervisor = self.supervisor
        supervisor.sync()
        return supervisor.shard_counts()

    def collect(self) -> list[tuple]:
        return self.supervisor.collect_states()

    def restore(self, shards: Sequence) -> None:
        self.supervisor.restore(
            [encode_shard_state(shard) for shard in shards],
            [shard.n for shard in shards],
        )

    # -- reporting -----------------------------------------------------------------

    def describe(self) -> dict:
        supervisor = self.supervisor
        return {
            "kind": self.kind,
            "workers": supervisor.worker_count,
            "queue_depth": supervisor.queue_depth(),
            "restarts": supervisor.restarts_total(),
            "pids": supervisor.worker_pids(),
        }

    def worker_ids(self) -> Iterator[int]:
        return iter(range(self.supervisor.worker_count))

    def worker_pids(self) -> list[int | None]:
        return self.supervisor.worker_pids()

    def health_check(self) -> list[dict]:
        return self.supervisor.health_check()
