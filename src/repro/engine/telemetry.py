"""Engine telemetry, built on the shared observability registry.

Historically this module owned its own counters and GK latency summaries;
it is now a thin facade over :class:`repro.obs.registry.MetricRegistry` —
the same registry/exporter machinery used by the adversary tracer and the
summary instrumentation — while keeping its public surface (``count``,
``record_latency``, ``timed``, ``snapshot``, checkpoint payloads) and its
on-disk checkpoint format unchanged.

In the registry the engine's signals live under Prometheus-ready names:
exact counters as ``engine_<name>`` (items ingested, merges performed,
checkpoint bytes, ...), per-operation latency distributions as the
``engine_latency_ns{operation=...}`` histogram family, and batch sizes as
``engine_batch_size``.  Distributions are held in
:class:`~repro.summaries.gk.GreenwaldKhanna` summaries — the very structure
whose optimality the paper proves — so monitoring runs in
O((1/eps) log(eps N)) space no matter how long the engine serves.

Latencies are recorded in integer nanoseconds (``time.perf_counter_ns``
deltas become exact rational items; no float keys, no drift) and reported in
microseconds.  :meth:`Telemetry.snapshot` exports a JSON-compatible metrics
dict; :meth:`to_payload` / :meth:`from_payload` ride along in engine
checkpoints via :mod:`repro.persistence`, with counters and latency
operations emitted in sorted order so checkpoint files are byte-stable and
diffable.

Thread-safety: the engine records telemetry only from its coordinator
thread (shard workers are separate processes that never touch this
object), so no locking is needed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator

from repro.obs.registry import Histogram, MetricRegistry
from repro.persistence import dump as _dump_summary, load as _load_summary

TELEMETRY_EPSILON = 0.01
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

_COUNTER_PREFIX = "engine_"
_LATENCY_METRIC = "engine_latency_ns"
_BATCH_SIZE_METRIC = "engine_batch_size"


class Telemetry:
    """Counters plus GK-summarised latency and batch-size distributions.

    ``registry`` defaults to a private :class:`MetricRegistry` so multiple
    engines in one process do not mix their counts; pass a shared registry
    to aggregate several components onto one Prometheus page.
    """

    def __init__(
        self,
        epsilon: float = TELEMETRY_EPSILON,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.epsilon = float(epsilon)
        self.registry = (
            registry
            if registry is not None
            else MetricRegistry(default_epsilon=self.epsilon)
        )
        self._latencies: dict[str, Histogram] = {}
        self._batch_sizes = self.registry.histogram(
            _BATCH_SIZE_METRIC,
            help="items per ingested batch",
            epsilon=self.epsilon,
        )

    # -- recording ---------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.registry.counter(_COUNTER_PREFIX + name).inc(amount)

    def record_latency(self, operation: str, nanoseconds: int) -> None:
        """Feed one latency observation into ``operation``'s GK summary."""
        summary = self._latencies.get(operation)
        if summary is None:
            summary = self._latencies[operation] = self.registry.histogram(
                _LATENCY_METRIC,
                help="per-operation engine latency in nanoseconds",
                epsilon=self.epsilon,
                operation=operation,
            )
        summary.observe(int(nanoseconds))

    def record_batch_size(self, size: int) -> None:
        """Feed one batch-size observation into the batch-size GK summary."""
        self._batch_sizes.observe(int(size))

    @contextmanager
    def timed(self, operation: str) -> Iterator[None]:
        """Time a block and record its latency under ``operation``."""
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            self.record_latency(operation, time.perf_counter_ns() - started)

    # -- reporting ---------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        """Exact counter values, keyed by their unprefixed engine names."""
        report = {}
        for metric in self.registry:
            if metric.kind == "counter" and metric.name.startswith(_COUNTER_PREFIX):
                report[metric.name[len(_COUNTER_PREFIX):]] = metric.value
        return report

    def latency_quantiles(
        self, operation: str, phis=DEFAULT_QUANTILES
    ) -> dict:
        """Latency quantiles for ``operation`` in microseconds (p50/p90/...)."""
        summary = self._latencies.get(operation)
        if summary is None:
            return {}
        return summary.quantiles(phis, scale=1000.0)

    def operation_seconds(self, operation: str) -> float:
        """Total wall time recorded under ``operation``, in seconds.

        Exact (the histogram keeps a rational running sum), so
        ``items / operation_seconds("ingest_batch")`` is a faithful lifetime
        items-per-second figure even across checkpoint/restore cycles.
        """
        summary = self._latencies.get(operation)
        if summary is None:
            return 0.0
        return float(summary.sum) / 1e9

    def snapshot(self) -> dict:
        """JSON-compatible metrics snapshot: counters + distributions."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "batch_sizes": {
                "observations": self._batch_sizes.observations,
                "quantiles": self._batch_sizes.quantiles(DEFAULT_QUANTILES),
            },
            "latency_us": {
                operation: {
                    "observations": summary.observations,
                    "quantiles": self.latency_quantiles(operation),
                }
                for operation, summary in sorted(self._latencies.items())
            },
        }

    # -- checkpoint support --------------------------------------------------------

    def to_payload(self) -> dict:
        """Full state (exact, via :mod:`repro.persistence`) for checkpoints.

        Counters and latency operations are emitted in sorted order so two
        checkpoints of equal state are byte-identical.
        """
        return {
            "epsilon": repr(self.epsilon),
            "counters": dict(sorted(self.counters.items())),
            "batch_sizes": _dump_summary(self._batch_sizes.summary),
            "batch_size_sum": str(self._batch_sizes.sum),
            "latencies": {
                operation: _dump_summary(summary.summary)
                for operation, summary in sorted(self._latencies.items())
            },
            "latency_sums": {
                operation: str(summary.sum)
                for operation, summary in sorted(self._latencies.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Telemetry":
        telemetry = cls(epsilon=float(payload["epsilon"]))
        for name, value in payload["counters"].items():
            telemetry.count(name, int(value))
        latency_sums = payload.get("latency_sums", {})
        telemetry._batch_sizes._summary = _load_summary(
            payload["batch_sizes"], telemetry._batch_sizes._universe
        )
        telemetry._batch_sizes._sum = Fraction(payload.get("batch_size_sum", 0))
        for operation, encoded in payload["latencies"].items():
            histogram = telemetry.registry.histogram(
                _LATENCY_METRIC,
                help="per-operation engine latency in nanoseconds",
                epsilon=telemetry.epsilon,
                operation=operation,
            )
            histogram._summary = _load_summary(encoded, histogram._universe)
            histogram._sum = Fraction(latency_sums.get(operation, 0))
            telemetry._latencies[operation] = histogram
        return telemetry
