"""Deterministic mixed-workload load generator for the quantile service.

Spawns ``clients`` concurrent :class:`~repro.service.client.QuantileClient`
connections, each driving a seeded per-client RNG (``seed * 8191 + index``)
through ``ops_per_client`` operations chosen by ``insert_ratio`` — so the
same :class:`LoadConfig` always produces the same byte-for-byte request
stream, the same set of inserted values, and therefore a *checkable*
ground truth: :meth:`LoadReport.exact_rank` computes the true rank of any
value over everything the run inserted, which is how the end-to-end test
and the CI smoke job assert the served answers stay within epsilon.

Per-operation latency is tracked in GK-backed
:class:`~repro.obs.registry.Histogram` instances — O((1/eps) log(eps N))
space no matter how long the run is, so multi-hour canary soaks don't
accumulate unbounded Python lists.  Set ``LoadConfig.raw_latencies`` to
additionally keep every raw nanosecond sample (the exact-percentile mode
the unit tests and short benchmark runs use).

Used by ``benchmarks/bench_service.py`` (throughput/latency history),
``repro client load`` (operator smoke-testing a live server), the
scenario-driven canary harness (:mod:`repro.scenarios`), and the
loopback e2e test.
"""

from __future__ import annotations

import asyncio
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter_ns

from repro.errors import RequestFailed, ServiceError
from repro.obs.registry import Histogram
from repro.service import protocol
from repro.service.client import QuantileClient

#: GK accuracy of the per-op latency histograms; 0.005 keeps p99 honest.
LATENCY_EPSILON = 0.005

#: The latency percentiles reports expose by default.
LATENCY_PHIS = (0.5, 0.95, 0.99)


@dataclass
class LoadConfig:
    """Shape of one deterministic load run."""

    clients: int = 8
    ops_per_client: int = 50
    insert_ratio: float = 0.7
    values_per_insert: int = 100
    value_range: tuple[int, int] = (0, 1_000_000)
    phis: tuple = (0.1, 0.5, 0.9, 0.99)
    deadline_ms: float = 5000.0
    seed: int = 0
    #: Keep every raw latency sample next to the GK histograms (opt-in:
    #: exact percentiles for tests, unbounded memory for long runs).
    raw_latencies: bool = False
    #: Wire dialect: ``"frames"`` pipelines inserts as binary frames with
    #: a window of unacknowledged batches in flight; ``"ndjson"`` awaits
    #: each insert's line response (the historical behaviour).
    wire: str = "ndjson"
    window: int = 8

    def validate(self) -> "LoadConfig":
        if self.wire not in protocol.WIRES:
            raise ServiceError(
                f"wire must be one of {protocol.WIRES}, got {self.wire!r}"
            )
        if self.window < 1:
            raise ServiceError(f"window must be positive, got {self.window}")
        if self.clients < 1:
            raise ServiceError(f"clients must be positive, got {self.clients}")
        if self.ops_per_client < 1:
            raise ServiceError(
                f"ops_per_client must be positive, got {self.ops_per_client}"
            )
        if not 0 <= self.insert_ratio <= 1:
            raise ServiceError(
                f"insert_ratio must be in [0, 1], got {self.insert_ratio}"
            )
        if self.values_per_insert < 1:
            raise ServiceError(
                f"values_per_insert must be positive, got {self.values_per_insert}"
            )
        return self


@dataclass
class LoadReport:
    """Outcome of one load run, with enough detail to verify accuracy."""

    ops: int = 0
    ok: int = 0
    wire: str = "ndjson"
    errors: dict = field(default_factory=dict)  # code -> count
    inserted: list = field(default_factory=list)  # every acked inserted value
    seconds: float = 0.0
    raw_latencies: bool = False
    latencies_ns: dict = field(default_factory=dict)  # raw mode: op -> [ns, ...]
    histograms: dict = field(default_factory=dict)  # op -> obs Histogram
    # Sorted ground truth and the (list id, length) of ``inserted`` it covers.
    _sorted: list = field(default_factory=list, init=False, repr=False, compare=False)
    _sorted_key: tuple = field(default=(None, 0), init=False, repr=False, compare=False)

    def _histogram(self, op: str) -> Histogram:
        histogram = self.histograms.get(op)
        if histogram is None:
            histogram = Histogram(
                "loadgen_latency_ns", (("op", op),), epsilon=LATENCY_EPSILON
            )
            self.histograms[op] = histogram
        return histogram

    def _record_latency(self, op: str, elapsed_ns: int) -> None:
        self._histogram(op).observe(int(elapsed_ns))
        if self.raw_latencies:
            self.latencies_ns.setdefault(op, []).append(elapsed_ns)

    def record_ok(self, op: str, elapsed_ns: int) -> None:
        self.ops += 1
        self.ok += 1
        self._record_latency(op, elapsed_ns)

    def record_error(self, op: str, code: str, elapsed_ns: int) -> None:
        self.ops += 1
        self.errors[code] = self.errors.get(code, 0) + 1
        self._record_latency(op, elapsed_ns)

    def merge(self, other: "LoadReport") -> None:
        self.ops += other.ops
        self.ok += other.ok
        for code, count in other.errors.items():
            self.errors[code] = self.errors.get(code, 0) + count
        for op, histogram in other.histograms.items():
            self._histogram(op).merge_from(histogram)
        for op, latencies in other.latencies_ns.items():
            self.latencies_ns.setdefault(op, []).extend(latencies)
        self.inserted.extend(other.inserted)

    # -- ground truth ---------------------------------------------------------------

    def _sorted_inserted(self) -> list:
        """Every acked inserted value, sorted; cached until ``inserted`` grows.

        All-int runs (the generator's) sort as plain ints, over an order of
        magnitude faster than building a Fraction per value; anything else
        sorts as exact Fractions.  Both compare exactly against Fraction
        probes.
        """
        key = (id(self.inserted), len(self.inserted))
        if key != self._sorted_key:
            if all(type(value) is int for value in self.inserted):
                self._sorted = sorted(self.inserted)
            else:
                self._sorted = sorted(Fraction(value) for value in self.inserted)
            self._sorted_key = key
        return self._sorted

    def exact_rank(self, value) -> int:
        """True number of acked inserted values ``<=`` ``value``."""
        return bisect_right(self._sorted_inserted(), Fraction(value))

    def max_rank_error(self, answers: dict) -> float:
        """Largest :func:`interval_rank_error` over a ``query`` response's results."""
        n = len(self.inserted)
        if n == 0:
            return 0.0
        ordered = self._sorted_inserted()
        return max(
            (
                interval_rank_error(ordered, Fraction(entry["value"]), entry["phi"] * n)
                for entry in answers["results"]
            ),
            default=0.0,
        )

    # -- reporting ------------------------------------------------------------------

    def latency_quantiles_us(self, op: str, phis=LATENCY_PHIS) -> dict:
        """Latency percentiles (microseconds) for ``op`` from its GK histogram."""
        histogram = self.histograms.get(op)
        if histogram is None or not histogram.observations:
            return {}
        return histogram.quantiles(phis, scale=1000.0)

    def summary(self) -> dict:
        """JSON-compatible run summary for benchmarks and the CLI."""
        return {
            "ops": self.ops,
            "ok": self.ok,
            "wire": self.wire,
            "errors": dict(sorted(self.errors.items())),
            "inserted_values": len(self.inserted),
            "seconds": round(self.seconds, 6),
            "ops_per_second": round(self.ops / self.seconds, 2)
            if self.seconds > 0
            else None,
            "items_per_second": round(len(self.inserted) / self.seconds, 2)
            if self.seconds > 0
            else None,
            "latency_us": {
                op: self.latency_quantiles_us(op)
                for op in sorted(self.histograms)
            },
        }


def interval_rank_error(ordered, value: Fraction, target: float) -> float:
    """Distance from ``target`` to ``value``'s exact rank interval, over n.

    A value that appears ``t`` times occupies the rank interval
    ``[#(< value), #(<= value)]``; any served rank inside it is exactly
    correct.  ``ordered`` is the sorted ground truth.
    """
    n = len(ordered)
    if n == 0:
        return 0.0
    low = bisect_left(ordered, value)
    high = bisect_right(ordered, value)
    if target < low:
        return (low - target) / n
    if target > high:
        return (target - high) / n
    return 0.0


def _schedule(index: int, config: LoadConfig) -> list[tuple[str, list | None]]:
    """One worker's full operation sequence, drawn before the clock starts.

    The RNG draws happen in exactly the order the old inline loop made
    them (roll, then values), so a given seed still produces the identical
    request stream — but generating ~10^6 random ints no longer bills the
    *server's* throughput numbers.
    """
    rng = random.Random(config.seed * 8191 + index)
    lo, hi = config.value_range
    ops: list[tuple[str, list | None]] = []
    for _ in range(config.ops_per_client):
        roll = rng.random()
        if roll < config.insert_ratio:
            ops.append(
                (
                    "insert",
                    [rng.randint(lo, hi) for _ in range(config.values_per_insert)],
                )
            )
        elif roll < config.insert_ratio + (1 - config.insert_ratio) / 2:
            ops.append(("query", None))
        else:
            ops.append(("rank", [rng.randint(lo, hi)]))
    return ops


async def _worker(
    index: int,
    host: str,
    port: int,
    config: LoadConfig,
    schedule: list[tuple[str, list | None]],
) -> LoadReport:
    report = LoadReport(raw_latencies=config.raw_latencies, wire=config.wire)
    pipelined = config.wire == "frames"
    client = QuantileClient(
        host,
        port,
        deadline_ms=config.deadline_ms,
        jitter_seed=config.seed * 65537 + index,
        wire=config.wire,
        window=config.window,
    )
    #: Value batches pipelined but not yet acknowledged, oldest first —
    #: acks come back strictly FIFO, so this mirrors the client's window.
    in_flight: deque[list] = deque()

    def _settle() -> None:
        """Credit every ack collected so far to its in-flight batch."""
        for result in client.take_completed():
            batch = in_flight.popleft()
            report.inserted.extend(batch)
            report.record_ok("insert", result.get("latency_ns", 0))

    async with client:
        for op, values in schedule:
            started = perf_counter_ns()
            try:
                if op == "insert":
                    if pipelined:
                        await client.pipeline_insert(values)
                        in_flight.append(values)
                    else:
                        await client.insert(values)
                        report.inserted.extend(values)
                elif op == "query":
                    await client.query(config.phis)
                else:
                    await client.rank(values)
            except RequestFailed as failure:
                # A failed ack is the *oldest* in-flight batch's (FIFO).
                _settle()
                if pipelined and op == "insert" and in_flight:
                    in_flight.popleft()
                report.record_error(op, failure.code, perf_counter_ns() - started)
            else:
                if not (pipelined and op == "insert"):
                    report.record_ok(op, perf_counter_ns() - started)
                _settle()
        while in_flight:  # collect the tail of the pipeline window
            try:
                for result in await client.flush_inserts():
                    batch = in_flight.popleft()
                    report.inserted.extend(batch)
                    report.record_ok("insert", result.get("latency_ns", 0))
            except RequestFailed as failure:
                _settle()
                if in_flight:
                    in_flight.popleft()
                report.record_error("insert", failure.code, 0)
    return report


async def run_load(host: str, port: int, config: LoadConfig) -> LoadReport:
    """Drive the configured workload against ``host:port``; gather one report."""
    config.validate()
    schedules = [_schedule(index, config) for index in range(config.clients)]
    started = perf_counter_ns()
    reports = await asyncio.gather(
        *(
            _worker(index, host, port, config, schedule)
            for index, schedule in zip(range(config.clients), schedules)
        )
    )
    combined = LoadReport(raw_latencies=config.raw_latencies, wire=config.wire)
    for report in reports:
        combined.merge(report)
    combined.seconds = (perf_counter_ns() - started) / 1e9
    return combined


def run_load_sync(host: str, port: int, config: LoadConfig) -> LoadReport:
    """:func:`run_load` for synchronous callers (CLI, benchmarks)."""
    return asyncio.run(run_load(host, port, config))
