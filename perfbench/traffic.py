"""The three workloads: seeded request streams and the client loops that
drive them against a running service.

All traffic comes from ``--seed``; the server only ever sees the generated
requests.  Every response is tallied per wire code, every latency is kept
raw (milliseconds, measured at the client), and every acknowledged insert
is recorded in a :class:`truth.Truth` for the final exact check.

* ``ingest-frames`` — closed loop.  Connection 1 pipelines 16384-value
  int64 frames (window 8); connection 2 sends NDJSON ``query`` calls back
  to back.
* ``mixed-ndjson`` — closed loop.  Two NDJSON connections each run a
  seeded 70/15/15 insert/query/rank mix and take turns: one request is in
  flight at a time, and a connection builds its next request while the
  other's is served.  An insert carries 100 decimals with three places,
  sent as strings so they arrive exact; a query asks for 99 percentiles.
  Free-running connections made a request wait behind the other's about
  half the time; the latency medians then fell between the waited and
  unwaited modes and moved by 25-40% between identical runs on a shared
  2-vCPU VM.  Taking turns makes each latency the request's own service
  time.
* ``steady-processes`` — the processes executor with one shard worker.
  The first half of the phase is the ``ingest-frames`` closed loop with
  1024-value frames; the second half is an open loop: frames are due on a
  fixed schedule at each rate of a ladder (:data:`STEADY_RATES`, equal time
  per rung) and queries at :data:`STEADY_QUERY_RATE`, with latencies
  timed from when a request was due.  The gated metrics come from the
  closed half.  On a shared 2-vCPU VM, open-loop latency on this path, and
  anything measured with two workers (coordinator, two workers and the
  generator on two CPUs), moved by 25-60% between identical runs; one
  worker still crosses the same IPC and per-generation state collect.
"""

from __future__ import annotations

import asyncio
from bisect import bisect_right
from collections import Counter, deque
from time import perf_counter_ns

import numpy as np

import common
from repro.errors import RequestFailed, ServiceUnavailable
from repro.service import QuantileClient

#: phi values of a frame-workload query, as percents (phi = percent / 100).
QUERY_PERCENTS = (1, 10, 25, 50, 75, 90, 99)
#: Values per ``rank`` request.
RANK_VALUES = 5
#: The final accuracy check asks for every percentile 1..99.
CHECK_PERCENTS = tuple(range(1, 100))
CHECK_RANKS = 64

FRAME_VALUES = 16384
FRAME_WINDOW = 8
#: Frame values are uniform int64 in [-2^40, 2^40).
FRAME_SPAN = 1 << 40

DECIMAL_VALUES = 100
#: Decimals are uniform in [0, 10^6) with three places (scaled by 1000).
DECIMAL_SCALE = 1000
DECIMAL_SPAN = 10**9

STEADY_FRAME_VALUES = 1024
#: Offered insert rates of the open-loop ladder, items/s, lowest first.
STEADY_RATES = (40_000, 120_000, 800_000)
#: Queries due per second during every rung (one sequential connection,
#: so the rate stays well below 1 / query latency).
STEADY_QUERY_RATE = 50
#: A rung is sustained when its query p90 stays under this limit (ms) ...
STEADY_QUERY_P90_LIMIT_MS = 100.0
#: ... and its insert backlog grows by at most this many frames.
STEADY_BACKLOG_LIMIT = 2 * FRAME_WINDOW
#: Backlog readings per rung for the trend.
BACKLOG_SAMPLES = 32

PRELOAD_VALUES = 16384


def frame_values(seed: int, index: int, count: int = FRAME_VALUES) -> np.ndarray:
    """The int64 values of frame ``index`` (regenerable from the seed)."""
    rng = np.random.Generator(np.random.PCG64([seed, 7, index]))
    return rng.integers(-FRAME_SPAN, FRAME_SPAN, count, dtype=np.int64)


def decimal_values(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` scaled decimals (integers in units of 1/1000)."""
    return rng.integers(0, DECIMAL_SPAN, count, dtype=np.int64)


def decimal_strings(scaled: np.ndarray) -> list[str]:
    return [f"{value // DECIMAL_SCALE}.{value % DECIMAL_SCALE:03d}" for value in scaled.tolist()]


class Tally:
    """Client-side accounting: per-code responses, latencies, acked items."""

    def __init__(self) -> None:
        self.codes: Counter = Counter()
        self.latency_ms: dict[str, list[float]] = {"insert": [], "query": [], "rank": []}
        self.attempted = 0
        self.failed = 0
        self.transport_failures = 0
        self.items_acked = 0
        self.items_in_phase = 0

    def ok(self, op: str, latency_ns: int | None) -> None:
        self.attempted += 1
        self.codes["ok"] += 1
        series = self.latency_ms.get(op)
        if series is not None and latency_ns is not None:
            series.append(latency_ns / 1e6)

    def error(self, code: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.codes[code] += 1

    def transport(self) -> None:
        self.attempted += 1
        self.failed += 1
        self.transport_failures += 1


async def call(tally: Tally, op: str, coroutine, due_ns: int | None = None):
    """Await one NDJSON request; tally it; return the response or None."""
    started = perf_counter_ns() if due_ns is None else due_ns
    try:
        response = await coroutine
    except RequestFailed as failure:
        tally.error(failure.code)
        return None
    except ServiceUnavailable:
        tally.transport()
        return None
    tally.ok(op, perf_counter_ns() - started)
    return response


class FramePipe:
    """A frames-wire connection whose acks are matched to frame ids FIFO."""

    def __init__(self, client: QuantileClient, tally: Tally, truth) -> None:
        self.client = client
        self.tally = tally
        self.truth = truth
        self.sent: deque = deque()  # (frame id, due_ns or None, sent_ns)
        self.phase_end_ns = 0
        #: ``(due_ns, acked_ns)`` of every acked frame sent with a due time.
        self.scheduled: list[tuple[int, int]] = []

    def _settle(self, acks: list[dict], failed_code: str | None = None) -> None:
        """Match acks (then a failure, which comes after them) to frames."""
        for ack in acks:
            frame_id, due_ns, sent_ns = self.sent.popleft()
            acked_ns = sent_ns + ack["latency_ns"]
            self.truth.keep_id(frame_id, ack["items"])
            self.tally.items_acked += ack["items"]
            if acked_ns <= self.phase_end_ns:
                self.tally.items_in_phase += ack["items"]
            if due_ns is None:
                self.tally.ok("insert", ack["latency_ns"])
            else:
                self.scheduled.append((due_ns, acked_ns))
                self.tally.ok("insert", acked_ns - due_ns)
        if failed_code is not None:
            self.sent.popleft()
            self.tally.error(failed_code)

    async def send(self, frame_id: int, values: np.ndarray, due_ns: int | None = None) -> bool:
        """Pipeline one frame; False when an earlier frame failed instead."""
        try:
            await self.client.pipeline_insert(values.tolist())
        except RequestFailed as failure:
            self._settle(self.client.take_completed(), failure.code)
            return False
        self.sent.append((frame_id, due_ns, perf_counter_ns()))
        self._settle(self.client.take_completed())
        return True

    async def drain(self) -> None:
        """Collect every in-flight ack."""
        while True:
            try:
                acks = await self.client.flush_inserts()
            except RequestFailed as failure:
                self._settle(self.client.take_completed(), failure.code)
                continue
            self._settle(acks)
            return


async def closed_frames(workload, clients, tally, truth, seconds, first_frame):
    """Closed loop: pipelined frames on one connection, back-to-back
    queries on the other; returns ``(phase, next frame id)``."""
    frames_client, query_client = clients
    pipe = FramePipe(frames_client, tally, truth)
    started = perf_counter_ns()
    end = started + int(seconds * 1e9)
    pipe.phase_end_ns = end
    phis = [percent / 100 for percent in QUERY_PERCENTS]
    frame_id = first_frame

    async def writer() -> None:
        nonlocal frame_id
        while perf_counter_ns() < end:
            if await pipe.send(frame_id, workload.regenerate(frame_id)):
                frame_id += 1
        await pipe.drain()

    async def reader() -> None:
        while perf_counter_ns() < end:
            await call(tally, "query", query_client.query(phis))

    await asyncio.gather(writer(), reader())
    phase = {
        "phase_s": (end - started) / 1e9,
        "latency_ms": {op: list(samples) for op, samples in tally.latency_ms.items()},
    }
    return phase, frame_id


class Workload:
    """One workload: how to preload, what to run, which executor serves it."""

    name = ""
    executor = "serial"
    scale = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def regenerate(self, frame_id: int) -> np.ndarray:
        return frame_values(self.seed, frame_id)

    async def connect(self, port: int, tally: Tally, truth) -> list[QuantileClient]:
        raise NotImplementedError

    async def preload(self, clients, tally: Tally, truth) -> None:
        raise NotImplementedError

    async def run(self, clients, tally: Tally, truth, seconds: float) -> dict:
        raise NotImplementedError


async def _frames_client(port: int, tally: Tally, window: int) -> QuantileClient:
    client = QuantileClient(port=port, wire="frames", window=window)
    await client.connect()
    if not client.frames_active:
        raise RuntimeError("the service refused the frame wire")
    tally.ok("hello", None)  # the negotiation is one NDJSON request
    return client


class IngestFrames(Workload):
    name = "ingest-frames"

    async def connect(self, port, tally, truth):
        frames_client = await _frames_client(port, tally, FRAME_WINDOW)
        return [frames_client, QuantileClient(port=port)]

    async def preload(self, clients, tally, truth):
        pipe = FramePipe(clients[0], tally, truth)
        await pipe.send(0, self.regenerate(0))
        await pipe.drain()

    async def run(self, clients, tally, truth, seconds):
        phase, _ = await closed_frames(self, clients, tally, truth, seconds, 1)
        return phase


class MixedNdjson(Workload):
    name = "mixed-ndjson"
    scale = DECIMAL_SCALE

    async def connect(self, port, tally, truth):
        return [QuantileClient(port=port, jitter_seed=k) for k in range(2)]

    async def preload(self, clients, tally, truth):
        rng = np.random.Generator(np.random.PCG64([self.seed, 11]))
        scaled = decimal_values(rng, PRELOAD_VALUES)
        response = await call(tally, "insert", clients[0].insert(decimal_strings(scaled)))
        if response is not None:
            truth.keep(scaled)
            tally.items_acked += len(scaled)

    async def run(self, clients, tally, truth, seconds):
        started = perf_counter_ns()
        end = started + int(seconds * 1e9)
        # Every percentile, so a query's latency is mostly the service
        # answering rather than the round trip, whose cost drifted most
        # with the load on a shared host.
        phis = [percent / 100 for percent in CHECK_PERCENTS]
        turn = asyncio.Lock()  # FIFO: the connections alternate

        async def connection(index: int, client: QuantileClient) -> None:
            rng = np.random.Generator(np.random.PCG64([self.seed, 13, index]))
            while perf_counter_ns() < end:
                draw = rng.random()
                if draw < 0.70:
                    scaled = decimal_values(rng, DECIMAL_VALUES)
                    strings = decimal_strings(scaled)
                    async with turn:
                        response = await call(tally, "insert", client.insert(strings))
                    if response is not None:
                        truth.keep(scaled)
                        tally.items_acked += len(scaled)
                        if perf_counter_ns() <= end:
                            tally.items_in_phase += len(scaled)
                elif draw < 0.85:
                    async with turn:
                        await call(tally, "query", client.query(phis))
                else:
                    values = decimal_strings(decimal_values(rng, RANK_VALUES))
                    async with turn:
                        await call(tally, "rank", client.rank(values))

        await asyncio.gather(
            *(connection(index, client) for index, client in enumerate(clients))
        )
        return {"phase_s": (end - started) / 1e9, "latency_ms": tally.latency_ms}


class SteadyProcesses(Workload):
    name = "steady-processes"
    executor = "processes"

    def regenerate(self, frame_id: int) -> np.ndarray:
        return frame_values(self.seed, frame_id, STEADY_FRAME_VALUES)

    async def connect(self, port, tally, truth):
        frames_client = await _frames_client(port, tally, FRAME_WINDOW)
        return [frames_client, QuantileClient(port=port)]

    async def preload(self, clients, tally, truth):
        pipe = FramePipe(clients[0], tally, truth)
        self._next_frame = PRELOAD_VALUES // STEADY_FRAME_VALUES
        for frame_id in range(self._next_frame):
            await pipe.send(frame_id, self.regenerate(frame_id))
        await pipe.drain()

    async def run(self, clients, tally, truth, seconds):
        half = seconds / 2
        phase, next_frame = await closed_frames(
            self, clients, tally, truth, half, self._next_frame
        )
        phase.update(await self.ladder(clients, tally, truth, seconds - half, next_frame))
        return phase

    async def ladder(self, clients, tally, truth, seconds, first_frame) -> dict:
        """The open-loop rungs: frames and queries due on fixed schedules."""
        frames_client, query_client = clients
        pipe = FramePipe(frames_client, tally, truth)
        rung_ns = int(seconds * 1e9 / len(STEADY_RATES))
        started = perf_counter_ns()
        end = started + rung_ns * len(STEADY_RATES)
        phis = [percent / 100 for percent in QUERY_PERCENTS]
        lag_ms: list[float] = []
        queries: list[tuple[int, int]] = []  # (due_ns, answered_ns)

        async def writer() -> None:
            frame_id = first_frame
            for rung, rate in enumerate(STEADY_RATES):
                rung_start = started + rung * rung_ns
                interval = STEADY_FRAME_VALUES * 1e9 / rate
                due = rung_start
                sent = 0
                while due < rung_start + rung_ns:
                    now = perf_counter_ns()
                    if due <= now and frames_client.pending_inserts < FRAME_WINDOW:
                        lag_ms.append((now - due) / 1e6)
                        if await pipe.send(frame_id, self.regenerate(frame_id), due):
                            frame_id += 1
                            sent += 1
                            due = rung_start + int(sent * interval)
                    elif frames_client.pending_inserts:
                        await pipe.drain()
                    else:
                        await asyncio.sleep((due - now) / 1e9)
            await pipe.drain()

        async def reader() -> None:
            interval = 1e9 / STEADY_QUERY_RATE
            count = 0
            while (due := started + int(count * interval)) < end:
                now = perf_counter_ns()
                if due > now:
                    await asyncio.sleep((due - now) / 1e9)
                response = await call(tally, "query", query_client.query(phis), due)
                count += 1
                if response is not None:
                    queries.append((due, perf_counter_ns()))

        await asyncio.gather(writer(), reader())
        return {
            "rungs": [
                rung_report(
                    rate,
                    started + k * rung_ns,
                    started + (k + 1) * rung_ns,
                    pipe.scheduled,
                    queries,
                )
                for k, rate in enumerate(STEADY_RATES)
            ],
            "generator_lag_ms": lag_ms,
        }


def rung_report(rate, start, end, frames, queries) -> dict:
    """Latency, achieved rate and backlog trend of one ladder rung.

    The backlog at time ``t`` is the number of frames due by ``t`` that
    were not acknowledged by ``t``.  Its trend is the least-squares slope
    of :data:`BACKLOG_SAMPLES` evenly spaced readings over the rung, so a
    short stall that recovers does not count as growth.  A rung is
    sustained when the backlog grows by at most
    :data:`STEADY_BACKLOG_LIMIT` frames over the rung and its query p90
    stays under :data:`STEADY_QUERY_P90_LIMIT_MS`.  (A rung's 150-odd
    queries support p90, not p99.)
    """
    dues = sorted(due for due, _ in frames)
    acks = sorted(acked for _, acked in frames)
    seconds = (end - start) / 1e9
    times = [k * seconds / (BACKLOG_SAMPLES - 1) for k in range(BACKLOG_SAMPLES)]
    backlog = [
        bisect_right(dues, start + int(t * 1e9)) - bisect_right(acks, start + int(t * 1e9))
        for t in times
    ]
    mean_t = sum(times) / len(times)
    mean_b = sum(backlog) / len(backlog)
    slope = sum((t - mean_t) * (b - mean_b) for t, b in zip(times, backlog)) / sum(
        (t - mean_t) ** 2 for t in times
    )
    insert_ms = [(acked - due) / 1e6 for due, acked in frames if start <= due < end]
    query_ms = [(done - due) / 1e6 for due, done in queries if start <= due < end]
    acked_in_rung = bisect_right(acks, end) - bisect_right(acks, start)
    query_p90 = common.percentile(query_ms, 0.90) if query_ms else float("inf")
    return {
        "offered_items_per_s": rate,
        "achieved_items_per_s": acked_in_rung * STEADY_FRAME_VALUES / seconds,
        "insert_ms": insert_ms,
        "query_ms": query_ms,
        "backlog_end_frames": backlog[-1],
        "backlog_trend_frames_per_s": slope,
        "query_p90_ms": query_p90,
        "sustained": slope * seconds <= STEADY_BACKLOG_LIMIT
        and query_p90 <= STEADY_QUERY_P90_LIMIT_MS,
    }
