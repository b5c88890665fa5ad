"""Canonical service benchmark: one workload against an out-of-process server.

    python3 perfbench/run.py --workload ingest-frames --seed 1 --seconds 30 --trace 0

Each run launches ``perfbench/launcher.py`` (the real ``QuantileService``
in its own process) five times; every launch is timed from process start
to the first acknowledged preload insert, and ``setup_s`` is the median.
The last server then takes the workload's timed phase from a separate,
single-process asyncio generator using at most two connections.  After the
phase the run

* checks 99 quantile and 64 rank answers against exact integer ground
  truth (``truth.py``) — any answer farther than eps*n fails the run;
* scrapes ``GET /metrics`` and fails unless the server's inserted-item and
  per-code response counts equal the client's own tallies.

``--trace 0`` prints the end-to-end metrics.  Latency is gated at the
median only: on a shared 2-vCPU VM, tail percentiles moved by more than
the largest allowed bound (25%) between identical runs.  The table above
the result prints every operation's sample count, median and highest
percentile with at least 10 samples beyond it.

``--trace 1`` runs the same workload twice, untraced then with the layer
shims of ``shims.py`` installed in both processes, and prints the
per-layer metrics; the difference in server CPU per item between the two
is ``trace.overhead_share``.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
for a correct run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import tempfile
from time import perf_counter, perf_counter_ns

import common
import layers
import numpy as np
import shims
import traffic
import truth as truth_module
from repro.native import gk_batch
from repro.service import QuantileClient

WORKLOADS = {
    workload.name: workload
    for workload in (traffic.IngestFrames, traffic.MixedNdjson, traffic.SteadyProcesses)
}

#: Server launches per run; ``setup_s`` is their median.
SETUPS = 5
#: Wall-clock cap on one server start or stop.
PROCESS_TIMEOUT_S = 60.0
#: Closed-loop generator lag: a ticker due every this many ms.
TICK_MS = 5.0


class Server:
    """One launcher process and its bound port."""

    def __init__(self, workload, trace_path: str | None) -> None:
        self.workload = workload
        self.trace_path = trace_path
        self.process: asyncio.subprocess.Process | None = None
        self.port = 0

    async def start(self) -> None:
        command = [
            sys.executable,
            str(common.ROOT / "perfbench" / "launcher.py"),
            "--executor",
            self.workload.executor,
        ]
        if self.trace_path:
            command += ["--trace", self.trace_path]
        self.process = await asyncio.create_subprocess_exec(
            *command,
            stdout=asyncio.subprocess.PIPE,
            env=common.child_env(),
            cwd=str(common.ROOT),
        )
        line = await asyncio.wait_for(
            self.process.stdout.readline(), timeout=PROCESS_TIMEOUT_S
        )
        if not line.startswith(b"READY "):
            await self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    async def stop(self) -> int:
        """SIGTERM, wait for the graceful drain; returns the exit code."""
        self.process.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.process.wait(), timeout=PROCESS_TIMEOUT_S)
        except asyncio.TimeoutError:
            await self.kill()
        return self.process.returncode

    async def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            await self.process.wait()


async def close_all(clients) -> None:
    for client in clients:
        await client.aclose()


#: Unlabelled counters read from ``GET /metrics``.
COUNTERS = (
    "service_items_inserted_total",
    "service_read_index_hits_total",
    "service_read_index_misses_total",
)


async def scrape(client: QuantileClient) -> tuple[dict[str, int], dict[str, int]]:
    """``({counter: value}, {code: service_responses_total})`` from /metrics."""
    counters = dict.fromkeys(COUNTERS, 0)
    codes: dict[str, int] = {}
    for line in (await client.fetch_metrics()).splitlines():
        name, _, value = line.partition(" ")
        if name in counters:
            counters[name] = int(float(value))
        match = re.match(r'service_responses_total\{code="([^"]+)"\} (\S+)', line)
        if match:
            codes[match.group(1)] = int(float(match.group(2)))
    return counters, codes


async def final_check(workload, client: QuantileClient, tally, truth) -> dict:
    """Ask for every percentile and 64 seeded ranks; check them exactly."""
    phis = [percent / 100 for percent in traffic.CHECK_PERCENTS]
    query = await traffic.call(tally, "check", client.query(phis))
    rng = np.random.Generator(np.random.PCG64([workload.seed, 17]))
    if workload.scale == 1:
        points = rng.integers(-traffic.FRAME_SPAN, traffic.FRAME_SPAN, traffic.CHECK_RANKS)
        sent = points.tolist()
    else:
        points = traffic.decimal_values(rng, traffic.CHECK_RANKS)
        sent = traffic.decimal_strings(points)
    rank = await traffic.call(tally, "check", client.rank(sent))
    if query is None or rank is None:
        return {"ok": False, "reason": "final check requests failed"}
    answers = [
        (percent, entry["value"])
        for percent, entry in zip(traffic.CHECK_PERCENTS, query["results"])
    ]
    ranks = [
        (int(point), entry["rank"])
        for point, entry in zip(points.tolist(), rank["results"])
    ]
    return truth_module.check(truth, query["n"], answers, ranks)


async def ticker(stop: asyncio.Event, lags: list[float]) -> None:
    """Record how late a task due every TICK_MS wakes (generator lag)."""
    interval = TICK_MS / 1000
    while not stop.is_set():
        due = perf_counter() + interval
        await asyncio.sleep(interval)
        lags.append(max(0.0, perf_counter() - due) * 1000)


async def run_once(workload, seconds: float, trace_dir: str | None) -> dict:
    """Launch (SETUPS times), preload, run the timed phase, check, scrape."""
    servers: list[Server] = []
    try:
        return await _run_once(workload, seconds, trace_dir, servers)
    finally:
        for server in servers:
            if server.process is not None:
                await server.kill()


async def _run_once(workload, seconds, trace_dir, servers: list) -> dict:
    tally = traffic.Tally()
    truth = truth_module.Truth(workload.scale, workload.regenerate)
    setups: list[float] = []
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        trace_path = os.path.join(trace_dir, "server.json") if trace_dir and last else None
        started = perf_counter()
        server = Server(workload, trace_path)
        servers.append(server)
        await server.start()
        if last:
            clients = await workload.connect(server.port, tally, truth)
            await workload.preload(clients, tally, truth)
        else:
            scratch_tally = traffic.Tally()
            scratch_truth = truth_module.Truth(workload.scale, workload.regenerate)
            scratch = await workload.connect(server.port, scratch_tally, scratch_truth)
            await workload.preload(scratch, scratch_tally, scratch_truth)
        setups.append(perf_counter() - started)
        if not last:
            await close_all(scratch)
            if await server.stop() != 0:
                raise RuntimeError("a setup server exited uncleanly")

    for samples in tally.latency_ms.values():
        samples.clear()  # preload latencies are set-up, not the phase
    # Spans, CPU and acked items below all cover one interval: from the
    # phase start until the workload returns with every request answered.
    counters_before, _ = await scrape(clients[-1])
    acked_before = tally.items_acked
    harness_cpu = os.times()
    server_cpu = common.process_cpu_s(server.pid)
    phase_start_ns = perf_counter_ns()
    stop_tick = asyncio.Event()
    lags: list[float] = []
    tick = asyncio.create_task(ticker(stop_tick, lags))
    phase = await workload.run(clients, tally, truth, seconds)
    phase_end_ns = perf_counter_ns()
    server_cpu = common.process_cpu_s(server.pid) - server_cpu
    harness_end = os.times()
    harness_cpu = (harness_end.user - harness_cpu.user) + (
        harness_end.system - harness_cpu.system
    )
    phase_items = tally.items_acked - acked_before
    stop_tick.set()
    await tick
    peak_rss = common.peak_rss_mb(server.pid)
    counters_after, _ = await scrape(clients[-1])
    read_index = {
        key: counters_after[f"service_read_index_{key}_total"]
        - counters_before[f"service_read_index_{key}_total"]
        for key in ("hits", "misses")
    }

    verdict = await final_check(workload, clients[-1], tally, truth)
    counters, codes = await scrape(clients[-1])
    items = counters["service_items_inserted_total"]
    metrics_match = items == tally.items_acked and codes == dict(tally.codes)
    retries = sum(client.retries_used for client in clients)
    await close_all(clients)
    exit_code = await server.stop()
    return {
        "setups": setups,
        "phase": phase,
        "phase_window_ns": (phase_start_ns, phase_end_ns),
        "phase_items": phase_items,
        "read_index": read_index,
        "tally": tally,
        "truth_seconds": truth.seconds,
        "verdict": verdict,
        "metrics_match": metrics_match,
        "server_items": items,
        "server_codes": codes,
        "server_cpu_s": server_cpu,
        "harness_cpu_s": harness_cpu,
        "peak_rss_mb": peak_rss,
        "generator_lag_ms": phase.get("generator_lag_ms", lags),
        "retries": retries,
        "server_exit": exit_code,
    }


def end_to_end(result: dict) -> dict:
    tally = result["tally"]
    phase = result["phase"]
    latency = phase["latency_ms"]
    return {
        "setup_s": statistics.median(result["setups"]),
        "ingest_items_per_s": tally.items_in_phase / phase["phase_s"],
        "insert_p50_ms": common.percentile(latency["insert"], 0.5),
        "query_p50_ms": common.percentile(latency["query"], 0.5),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def sustained_items_per_s(rungs: list[dict]) -> float:
    """Achieved rate of the highest sustained ladder rung (0 when none)."""
    sustained = [rung for rung in rungs if rung["sustained"]]
    return sustained[-1]["achieved_items_per_s"] if sustained else 0.0


def unit_of(name: str) -> str:
    if name in layers.UNITS:
        return layers.UNITS[name]
    if name.endswith("items_per_s"):
        return "items/s"
    if name.endswith("_mb"):
        return "MiB"
    return "ms" if name.endswith("_ms") else "s"


def report_lines(result: dict) -> list[str]:
    """The human-readable table: sample counts, rank latency, ladder rungs."""
    tally = result["tally"]
    lines = []
    for op, samples in result["phase"]["latency_ms"].items():
        if samples:
            tail = common.supported_percentile(len(samples))
            lines.append(
                f"{op:8s} n={len(samples):6d}  p50={common.percentile(samples, 0.5):9.3f} ms"
                f"  p{tail * 100:g}={common.percentile(samples, tail):9.3f} ms"
                "  (highest percentile with >= 10 samples beyond it)"
            )
    rungs = result["phase"].get("rungs", ())
    for rung in rungs:
        lines.append(
            f"rung {rung['offered_items_per_s']:>9,} items/s offered: "
            f"achieved {rung['achieved_items_per_s']:12.1f}, "
            f"backlog {rung['backlog_end_frames']:5d} frames "
            f"(trend {rung['backlog_trend_frames_per_s']:+.1f}/s), "
            f"insert p50 {common.percentile(rung['insert_ms'], 0.5):.2f} ms, "
            f"query p90 {rung['query_p90_ms']:.2f} ms over {len(rung['query_ms'])}, "
            f"sustained={rung['sustained']}"
        )
    if rungs:
        lines.append(
            f"sustained_items_per_s {sustained_items_per_s(rungs):.1f} items/s "
            "(open-loop ladder; printed, not gated)"
        )
    lines.append(
        f"failed_share {tally.failed / tally.attempted:.6f} "
        f"({tally.failed} of {tally.attempted} operations)"
    )
    return lines


def is_correct(result: dict) -> bool:
    return (
        bool(result["verdict"].get("ok"))
        and result["metrics_match"]
        and result["server_exit"] == 0
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.prepare_dirs()
    os.environ.update(
        {key: common.child_env()[key] for key in ("REPRO_NATIVE_CACHE", "TMPDIR")}
    )
    # Warm the native build cache outside any timed region.
    native = gk_batch([], [], [], [1], 0, 0, 0, 50, 1, 50, False) is not None
    workload_type = WORKLOADS[args.workload]
    results = [asyncio.run(run_once(workload_type(args.seed), args.seconds, None))]
    if args.trace:
        recorder = shims.Recorder()
        shims.install_client(recorder)
        trace_dir = tempfile.mkdtemp(dir=common.WORK / "tmp")
        try:
            results.append(
                asyncio.run(run_once(workload_type(args.seed), args.seconds, trace_dir))
            )
            client = layers.Spans(results[1]["phase_window_ns"])
            client.add(recorder.to_payload(), server=False)
            metrics = layers.per_layer(results[1], results[0], client, trace_dir)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
    else:
        metrics = end_to_end(results[0])

    manifest = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    info = {
        "workload": workload_type.name,
        "why": next(
            entry["why"]
            for entry in manifest["workloads"]
            if entry["name"] == workload_type.name
        ),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "native_gk": native,
        "runs": [
            {
                "verdict": result["verdict"],
                "metrics_match": result["metrics_match"],
                "client_codes": dict(result["tally"].codes),
                "server_codes": result["server_codes"],
                "server_items": result["server_items"],
                "client_items": result["tally"].items_acked,
                "transport_failures": result["tally"].transport_failures,
                "ground_truth_s": result["truth_seconds"],
            }
            for result in results
        ],
    }
    print("info " + json.dumps(info))
    for line in report_lines(results[-1]):
        print(line)
    for name, value in metrics.items():
        print(f"{name:36s} {value:16.4f} {unit_of(name)}")
    print(
        json.dumps(
            {
                "correct": all(is_correct(result) for result in results),
                "attempted": sum(result["tally"].attempted for result in results),
                "failed": sum(result["tally"].failed for result in results),
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if all(is_correct(result) for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
