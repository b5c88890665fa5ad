"""Per-layer metrics from the spans the shims recorded.

Only spans that start inside the timed phase count.  A span's self time is
its duration minus the durations of its direct children, so a layer is
never billed for the layers it calls; ``_ms`` metrics are total self time
over the phase.  Root spans carry the recording thread's CPU time, and the
server CPU they do not cover — event loop, sockets, anything unshimmed —
is ``service.unattributed_share``.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

import common

#: Per-layer metrics: name -> (unit, how to compute it from the spans).
#: ``("self", names)`` sums self time in ms, ``("count", names)`` counts
#: spans; the rest are computed in :func:`per_layer`.
SPAN_METRICS = {
    "client.encode_ms": ("self", ("client.encode",)),
    "service.protocol.decode_ms": (
        "self",
        ("service.protocol.decode_line", "service.protocol.parse_request"),
    ),
    "service.protocol.lines": ("count", ("service.protocol.decode_line",)),
    "service.frames.decode_ms": ("self", ("service.frames.decode",)),
    "service.frames.frames": ("count", ("service.frames.decode",)),
    "engine.ingest_ms": ("self", ("engine.ingest",)),
    "engine.ingest_calls": ("count", ("engine.ingest",)),
    "summaries.process_numeric_ms": ("self", ("summaries.process_numeric",)),
    "summaries.process_many_ms": ("self", ("summaries.process_many",)),
    "native.gk_batch_ms": ("self", ("native.gk_batch",)),
    "native.gk_batch_calls": ("count", ("native.gk_batch",)),
    "engine.workers.apply_ms": ("self", ("engine.workers.apply",)),
    "engine.workers.sync_wait_ms": ("self", ("engine.workers.sync_wait",)),
    "engine.workers.collect_ms": ("self", ("engine.workers.collect",)),
    "engine.workers.collect_calls": ("count", ("engine.workers.collect",)),
    "service.snapshots.publish_ms": ("self", ("service.snapshots.publish",)),
    "service.snapshots.publishes": ("count", ("service.snapshots.publish",)),
    "engine.merge_fold_ms": ("self", ("engine.merge_fold",)),
    "model.rankindex.compile_ms": ("self", ("model.rankindex.compile",)),
    "model.rankindex.compiles": ("count", ("model.rankindex.compile",)),
    "service.snapshots.answer_ms": ("self", ("service.snapshots.answer",)),
    "service.audit.observe_ms": ("self", ("service.audit.observe",)),
    "service.audit.audit_ms": ("self", ("service.audit.audit",)),
}

UNITS = {
    "client.bytes_sent": "bytes",
    "client.retries": "count",
    "service.limits.queue_wait_p50_ms": "ms",
    "service.limits.queue_wait_p99_ms": "ms",
    "service.limits.jobs_per_flush": "jobs",
    "service.limits.shed": "count",
    "engine.read_index_hit_ratio": "ratio",
    "service.cpu_s": "s",
    "service.unattributed_share": "ratio",
    "harness.ground_truth_s": "s",
    "harness.cpu_s": "s",
    "harness.generator_lag_p99_ms": "ms",
    "trace.overhead_share": "ratio",
}
for _name, (_kind, _) in SPAN_METRICS.items():
    UNITS[_name] = "ms" if _kind == "self" else "count"


class Spans:
    """Self time, counts and root CPU of spans that start in a window."""

    def __init__(self, window: tuple[int, int]) -> None:
        self.window = window
        self.self_ns: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.root_cpu_ns = 0
        self.series: dict[str, list[int]] = defaultdict(list)

    def add(self, payload: dict, server: bool) -> None:
        start, end, parent = payload["start"], payload["end"], payload["parent"]
        names = [payload["names"][index] for index in payload["name"]]
        low, high = self.window
        children = [0] * len(start)
        for index, owner in enumerate(parent):
            if owner >= 0:
                children[owner] += end[index] - start[index]
        for index, name in enumerate(names):
            if not low <= start[index] <= high or end[index] == 0:
                continue
            self.self_ns[name] += end[index] - start[index] - children[index]
            self.count[name] += 1
            if server and parent[index] < 0:
                self.root_cpu_ns += payload["cpu"][index]
        for key, flat in payload["series"].items():
            self.series[key].extend(
                flat[index + 1]
                for index in range(0, len(flat), 2)
                if low <= flat[index] <= high
            )


def load_server_spans(trace_dir: str, window: tuple[int, int]) -> tuple[Spans, Spans]:
    """Server-process spans, and shard-worker spans (other processes)."""
    server = Spans(window)
    with open(os.path.join(trace_dir, "server.json")) as handle:
        server.add(json.load(handle), server=True)
    workers = Spans(window)
    for path in sorted(glob.glob(os.path.join(trace_dir, "server.json.worker-*"))):
        with open(path) as handle:
            workers.add(json.load(handle), server=False)
    return server, workers


def per_layer(traced: dict, plain: dict, client: Spans, trace_dir: str) -> dict:
    """Every per-layer metric for one traced run (``plain`` is untraced)."""
    server, workers = load_server_spans(trace_dir, traced["phase_window_ns"])
    metrics: dict[str, float] = {}
    for name, (kind, sources) in SPAN_METRICS.items():
        spans = client if name.startswith("client.") else server
        total = 0
        for source in sources:
            if kind == "self":
                total += spans.self_ns[source] + workers.self_ns[source]
            else:
                total += spans.count[source] + workers.count[source]
        metrics[name] = total / 1e6 if kind == "self" else total
    metrics["client.bytes_sent"] = sum(client.series["client.bytes_sent"])
    metrics["client.retries"] = traced["retries"]
    waits = [wait / 1e6 for wait in server.series["service.limits.queue_wait_ns"]]
    metrics["service.limits.queue_wait_p50_ms"] = common.percentile(waits, 0.5)
    metrics["service.limits.queue_wait_p99_ms"] = common.percentile(waits, 0.99)
    flushes = server.series["service.limits.jobs_per_flush"]
    metrics["service.limits.jobs_per_flush"] = sum(flushes) / len(flushes)
    metrics["service.limits.shed"] = len(server.series["service.limits.shed"])
    read_index = traced["read_index"]
    metrics["engine.read_index_hit_ratio"] = read_index["hits"] / (
        read_index["hits"] + read_index["misses"]
    )
    cpu = traced["server_cpu_s"]
    metrics["service.cpu_s"] = cpu
    metrics["service.unattributed_share"] = 1 - server.root_cpu_ns / 1e9 / cpu
    metrics["harness.ground_truth_s"] = traced["truth_seconds"]
    metrics["harness.cpu_s"] = traced["harness_cpu_s"]
    metrics["harness.generator_lag_p99_ms"] = common.percentile(
        traced["generator_lag_ms"], 0.99
    )
    metrics["trace.overhead_share"] = (
        cpu_per_item(traced) / cpu_per_item(plain) - 1
    )
    return metrics


def cpu_per_item(result: dict) -> float:
    return result["server_cpu_s"] / max(1, result["phase_items"])
