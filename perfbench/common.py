"""What the benchmark's processes share: paths, the canonical engine
config, and readers for a process's CPU time and peak memory.

Importing this module puts the checkout's ``src/`` first on ``sys.path``,
so the benchmark always measures the source tree it ships with.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Everything the benchmark writes lives here (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"

#: One engine config for every workload, so numbers from different
#: workloads compose: GK at eps = 0.01 over 2 hash-routed shards on the
#: columnar lane (decimal inserts stay on the Item lane regardless).
EPSILON = 0.01
ENGINE = {
    "summary": "gk",
    "epsilon": EPSILON,
    "shards": 2,
    "routing": "hash",
    "lane": "columnar",
}

_TICKS = os.sysconf("SC_CLK_TCK")


def child_env() -> dict:
    """Environment for the server process: native cache and temp files in
    the checkout, nothing written elsewhere."""
    env = dict(os.environ)
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare_dirs() -> None:
    (WORK / "native").mkdir(parents=True, exist_ok=True)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(samples, phi: float) -> float:
    """The nearest-rank ``phi`` percentile of ``samples`` (sorted copy)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-int(phi * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def supported_percentile(count: int) -> float:
    """Highest of p50/p90/p95/p99/p99.9 with at least 10 samples beyond it."""
    best = 0.5
    for phi in (0.9, 0.95, 0.99, 0.999):
        if count * (1 - phi) >= 10:
            best = phi
    return best
