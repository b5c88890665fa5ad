"""Exact ground truth for the served answers, in integer arithmetic.

Every value the benchmark inserts is an integer once scaled (decimals with
three places are sent as strings and scaled by 1000 here), so the exact
rank interval of an answer ``v`` — ``[#(< v), #(<= v)]`` — is a pair of
int64 counts.  Nothing here touches ``Fraction`` sorts: the inserted values
are sorted as int64 blocks and each block is searched for the few probe
points a final check needs.  Insert batches are either kept (small
workloads) or regenerated from their seed when the check runs (the frame
workload, whose tens of millions of values are never held at once).

An answer is within the paper's guarantee when the distance from its
target rank to its exact interval is at most ``eps * n``; with
``eps = 1/100`` that is checked as ``100 * distance <= n``, exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

import numpy as np

import common

#: ``1 / EPSILON`` as an integer, so the eps*n test stays exact.
INVERSE_EPSILON = round(1 / common.EPSILON)

#: Values handled per vectorised pass (bounds the check's memory).
_BLOCK = 1 << 21


class Truth:
    """Everything acknowledged so far, as scaled int64 batches."""

    def __init__(self, scale: int, regenerate=None) -> None:
        self.scale = scale
        self.n = 0
        self._kept: list[np.ndarray] = []
        self._regenerate = regenerate
        self._ids: list[int] = []
        #: Wall seconds spent building and checking ground truth.
        self.seconds = 0.0

    def keep(self, scaled: np.ndarray) -> None:
        """Record an acknowledged batch held in memory."""
        self._kept.append(scaled)
        self.n += len(scaled)

    def keep_id(self, batch_id: int, count: int) -> None:
        """Record an acknowledged batch that ``regenerate(batch_id)`` rebuilds."""
        self._ids.append(batch_id)
        self.n += count

    def _blocks(self):
        pending: list[np.ndarray] = []
        size = 0
        for batch in self._kept:
            pending.append(batch)
            size += len(batch)
            if size >= _BLOCK:
                yield np.concatenate(pending)
                pending, size = [], 0
        for batch_id in self._ids:
            batch = self._regenerate(batch_id)
            pending.append(batch)
            size += len(batch)
            if size >= _BLOCK:
                yield np.concatenate(pending)
                pending, size = [], 0
        if pending:
            yield np.concatenate(pending)

    def count_le(self, probes: list[int]) -> dict[int, int]:
        """``{p: #(x <= p)}`` for integer probes (scaled units)."""
        started = perf_counter()
        points = np.unique(np.asarray(probes, dtype=np.int64))
        totals = np.zeros(len(points), dtype=np.int64)
        for block in self._blocks():
            block.sort()
            totals += np.searchsorted(block, points, side="right")
        self.seconds += perf_counter() - started
        return {int(p): int(c) for p, c in zip(points, totals)}

    def scaled(self, answer: str) -> Fraction:
        return Fraction(answer) * self.scale


def _probes(value: Fraction) -> tuple[int, int]:
    """Integer probes whose counts give ``#(< value)`` and ``#(<= value)``."""
    return math.ceil(value) - 1, math.floor(value)


def _distance(target: int, low: int, high: int) -> int:
    if target < low:
        return low - target
    if target > high:
        return target - high
    return 0


def check(truth: Truth, n_served: int, queries, ranks) -> dict:
    """Check final answers against the exact ranks; return the verdict.

    ``queries`` are ``(percent, value_string)`` pairs (phi = percent/100),
    ``ranks`` are ``(scaled_probe_int, served_rank)`` pairs.
    """
    query_values = [(percent, truth.scaled(value)) for percent, value in queries]
    probes: list[int] = []
    for _, value in query_values:
        probes.extend(_probes(value))
    for point, _ in ranks:
        probes.extend((point - 1, point))
    counts = truth.count_le(probes)
    n = truth.n
    worst = 0  # in hundredths of a rank
    violations = 0
    for percent, value in query_values:
        below, through = (counts[p] for p in _probes(value))
        # target phi*n = percent*n/100; compare 100x-scaled integers.
        distance = _distance(percent * n, 100 * below, 100 * through)
        worst = max(worst, distance)
        if distance * INVERSE_EPSILON > 100 * n:
            violations += 1
    for point, served in ranks:
        distance = 100 * _distance(served, counts[point - 1], counts[point])
        worst = max(worst, distance)
        if distance * INVERSE_EPSILON > 100 * n:
            violations += 1
    return {
        "n": n,
        "n_served": n_served,
        "answers": len(queries) + len(ranks),
        "violations": violations,
        "worst_rank_error": worst / 100,
        "bound": n / INVERSE_EPSILON,
        "ok": violations == 0 and n == n_served,
    }
