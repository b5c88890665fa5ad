"""Load-generator determinism and the GK-backed latency refactor.

Satellite of the canary PR: ``LoadReport`` now tracks per-op latency in
GK-backed histograms (bounded space for soak runs) with raw samples
opt-in, and the same seed must produce the identical operation stream and
ground truth — the property the canary harness builds on.
"""

import asyncio
from fractions import Fraction

import pytest

from repro.engine import EngineConfig
from repro.obs.registry import Histogram
from repro.service import (
    LoadConfig,
    LoadReport,
    QuantileService,
    ServiceConfig,
    run_load,
)

EPSILON = 0.02


def make_service() -> QuantileService:
    return QuantileService(
        engine_config=EngineConfig(summary="gk", epsilon=EPSILON, shards=2),
        config=ServiceConfig(port=0),
    )


async def one_run(config: LoadConfig) -> LoadReport:
    service = make_service()
    await service.start()
    try:
        return await run_load("127.0.0.1", service.port, config)
    finally:
        await service.stop()


def run_twice(config: LoadConfig) -> tuple[LoadReport, LoadReport]:
    async def both():
        return await one_run(config), await one_run(config)

    return asyncio.run(both())


class TestDeterminism:
    def test_same_seed_same_stream_and_ground_truth(self):
        config = LoadConfig(clients=4, ops_per_client=20, seed=7)
        first, second = run_twice(config)
        assert first.inserted == second.inserted
        assert first.ops == second.ops
        assert first.ok == second.ok
        assert first.errors == second.errors
        probe = first.inserted[len(first.inserted) // 2]
        assert first.exact_rank(probe) == second.exact_rank(probe)

    def test_different_seed_different_stream(self):
        async def runs():
            a = await one_run(LoadConfig(clients=2, ops_per_client=10, seed=0))
            b = await one_run(LoadConfig(clients=2, ops_per_client=10, seed=1))
            return a, b

        first, second = asyncio.run(runs())
        assert first.inserted != second.inserted


class TestHistogramLatencies:
    def test_default_mode_keeps_no_raw_samples(self):
        config = LoadConfig(clients=2, ops_per_client=15, seed=3)
        report = asyncio.run(one_run(config))
        assert report.latencies_ns == {}
        assert report.histograms, "per-op histograms must exist"
        for op, histogram in report.histograms.items():
            assert isinstance(histogram, Histogram)
            assert histogram.observations > 0, op

    def test_raw_mode_keeps_samples_and_they_agree_with_gk(self):
        config = LoadConfig(
            clients=2, ops_per_client=25, seed=3, raw_latencies=True
        )
        report = asyncio.run(one_run(config))
        assert report.latencies_ns, "raw mode must record samples"
        for op, samples in report.latencies_ns.items():
            histogram = report.histograms[op]
            assert histogram.observations == len(samples)
            quantiles = report.latency_quantiles_us(op, (0.5,))
            ordered = sorted(samples)
            # The GK answer is a real sample within epsilon rank error.
            rank = sum(
                1 for v in ordered if v / 1000.0 <= quantiles["p50"] + 1e-9
            )
            target = 0.5 * len(ordered)
            assert abs(rank - target) <= max(
                1.0, 2 * 0.005 * len(ordered) + 1
            )

    def test_histogram_space_is_bounded(self):
        report = LoadReport()
        for index in range(20_000):
            report.record_ok("insert", index % 997 + 1)
        histogram = report.histograms["insert"]
        assert histogram.observations == 20_000
        assert report.latencies_ns == {}
        # GK keeps O((1/eps) log(eps N)) tuples, far below the 20k stream.
        assert histogram.summary.max_item_count < 2_000

    def test_merge_combines_histograms_and_raw_samples(self):
        left, right = LoadReport(raw_latencies=True), LoadReport(
            raw_latencies=True
        )
        for value in (100, 200, 300):
            left.record_ok("query", value)
        for value in (400, 500):
            right.record_ok("query", value)
        right.record_error("rank", "overloaded", 50)
        left.merge(right)
        assert left.ops == 6 and left.ok == 5
        assert left.errors == {"overloaded": 1}
        assert left.histograms["query"].observations == 5
        assert sorted(left.latencies_ns["query"]) == [100, 200, 300, 400, 500]
        assert left.histograms["rank"].observations == 1

    def test_summary_uses_histogram_quantiles(self):
        report = LoadReport()
        for value in range(1, 1001):
            report.record_ok("insert", value * 1000)  # 1..1000 us
        summary = report.summary()
        p50 = summary["latency_us"]["insert"]["p50"]
        assert p50 == pytest.approx(500, abs=25)
        assert summary["ops"] == 1000


class TestRankError:
    """``max_rank_error`` judges answers against exact rank intervals."""

    def test_duplicates_answer_exactly_anywhere_in_their_interval(self):
        # 100 copies of 5 occupy ranks [0, 100]: 5 is the exact answer
        # for every phi, so the error is zero (a point rank said 0.5).
        report = LoadReport(inserted=[5] * 100)
        answers = {
            "results": [{"phi": phi, "value": "5"} for phi in (0.0, 0.5, 1.0)]
        }
        assert report.max_rank_error(answers) == 0.0

    def test_answers_outside_the_interval_measure_the_gap(self):
        # 5 occupies ranks [50, 100]; the phi=0.2 target rank 20 is 30 short.
        report = LoadReport(inserted=[1] * 50 + [5] * 50)
        answers = {"results": [{"phi": 0.2, "value": "5"}]}
        assert report.max_rank_error(answers) == pytest.approx(0.3)

    @staticmethod
    def _fraction_reference(inserted, answers):
        """The ground truth as the Fraction sort computes it."""
        from repro.service.loadgen import interval_rank_error

        ordered = sorted(Fraction(value) for value in inserted)
        n = len(ordered)
        return max(
            interval_rank_error(
                ordered, Fraction(entry["value"]), entry["phi"] * n
            )
            for entry in answers["results"]
        )

    @pytest.mark.parametrize(
        "inserted",
        [
            [7, 3, 3, 3, 9, 1, 1, 5, 5, 5, 5, -2] * 9,  # ints, heavy duplicates
            [7, 3, 2.5, 3, 0.1, 9, 1, 5, 5, -2] * 9,  # floats: Fraction path
        ],
        ids=["ints", "mixed"],
    )
    def test_sorted_truth_matches_the_fraction_path(self, inserted):
        answers = {
            "results": [
                {"phi": phi, "value": value}
                for phi, value in (
                    (0.0, "-2"),
                    (0.1, "1"),
                    (0.3, "5/2"),  # between stored values
                    (0.45, "3"),
                    (0.5, "1/10"),
                    (0.7, "5"),
                    (0.99, "9"),
                    (1.0, "19/2"),
                )
            ]
        }
        report = LoadReport(inserted=list(inserted))
        assert report.max_rank_error(answers) == self._fraction_reference(
            inserted, answers
        )
        ordered = sorted(Fraction(value) for value in inserted)
        for probe in (-3, -2, 1, Fraction(5, 2), 2.5, 3, 5, 9, 10):
            expected = sum(1 for value in ordered if value <= Fraction(probe))
            assert report.exact_rank(probe) == expected

    def test_sorted_truth_follows_new_inserts(self):
        report = LoadReport(inserted=[5] * 10)
        assert report.exact_rank(5) == 10
        report.inserted.extend([1] * 10)
        assert report.exact_rank(1) == 10
        assert report.exact_rank(5) == 20
        report.inserted.append(Fraction(1, 2))  # no longer all ints
        assert report.exact_rank(Fraction(1, 2)) == 1
