"""repro — executable reproduction of Cormode & Vesely (PODS 2020),
"A Tight Lower Bound for Comparison-Based Quantile Summaries".

The package has four layers:

1. **Substrates** — a continuous totally ordered universe of comparison-only
   items (:mod:`repro.universe`), order-statistics containers
   (:mod:`repro.containers`), the comparison-based computational model of
   Definition 2.1 (:mod:`repro.model`) and recorded streams with exact rank
   oracles (:mod:`repro.streams`).
2. **Algorithms** — every summary the paper discusses, from scratch
   (:mod:`repro.summaries`): Greenwald-Khanna (band and greedy), MRL, KLL,
   reservoir sampling, q-digest, offline-optimal, exact, budget-capped, and
   a biased-quantile summary.
3. **The contribution** — the adversarial lower-bound construction
   (:mod:`repro.core`): indistinguishable stream pairs, RefineIntervals,
   AdvStrategy, the space-gap inequality, failing-quantile witnesses, and
   the Section 6 corollaries (median, rank, randomized, biased).
4. **Evaluation** — bound curves and accuracy profiling
   (:mod:`repro.analysis`) and one runnable experiment per figure/claim
   (:mod:`repro.experiments`; also ``python -m repro.experiments``).

Quickstart::

    from repro import GreenwaldKhanna, Universe
    from repro.streams import random_stream

    universe = Universe()
    summary = GreenwaldKhanna(epsilon=0.01)
    summary.process_all(random_stream(universe, 100_000))
    median = summary.query(0.5)

    from repro import build_adversarial_pair, find_failing_quantile
    result = build_adversarial_pair(GreenwaldKhanna, epsilon=1 / 32, k=6)
    assert find_failing_quantile(result) is None   # GK survives the adversary
"""

from repro.universe import (
    ComparisonCounter,
    Item,
    NEG_INFINITY,
    OpenInterval,
    POS_INFINITY,
    Universe,
    key_of,
)
from repro.model import (
    ComplianceMonitor,
    MemoryState,
    QuantileSummary,
    available_summaries,
    create_summary,
    equivalent,
)
from repro.streams import Stream
from repro.summaries import (
    BiasedQuantileSummary,
    CappedSummary,
    ExactSummary,
    GreenwaldKhanna,
    GreenwaldKhannaGreedy,
    KLL,
    MRL,
    OfflineOptimal,
    QDigest,
    ReservoirSampling,
)
from repro.core import (
    AdversaryResult,
    FailureWitness,
    SummaryPair,
    build_adversarial_pair,
    check_claim1,
    check_space_gap,
    find_failing_quantile,
    full_stream_gap,
    refine_intervals,
    verify_gap_bound,
)
from repro.analysis import Table, gk_upper_bound, theorem22_lower_bound
from repro.engine import EngineConfig, ShardedQuantileEngine, Telemetry
from repro.obs import AdversaryTracer, MetricRegistry, ObservedSummary, trace_to
from repro.model import merge_summaries, mergeable_summaries
from repro.multipass import SelectionResult, multipass_median, multipass_select
from repro.persistence import dump as dump_summary, load as load_summary
from repro.summaries import SlidingWindowQuantiles, merge_gk
from repro.universe import LexicographicUniverse

__version__ = "1.0.0"

__all__ = [
    "AdversaryResult",
    "AdversaryTracer",
    "BiasedQuantileSummary",
    "CappedSummary",
    "ComparisonCounter",
    "ComplianceMonitor",
    "EngineConfig",
    "ExactSummary",
    "FailureWitness",
    "GreenwaldKhanna",
    "GreenwaldKhannaGreedy",
    "Item",
    "LexicographicUniverse",
    "KLL",
    "MRL",
    "MemoryState",
    "MetricRegistry",
    "NEG_INFINITY",
    "ObservedSummary",
    "OfflineOptimal",
    "OpenInterval",
    "POS_INFINITY",
    "QDigest",
    "QuantileSummary",
    "ReservoirSampling",
    "SelectionResult",
    "ShardedQuantileEngine",
    "SlidingWindowQuantiles",
    "Stream",
    "SummaryPair",
    "Table",
    "Telemetry",
    "Universe",
    "available_summaries",
    "build_adversarial_pair",
    "check_claim1",
    "check_space_gap",
    "create_summary",
    "dump_summary",
    "load_summary",
    "equivalent",
    "find_failing_quantile",
    "full_stream_gap",
    "gk_upper_bound",
    "key_of",
    "merge_gk",
    "merge_summaries",
    "mergeable_summaries",
    "multipass_median",
    "multipass_select",
    "refine_intervals",
    "theorem22_lower_bound",
    "trace_to",
    "verify_gap_bound",
]
