"""Epoch-swapped immutable snapshots of the engine's merged summary.

Reads must never block ingest.  The single-writer ingest loop therefore
*publishes* — after each micro-batch flush — an immutable :class:`Snapshot`
holding the merge-tree fold of all shards, and every quantile/rank request
is answered from whichever snapshot was current when it arrived.  Swapping
is a single attribute assignment on the event loop, so readers see either
the old epoch or the new one, never a half-merged state.

This is exactly the deployment shape the mergeable-summary line of work
(Agarwal et al.; Karnin–Lang–Liberty) targets, and the Cormode–Veselý
bound is what makes it cheap: a published snapshot is one
O((1/eps) log(eps N)) summary no matter how many items the service has
absorbed, so publishing per flush costs a merge fold, not a data copy.

One subtlety: with a single shard the engine's merged summary *is* the
live shard object (no merge happens), so :meth:`SnapshotStore.publish`
deep-copies it in that case to keep the snapshot frozen while ingest
continues.  With two or more shards the fold already produces a fresh
summary (registered merges never mutate their inputs).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter_ns

from repro.errors import EmptySummaryError
from repro.model.rankindex import compile_rank_index
from repro.model.summary import QuantileSummary
from repro.obs import spans as obs_spans
from repro.universe.item import key_of
from repro.universe.universe import Universe

# Probe items for the uncompiled rank fallback are stateless; one
# module-level universe serves every snapshot instead of a Universe per call.
_PROBE_UNIVERSE = Universe()


@dataclass(frozen=True)
class Snapshot:
    """One immutable published view of the service's data.

    ``epoch`` increases by one per publish; ``items`` is the engine's
    lifetime item count at publish time.  ``summary`` is ``None`` only for
    the initial empty snapshot (epoch 0).
    """

    epoch: int
    items: int
    summary: QuantileSummary | None
    published_ns: int
    # One-slot cache for the lazily compiled read index; a dict rather than
    # an attribute because the dataclass is frozen (the dict stays mutable).
    _compiled: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def empty(self) -> bool:
        return self.summary is None or self.items == 0

    def read_index(self):
        """The compiled rank index, built on first read, valid all epoch.

        Snapshots are immutable, so compilation happens at most once per
        snapshot and the index (with its phi memo — the epoch-keyed query
        cache) serves every subsequent read of the epoch.  Returns ``None``
        when the summary type has no registered ``compile_index``; that
        outcome is cached too.
        """
        if "index" not in self._compiled:
            if self.summary is None:
                self._compiled["index"] = None
            else:
                with obs_spans.span(
                    "service.read_index.compile", epoch=self.epoch
                ) as span:
                    index = compile_rank_index(self.summary)
                    span.set(
                        supported=index is not None,
                        size=index.size if index is not None else 0,
                    )
                self._compiled["index"] = index
        return self._compiled["index"]

    @property
    def index_ready(self) -> bool:
        """Whether a compiled index is already cached for this snapshot."""
        return self._compiled.get("index") is not None

    def _require_items(self) -> None:
        if self.empty:
            raise EmptySummaryError(
                "the service has not ingested any items yet (snapshot epoch "
                f"{self.epoch})"
            )

    def query(self, phi: float) -> Fraction:
        """The phi-quantile's exact rational value at this epoch."""
        self._require_items()
        index = self.read_index()
        if index is not None:
            return key_of(index.quantile(phi))
        return key_of(self.summary.query(phi))

    def query_many(self, phis) -> list[Fraction]:
        """Batch form of :meth:`query`; answers match input order."""
        self._require_items()
        index = self.read_index()
        if index is not None:
            return [key_of(item) for item in index.quantile_many(phis)]
        return [key_of(self.summary.query(phi)) for phi in phis]

    def rank(self, value: Fraction) -> int:
        """Estimated number of items ``<=`` ``value`` at this epoch."""
        self._require_items()
        index = self.read_index()
        if index is not None:
            return index.rank(value)
        return self.summary.estimate_rank(_PROBE_UNIVERSE.item(value))

    def rank_many(self, values) -> list[int]:
        """Batch form of :meth:`rank`; answers match input order."""
        self._require_items()
        index = self.read_index()
        if index is not None:
            return index.rank_many(values)
        return [
            self.summary.estimate_rank(_PROBE_UNIVERSE.item(value))
            for value in values
        ]

    def __repr__(self) -> str:
        return f"Snapshot(epoch={self.epoch}, items={self.items})"


EMPTY_SNAPSHOT = Snapshot(epoch=0, items=0, summary=None, published_ns=0)


class SnapshotStore:
    """Holds the current snapshot; the ingest loop is the only publisher."""

    def __init__(self) -> None:
        self._current = EMPTY_SNAPSHOT

    def current(self) -> Snapshot:
        """The latest published snapshot (cheap: one attribute read)."""
        return self._current

    @property
    def epoch(self) -> int:
        return self._current.epoch

    def publish(self, engine) -> Snapshot:
        """Fold the engine's shards and swap in a new immutable snapshot.

        Skips the fold (returning the current snapshot) when the engine has
        not grown since the last publish.
        """
        previous = self._current
        if engine.items_ingested == 0 or (
            engine.items_ingested == previous.items and not previous.empty
        ):
            return previous
        with obs_spans.span(
            "service.snapshot_publish", epoch=previous.epoch + 1
        ) as span:
            merged = engine.merged_summary()
            if engine.config.shards == 1:
                merged = copy.deepcopy(merged)
            snapshot = Snapshot(
                epoch=previous.epoch + 1,
                items=engine.items_ingested,
                summary=merged,
                published_ns=perf_counter_ns(),
            )
            span.set(items=snapshot.items)
        self._current = snapshot
        return snapshot
