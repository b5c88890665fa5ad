"""The in-process executor: shards stay in the engine, batches apply locally.

:class:`SerialExecutor` is the default and reproduces the engine's
historical serial ingest path exactly — same normalisation, same routing,
same per-shard ``process_many`` calls in the same order — so its shard
states are bit-identical to every pre-executor release.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.engine import as_fraction
from repro.engine.routing import route_batch
from repro.engine.workers.base import ShardExecutor
from repro.engine.workers.ipc import fast_int_buckets


class SerialExecutor(ShardExecutor):
    """Apply every busy shard's bucket in the calling thread (the default)."""

    kind = "serial"

    def apply_batch(self, values: Sequence, already_ingested: int) -> tuple[int, int]:
        engine = self.engine
        config = engine.config
        # Columnar-lane routing: only batches faithful to their int64 image
        # qualify (the :func:`fast_int_buckets` contract); anything else —
        # non-integral floats, huge ints, malformed records — yields None so
        # the Fraction path keeps owning both the semantics and the errors.
        numeric = (
            fast_int_buckets(values, config.shards, config.routing, already_ingested)
            if config.lane == "columnar"
            else None
        )
        if numeric is not None:
            busy = [index for index, bucket in enumerate(numeric) if bucket]
            for index in busy:
                engine._feed_shard_numeric(index, numeric[index])
            return len(values), len(busy)
        fractions = [as_fraction(value) for value in values]
        buckets = route_batch(fractions, config.shards, config.routing, already_ingested)
        busy = [index for index, bucket in enumerate(buckets) if bucket]
        for index in busy:
            engine._feed_shard(index, buckets[index])
        return len(fractions), len(busy)

    def shard_counts(self) -> list[int]:
        return [summary.n for summary in self.engine._shards]
