"""Timing shims around each layer's public entry point.

A shim replaces a function *where its caller looks it up* (a module
attribute or a class attribute) with a wrapper that records one span:
name, start, end, parent.  Only synchronous calls made on the recording
thread are timed — every wrapped server function runs to completion
without awaiting, so a plain stack gives each span its parent even with
many concurrent connections.  Spans stay in memory (parallel ``array``
columns) and are written once, at shutdown.  Root spans also record the
thread's CPU time, which is how the report finds the server CPU no shim
covers.

``repro.obs.spans`` is deliberately not used: its span stack is shared by
every coroutine and breaks when requests interleave.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import threading
from array import array
from time import perf_counter_ns, thread_time_ns


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and samples (name ids stay valid)."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cpu = array("q")
        #: Sample series that are not spans, e.g. admission-queue waits.
        self.series: dict[str, array] = {}
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def sample(self, series: str, stamp_ns: int, value: int) -> None:
        """Append ``(stamp_ns, value)`` to a named series."""
        column = self.series.get(series)
        if column is None:
            column = self.series[series] = array("q")
        column.append(stamp_ns)
        column.append(value)

    def begin(self, name_id: int) -> int:
        stack = self._stack
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.cpu.append(-thread_time_ns() if not stack else 0)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()
        if self.parent[index] < 0:
            self.cpu[index] += thread_time_ns()

    def recording(self) -> bool:
        return threading.get_ident() == self._thread

    def wrap(self, name: str, func):
        """A synchronous wrapper recording one ``name`` span per call."""
        name_id = self.name_id(name)
        recorder = self

        @functools.wraps(func)
        def shim(*args, **kwargs):
            if not recorder.recording():
                return func(*args, **kwargs)
            index = recorder.begin(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                recorder.finish(index)

        return shim

    def patch(self, owner, attribute: str, name: str) -> None:
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def to_payload(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "cpu": self.cpu.tolist(),
            "series": {key: column.tolist() for key, column in self.series.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_payload(), handle)

    def adopt_worker(self, path_prefix: str) -> None:
        """In a forked worker: start empty and write spans at worker exit."""
        self.clear()
        multiprocessing.util.Finalize(
            self, self.dump, args=(f"{path_prefix}-{os.getpid()}",), exitpriority=10
        )


def install_server(recorder: Recorder, worker_trace: str) -> None:
    """Patch every server-side layer boundary (before the engine exists)."""
    from repro.engine import engine as engine_module
    from repro.engine.engine import ShardedQuantileEngine
    from repro.model.summary import QuantileSummary
    from repro.service import frames, protocol
    from repro.service import snapshots as snapshots_module
    from repro.service.audit import AccuracyAuditor
    from repro.service.limits import BoundedQueue
    from repro.service.snapshots import Snapshot, SnapshotStore
    from repro.summaries import gk

    patch = recorder.patch
    patch(protocol, "decode_line", "service.protocol.decode_line")
    patch(protocol, "parse_request", "service.protocol.parse_request")
    patch(frames, "decode_insert", "service.frames.decode")
    patch(ShardedQuantileEngine, "ingest", "engine.ingest")
    patch(gk._GKBase, "process_numeric", "summaries.process_numeric")
    patch(QuantileSummary, "process_many", "summaries.process_many")
    patch(gk, "native_gk_batch", "native.gk_batch")
    patch(engine_module, "fold_shards", "engine.merge_fold")
    patch(engine_module, "compile_rank_index", "model.rankindex.compile")
    patch(snapshots_module, "compile_rank_index", "model.rankindex.compile")
    patch(SnapshotStore, "publish", "service.snapshots.publish")
    patch(Snapshot, "query_many", "service.snapshots.answer")
    patch(Snapshot, "rank_many", "service.snapshots.answer")
    patch(AccuracyAuditor, "observe_batch", "service.audit.observe")
    patch(AccuracyAuditor, "maybe_audit", "service.audit.audit")

    try_put = BoundedQueue.try_put

    @functools.wraps(try_put)
    def traced_try_put(self, job):
        admitted = try_put(self, job)
        if not admitted and recorder.recording():
            recorder.sample("service.limits.shed", perf_counter_ns(), 1)
        return admitted

    BoundedQueue.try_put = traced_try_put

    get_batch = BoundedQueue.get_batch

    @functools.wraps(get_batch)
    async def traced_get_batch(self, max_items, linger_s=0.0):
        batch = await get_batch(self, max_items, linger_s)
        if batch and recorder.recording():
            now = perf_counter_ns()
            recorder.sample("service.limits.jobs_per_flush", now, len(batch))
            for job in batch:
                recorder.sample("service.limits.queue_wait_ns", now, now - job.enqueued_ns)
        return batch

    BoundedQueue.get_batch = traced_get_batch

    # Shard workers are forked from this process with the shims in place;
    # each keeps its own spans and writes them when it stops.
    multiprocessing.util.register_after_fork(
        recorder, lambda rec: rec.adopt_worker(worker_trace)
    )


def install_executor(recorder: Recorder, executor) -> None:
    """Patch the bound executor's class: apply, the sync barrier, collect."""
    kind = type(executor)
    recorder.patch(kind, "apply_batch", "engine.workers.apply")
    recorder.patch(kind, "sync", "engine.workers.sync_wait")
    recorder.patch(kind, "collect", "engine.workers.collect")


def install_client(recorder: Recorder) -> None:
    """Patch the generator's encoders (frames and NDJSON) in this process."""
    from repro.service import frames, protocol

    for module, attribute in ((frames, "encode_insert"), (protocol, "encode_line")):
        encode = recorder.wrap("client.encode", getattr(module, attribute))

        def traced(*args, _encode=encode, **kwargs):
            payload = _encode(*args, **kwargs)
            if payload is not None:
                recorder.sample("client.bytes_sent", perf_counter_ns(), len(payload))
            return payload

        setattr(module, attribute, functools.wraps(encode)(traced))
