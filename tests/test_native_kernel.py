"""The native GK kernel at scale: state-identical to the pure-Python path.

``repro.native.gk_batch`` applies each compress period as one sort, one
splice and one compress pass; ``_GKBase._process_batch`` is the reference
semantics.  Every test here feeds the same batches to a summary on the
native path and to a twin run with ``REPRO_NO_NATIVE=1``, then compares
tuples, ``n``, ``since_compress``, ``max_item_count`` and the persisted
payload byte for byte.  The native side asserts that the kernel really ran,
so a kernel that fails to build fails these tests instead of comparing the
Python path with itself.
"""

import json
import random
import zlib
from array import array

import pytest

import repro.native as native
import repro.summaries  # noqa: F401  (registers every summary type)
from repro.model.registry import create_summary
from repro.persistence import dump
from repro.summaries import gk

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
LARGE_BATCH = 16384

KINDS = ("uniform", "span3", "equal", "ascending", "descending", "extremes")

needs_compiler = pytest.mark.skipif(
    native._compiler() is None, reason="no C compiler on this machine"
)


def _values(kind: str, count: int, rng: random.Random, offset: int) -> list[int]:
    if kind == "uniform":
        return [rng.randint(-(2**62), 2**62) for _ in range(count)]
    if kind == "span3":
        return [rng.randint(0, 2) for _ in range(count)]
    if kind == "equal":
        return [7] * count
    if kind == "ascending":
        return list(range(offset, offset + count))
    if kind == "descending":
        return list(range(-offset, -offset - count, -1))
    return [rng.choice((INT64_MIN, INT64_MAX, INT64_MIN + 1, 0)) for _ in range(count)]


def _state(summary) -> tuple:
    return (
        [(entry.value, entry.g, entry.delta) for entry in summary._tuples],
        summary._n,
        summary._since_compress,
        summary._max_item_count,
        json.dumps(dump(summary), sort_keys=True).encode(),
    )


def _assert_twins_agree(monkeypatch, name, epsilon, period, batches) -> None:
    """Feed ``batches`` natively and to a REPRO_NO_NATIVE twin; compare."""
    native_calls = []
    kernel = gk.native_gk_batch

    def counted(*args):
        result = kernel(*args)
        native_calls.append(result is not None)
        return result

    native_side = create_summary(name, epsilon, compress_period=period)
    python_side = create_summary(name, epsilon, compress_period=period)
    with monkeypatch.context() as patch:
        patch.delenv(native.DISABLE_ENV, raising=False)
        patch.setattr(gk, "native_gk_batch", counted)
        for batch in batches:
            native_side.process_numeric(batch)
    with monkeypatch.context() as patch:
        patch.setenv(native.DISABLE_ENV, "1")
        for batch in batches:
            python_side.process_numeric(batch)
    assert native_calls and all(native_calls), (
        f"native kernel did not run:\n{native.load_error()}"
    )
    assert _state(native_side) == _state(python_side)


@needs_compiler
@pytest.mark.parametrize("period", [None, 1, 7, 97], ids=lambda p: f"period{p}")
@pytest.mark.parametrize("epsilon", [0.001, 0.01, 0.05, 0.25])
@pytest.mark.parametrize("name", ["gk", "gk-greedy"])
def test_batch_schedule_matches_python(monkeypatch, name, epsilon, period):
    """Batches of 1, period-1, period, period+1 and 16384 values.

    Each call draws a different value kind, rotated per case so that every
    kind also lands on the large batch somewhere in the matrix; lists and
    ``array('q')`` batches alternate.
    """
    resolved = create_summary(name, epsilon, compress_period=period)._compress_period
    # At period 1 every value is its own chunk and compress, which costs the
    # Python reference O(tuples) per value; a 4096-value batch keeps those
    # cases fast while still spanning thousands of compress passes.
    large = LARGE_BATCH if resolved > 1 else 4096
    sizes = [1, max(1, resolved - 1), resolved, resolved + 1, large, resolved + 1, 1]
    seed = zlib.crc32(f"{name}/{epsilon}/{period}".encode())
    rng = random.Random(seed)
    shift = seed % len(KINDS)
    batches, offset = [], 0
    for call, size in enumerate(sizes):
        values = _values(KINDS[(call + shift) % len(KINDS)], size, rng, offset)
        offset += size
        batches.append(array("q", values) if call % 2 else values)
    _assert_twins_agree(monkeypatch, name, epsilon, period, batches)


@needs_compiler
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["gk", "gk-greedy"])
def test_large_batches_of_one_kind(monkeypatch, name, kind):
    """Three 16384-value calls of a single kind at the default period."""
    rng = random.Random(KINDS.index(kind))
    batches = [
        array("q", _values(kind, LARGE_BATCH, rng, call * LARGE_BATCH))
        for call in range(3)
    ]
    _assert_twins_agree(monkeypatch, name, 0.01, None, batches)


@needs_compiler
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["gk", "gk-greedy"])
def test_chunk_longer_than_a_batch(monkeypatch, name, kind):
    """A 10,000-value period: the 16384-value batch sorts a 10,000-value
    chunk, compresses mid-batch, and leaves a part-filled period for the
    next call."""
    rng = random.Random(100 + KINDS.index(kind))
    batches = [
        _values(kind, size, rng, offset)
        for size, offset in ((LARGE_BATCH, 0), (4096, LARGE_BATCH))
    ]
    _assert_twins_agree(monkeypatch, name, 0.00005, None, batches)


@needs_compiler
def test_kernel_builds_and_loads(monkeypatch, tmp_path):
    """With a compiler present the kernel must build from the current source.

    Builds into an empty cache so a stale object cannot mask a broken
    source; on failure the message carries the compiler's stderr.
    """
    monkeypatch.setenv(native.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_failed", False)
    monkeypatch.setattr(native, "_load_error", None)
    lib = native._load()
    assert lib is not None, f"native kernel failed to build:\n{native.load_error()}"
    assert native.load_error() is None


@needs_compiler
def test_build_failure_keeps_compiler_stderr(monkeypatch, tmp_path):
    """A source that does not compile falls back, but says why."""
    broken = tmp_path / "gk_kernel.c"
    broken.write_text("int gk_batch(void) { return undeclared_name; }\n")
    monkeypatch.setattr(native, "_SOURCE", broken)
    monkeypatch.setenv(native.CACHE_ENV, str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_failed", False)
    monkeypatch.setattr(native, "_load_error", None)
    monkeypatch.delenv(native.DISABLE_ENV, raising=False)
    assert native.gk_batch([], [], [], [1], 0, 0, 0, 50, 1, 50, False) is None
    assert "undeclared_name" in native.load_error()


def test_missing_compiler_is_reported(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "_compiler", lambda: None)
    monkeypatch.setenv(native.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_failed", False)
    monkeypatch.setattr(native, "_load_error", None)
    assert native._load() is None
    assert "no C compiler" in native.load_error()
