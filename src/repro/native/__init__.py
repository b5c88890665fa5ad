"""On-demand-compiled native kernels for the columnar numeric lane.

The columnar lane (docs/model.md, "Lanes") stores raw numeric keys instead
of :class:`~repro.universe.item.Item` wrappers.  For GK that makes the whole
insert/compress loop expressible over flat ``int64`` arrays, so this package
compiles ``gk_kernel.c`` with the system C compiler the first time it is
needed and drives it through :mod:`ctypes`.  Nothing here is required for
correctness: every caller treats a ``None`` return as "take the pure-Python
columnar path".

The kernel applies a batch one compress period at a time: each chunk that
ends at a compress boundary gets its values' Deltas in arrival order (an
O(1) check against the chunk's starting min/max and the running fresh
extremes), one stable sort, one backward merge into the tuple arrays, and
at most one compress pass that marks deleted tuples and compacts once.
That is the schedule of the pure-Python batch kernel
(``_GKBase._process_batch``, the reference semantics), whose chunks never
cross a compress boundary, so the result is state-identical to inserting
item by item: same tuples, ``n``, ``since_compress`` and
``max_item_count``.  ``tests/test_native_kernel.py`` checks that against
the pure-Python path at scale, and the lane-equivalence tests pin the
columnar lane to the items lane.

Knobs:

* ``REPRO_NO_NATIVE=1`` — kill switch; never compile or call native code.
* ``REPRO_NATIVE_CACHE=DIR`` — where compiled objects are cached (default
  ``$TMPDIR/repro-native``).  The cache key hashes the kernel source and
  compiler, and the object lands under its final name via an atomic rename,
  so concurrent workers never load a half-written library.

A kernel that fails to build or load leaves the compiler's stderr (or the
loader's error) in :func:`load_error`, so a silent fallback to the Python
path can be told apart from a missing compiler.  The library holds no
mutable global state: the wrapper passes every scratch buffer in, so
forked workers share the loaded object safely.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path

DISABLE_ENV = "REPRO_NO_NATIVE"
CACHE_ENV = "REPRO_NATIVE_CACHE"

_SOURCE = Path(__file__).with_name("gk_kernel.c")
#: eps numerator/denominator cap: keeps the kernel's __int128 threshold
#: product (eps_p * n) well inside range for any guarded n.
_FRACTION_LIMIT = 1 << 62
#: Cap on n + batch size: bounds thresholds (hence g/delta sums and band
#: shifts) far below int64.
_COUNT_LIMIT = 1 << 40

_lib: ctypes.CDLL | None = None
_load_failed = False
_load_error: str | None = None


def native_disabled() -> bool:
    """True when the ``REPRO_NO_NATIVE`` kill switch is set."""
    return bool(os.environ.get(DISABLE_ENV))


def load_error() -> str | None:
    """Why the kernel failed to build or load (compiler stderr), if it did."""
    return _load_error


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-native"


def _compiler() -> str | None:
    return os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")


def _compile() -> Path | None:
    global _load_error
    compiler = _compiler()
    if compiler is None:
        _load_error = "no C compiler found (CC, cc, gcc)"
        return None
    source = _SOURCE.read_text()
    digest = hashlib.sha256(f"{compiler}\n{source}".encode()).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"gk_kernel-{digest}.so"
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, scratch = tempfile.mkstemp(suffix=".so", dir=cache)
    except OSError as exc:
        _load_error = f"cannot create {cache}: {exc}"
        return None
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", scratch, str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(scratch, target)
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        _load_error = f"{exc}\n{stderr.decode(errors='replace')}".rstrip()
        try:
            os.unlink(scratch)
        except OSError:
            pass
        return None
    return target


def _load() -> ctypes.CDLL | None:
    global _lib, _load_failed, _load_error
    if _lib is not None:
        return _lib
    if _load_failed:
        return None
    path = _compile()
    if path is None:
        _load_failed = True
        return None
    try:
        lib = ctypes.CDLL(str(path))
        lib.gk_batch.restype = ctypes.c_int64
        lib.gk_batch.argtypes = [
            ctypes.c_void_p,  # int64 vals
            ctypes.c_void_p,  # int64 gs
            ctypes.c_void_p,  # int64 deltas
            ctypes.c_int64,  # size
            ctypes.c_void_p,  # int64 batch
            ctypes.c_int64,  # batch_len
            ctypes.c_void_p,  # int64 state [n, since_compress, max_item_count]
            ctypes.c_int64,  # period
            ctypes.c_int64,  # eps_p
            ctypes.c_int64,  # eps_q
            ctypes.c_int32,  # greedy
            ctypes.c_void_p,  # int64 scratch: marks, then sort pairs
        ]
    except (OSError, AttributeError) as exc:
        _load_error = f"cannot load {path}: {exc}"
        _load_failed = True
        return None
    _lib = lib
    return _lib


def gk_batch(
    values: list,
    gs: list,
    deltas: list,
    batch: list,
    n: int,
    since_compress: int,
    max_item_count: int,
    period: int,
    eps_p: int,
    eps_q: int,
    greedy: bool,
):
    """Apply ``batch`` to GK tuple state with the native kernel.

    ``batch`` may be a list or an ``array('q')``; the latter is handed to C
    without a copy.  Returns ``(values, gs, deltas, n, since_compress,
    max_item_count)`` on success, or ``None`` when the kernel is unavailable
    or the inputs are outside its int64-safe envelope (huge ints, floats,
    enormous epsilon fractions, 2 eps >= 2, streams past 2^40 items) —
    callers then run the pure-Python columnar path, which is
    state-identical.
    """
    if native_disabled():
        return None
    lib = _load()
    if lib is None:
        return None
    if eps_p >= _FRACTION_LIMIT or eps_q >= _FRACTION_LIMIT or eps_p >= 2 * eps_q:
        return None
    size, batch_len = len(values), len(batch)
    if n + batch_len >= _COUNT_LIMIT or not 1 <= period < _COUNT_LIMIT:
        return None
    # One zeroed buffer per call: the value, g and delta columns with room
    # for every batch value, then the kernel's scratch (a mark per tuple,
    # then two buffers of (key, delta) pairs for the largest chunk's sort).
    cap = size + batch_len
    columns = array("q", [0]) * (4 * cap + 4 * min(period, batch_len))
    try:
        columns[:size] = array("q", values)
        columns[cap : cap + size] = array("q", gs)
        columns[2 * cap : 2 * cap + size] = array("q", deltas)
        if not (isinstance(batch, array) and batch.typecode == "q"):
            batch = array("q", batch)
    except (OverflowError, TypeError):
        return None
    state = array("q", [n, since_compress, max_item_count])
    base = columns.buffer_info()[0]
    new_size = lib.gk_batch(
        base,
        base + 8 * cap,
        base + 16 * cap,
        size,
        batch.buffer_info()[0],
        batch_len,
        state.buffer_info()[0],
        period,
        eps_p,
        eps_q,
        1 if greedy else 0,
        base + 24 * cap,
    )
    if new_size < 0 or new_size > cap:  # pragma: no cover - guard
        return None
    return (
        columns[:new_size].tolist(),
        columns[cap : cap + new_size].tolist(),
        columns[2 * cap : 2 * cap + new_size].tolist(),
        state[0],
        state[1],
        state[2],
    )
