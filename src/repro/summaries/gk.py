"""The Greenwald-Khanna epsilon-approximate quantile summary.

Reference: M. Greenwald and S. Khanna, "Space-efficient online computation of
quantile summaries", SIGMOD 2001 — reference [6] of the paper, whose
O((1/eps) * log(eps N)) space bound the paper proves optimal.

The summary is a sorted sequence of tuples ``t_i = (v_i, g_i, Delta_i)``
where ``v_i`` is a stored stream item,

* ``rmin(i) = g_1 + ... + g_i`` is a lower bound on ``rank(v_i)``, and
* ``rmax(i) = rmin(i) + Delta_i`` is an upper bound on ``rank(v_i)``.

The core invariant is ``g_i + Delta_i <= floor(2 eps n)`` for every tuple,
which makes every quantile query answerable within ``eps n``.  Two compress
strategies are implemented:

* :class:`GreenwaldKhanna` — the *band-based* compress analysed in [6]: a
  tuple may only be merged into its successor when its Delta-band is no
  larger, and it carries its whole subtree of descendants with it.  This is
  the variant with the proven O((1/eps) log(eps N)) bound.
* :class:`GreenwaldKhannaGreedy` — the simplified variant already suggested
  in [6] and measured by Luo et al. [13]: merge adjacent tuples whenever the
  invariant permits, no bands.  Whether its worst-case space matches the
  band-based bound is the open problem discussed in Section 6 of the paper.

Both are deterministic and comparison-based, so the paper's adversary
applies to them; experiment T1 runs it against both.

All threshold arithmetic uses exact rationals so the epsilon guarantee holds
with no floating-point slack.

This module also holds :func:`merge_gk` (the one-way bound-merge of two GK
summaries, re-exported by :mod:`repro.summaries.merging`) and the GK
persistence codec, all bundled into the capability descriptors registered at
the bottom of the file, plus the int64 column form in which shard workers
ship columnar GK state (:func:`encode_gk_columns`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter

from repro.errors import EmptySummaryError
from repro.model.rankindex import RankIndex, build_index
from repro.model.registry import register_descriptor
from repro.model.summary import QuantileSummary, exact_fraction
from repro.native import gk_batch as native_gk_batch
from repro.persistence import decode_key, encode_key, epsilon_of
from repro.universe.item import Item
from repro.universe.universe import Universe


class _Tuple:
    """One (v, g, Delta) tuple of the GK summary."""

    __slots__ = ("value", "g", "delta")

    def __init__(self, value: Item, g: int, delta: int) -> None:
        self.value = value
        self.g = g
        self.delta = delta

    def __repr__(self) -> str:
        return f"({self.value!r}, g={self.g}, delta={self.delta})"


def _band(delta: int, p: int) -> int:
    """The band of ``delta`` against threshold ``p = floor(2 eps n)``.

    Band 0 holds ``delta == p``; band ``alpha >= 1`` holds deltas in
    ``(p - 2^alpha - (p mod 2^alpha), p - 2^(alpha-1) - (p mod 2^(alpha-1))]``
    (Definition in [6], Section 2.2).  Larger bands contain tuples that have
    survived longer and therefore count wider ranges of the stream.

    Deltas above ``p`` cannot arise in pure streaming, but merged summaries
    (:func:`merge_gk`) may carry a delta one or two above the floor-rounded
    threshold at tiny n; such tuples land in band 0 (never merged away),
    which is the conservative, sound choice.
    """
    if delta >= p:
        return 0
    # The band interval of alpha spans widths d = p - delta in
    # [2^(alpha-1) + p mod 2^(alpha-1), 2^alpha + p mod 2^alpha); both
    # endpoints are within a factor of two of 2^alpha, so alpha is within
    # one of d.bit_length() and the right value is found by direct check
    # instead of scanning alpha upward (which costs O(log p) per call).
    d = p - delta
    bit_length = d.bit_length()
    for alpha in (bit_length - 1, bit_length, bit_length + 1):
        if alpha < 1:
            continue
        lower = p - (1 << alpha) - (p % (1 << alpha))
        upper = p - (1 << (alpha - 1)) - (p % (1 << (alpha - 1)))
        if lower < delta <= upper:
            return alpha
    # Below every band boundary: the largest band, defined as the first
    # alpha whose width 2^alpha exceeds the whole delta range.
    alpha = 1
    while (1 << alpha) <= 2 * p + 2:
        alpha += 1
    return alpha


class _GKBase(QuantileSummary):
    """Shared machinery of the two GK variants."""

    supports_columnar = True
    #: Native-kernel compress flavour; None disables the native path (e.g.
    #: for subclasses with a custom ``_compress``).
    _native_greedy: bool | None = None

    def __init__(
        self, epsilon: float | Fraction, compress_period: int | None = None
    ) -> None:
        super().__init__(float(epsilon))
        self._eps = exact_fraction(epsilon)
        self._tuples: list[_Tuple] = []
        self._since_compress = 0
        # Compress every floor(1/(2 eps)) insertions, as in [6].  The A4
        # ablation overrides the period to measure the space/time trade-off;
        # correctness is unaffected (compress never breaks the invariant).
        if compress_period is not None and compress_period < 1:
            raise ValueError(f"compress_period must be >= 1, got {compress_period}")
        self._compress_period = (
            compress_period
            if compress_period is not None
            else max(1, int(1 / (2 * self._eps)))
        )

    # -- helpers -----------------------------------------------------------------

    def _threshold(self) -> int:
        """floor(2 eps n), the allowed uncertainty per tuple."""
        return int(2 * self._eps * self._n)

    def _insert(self, item: Item) -> None:
        position = bisect_right(self._tuples, item, key=lambda t: t.value)
        if position == 0 or position == len(self._tuples):
            # New minimum or maximum: its rank is known exactly.
            delta = 0
        else:
            delta = max(0, self._threshold() - 1)
        self._tuples.insert(position, _Tuple(item, 1, delta))
        self._since_compress += 1
        if self._since_compress >= self._compress_period:
            self._compress()
            self._since_compress = 0

    def _process_batch(self, batch: list[Item]) -> None:
        """Gap-bucketed batch kernel; state-identical to sequential inserts.

        Items are consumed in chunks that never cross a compress boundary,
        so the compress schedule (and hence every tuple's g/Delta and the
        ``max_item_count`` trajectory) matches item-at-a-time processing
        exactly.  Each chunk item is located with a single bisect over the
        *pre-chunk* tuple list — the same comparisons sequential insertion
        performs — and bucketed into its inter-tuple gap; its Delta follows
        from the gap alone (strictly interior items can never be the running
        min/max, boundary items are checked against the running fresh
        extremes), and the tuple list is rebuilt in one splice sweep.  That
        replaces the per-insert O(s) list shift and per-item Fraction
        threshold arithmetic with integer math, while adding item
        comparisons only for the rare same-gap orderings.
        """
        by_value = attrgetter("value")
        period = self._compress_period
        # floor(2 eps n) as integer arithmetic, hoisted out of the item loop.
        two_eps = 2 * self._eps
        p, q = two_eps.numerator, two_eps.denominator
        start, total = 0, len(batch)
        while start < total:
            take = min(period - self._since_compress, total - start)
            chunk = batch[start : start + take]
            start += take
            tuples = self._tuples
            len_old = len(tuples)
            values = [entry.value for entry in tuples]
            n = self._n
            # gap i collects fresh tuples that land between old tuples i-1
            # and i, each gap kept in bisect_right order (equal values keep
            # arrival order, later after earlier — as sequential inserts).
            gaps: dict[int, list[_Tuple]] = {}
            low_fresh: Item | None = None
            high_fresh: Item | None = None
            for item in chunk:
                position = bisect_right(values, item)
                if 0 < position < len_old:
                    # Strictly inside the old tuples: never a new extreme,
                    # whatever the other fresh items of the chunk are.
                    delta = (p * n) // q - 1
                    if delta < 0:
                        delta = 0
                elif len_old == 0:
                    # Empty summary (first chunk only): the running fresh
                    # extremes decide, exactly as sequential inserts would.
                    if low_fresh is None:
                        delta = 0
                        low_fresh = high_fresh = item
                    elif item < low_fresh:
                        delta = 0
                        low_fresh = item
                    elif not (item < high_fresh):
                        delta = 0
                        high_fresh = item
                    else:
                        delta = (p * n) // q - 1
                        if delta < 0:
                            delta = 0
                elif position == 0:
                    # Below every old tuple: a new minimum unless an earlier
                    # fresh item already went lower.
                    if low_fresh is None or item < low_fresh:
                        delta = 0
                        low_fresh = item
                    else:
                        delta = (p * n) // q - 1
                        if delta < 0:
                            delta = 0
                else:
                    # position == len_old: at or above every old tuple; a new
                    # maximum unless a fresh item is already at least as big.
                    if high_fresh is None or not (item < high_fresh):
                        delta = 0
                        high_fresh = item
                    else:
                        delta = (p * n) // q - 1
                        if delta < 0:
                            delta = 0
                entry = _Tuple(item, 1, delta)
                bucket = gaps.get(position)
                if bucket is None:
                    gaps[position] = [entry]
                else:
                    index = bisect_right(bucket, item, key=by_value)
                    bucket.insert(index, entry)
                n += 1
            merged: list[_Tuple] = []
            previous = 0
            for position in sorted(gaps):
                merged.extend(tuples[previous:position])
                merged.extend(gaps[position])
                previous = position
            merged.extend(tuples[previous:])
            self._tuples = merged
            self._since_compress += take
            will_compress = self._since_compress >= period
            # The chunk's last pre-compress size; sequential processing
            # observes the trigger item's count only after compressing.
            peak = len(merged) - 1 if will_compress else len(merged)
            if peak > self._max_item_count:
                self._max_item_count = peak
            if will_compress:
                # Compress runs before the trigger item's n increment.
                self._n += take - 1
                self._compress()
                self._since_compress = 0
                self._n += 1
                size = len(self._tuples)
                if size > self._max_item_count:
                    self._max_item_count = size
            else:
                self._n += take

    def _compress(self) -> None:
        raise NotImplementedError

    # -- the columnar lane -------------------------------------------------------

    def process_numeric(self, values) -> None:
        """Columnar ingest: keep raw numeric keys, no Item wrappers.

        The insert/compress machinery only ever *compares* keys, so running
        the existing batch kernel over raw numbers is state-identical to the
        items lane; int64-safe batches additionally take the native kernel
        (:mod:`repro.native`), which runs the same chunk-per-compress-period
        schedule over flat int64 arrays.  A summary with live
        comparison-model state stays in the items lane — only empty or
        already-columnar summaries switch.

        Buffer-backed batches (``array('q')`` from the routing fast path or
        the frame wire) are consumed as-is: the kernels only slice and
        read, and the native kernel reads the buffer in place.
        """
        batch = values if isinstance(values, (list, array)) else list(values)
        if not batch:
            return
        if self._n and self._lane == "items":
            super().process_numeric(batch)
            return
        self._lane = "columnar"
        if self._native_batch(batch):
            return
        self._process_batch(batch)

    def _native_batch(self, batch: list) -> bool:
        if self._native_greedy is None:
            return False
        tuples = self._tuples
        two_eps = 2 * self._eps
        result = native_gk_batch(
            [entry.value for entry in tuples],
            [entry.g for entry in tuples],
            [entry.delta for entry in tuples],
            batch,
            self._n,
            self._since_compress,
            self._max_item_count,
            self._compress_period,
            two_eps.numerator,
            two_eps.denominator,
            self._native_greedy,
        )
        if result is None:
            return False
        values, gs, deltas, self._n, self._since_compress, self._max_item_count = (
            result
        )
        self._tuples = [
            _Tuple(value, g, delta)
            for value, g, delta in zip(values, gs, deltas)
        ]
        return True

    def _demote_items(self) -> None:
        """Rebuild raw columnar keys as Items (exact rationals).

        Representation-only: g/delta/n/compress phase are untouched, so
        fingerprints and checkpoints are identical across the switch.
        """
        if self._lane == "items":
            return
        for entry in self._tuples:
            if not isinstance(entry.value, Item):
                entry.value = Item(Fraction(entry.value))
        self._lane = "items"

    def _promote_columnar(self, to_raw) -> bool:
        """Adopt raw keys via the converter :mod:`repro.model.lanes` passes in."""
        raws = [to_raw(entry.value) for entry in self._tuples]
        if any(raw is None for raw in raws):
            return False
        for entry, raw in zip(self._tuples, raws):
            entry.value = raw
        self._lane = "columnar"
        return True

    # -- queries -----------------------------------------------------------------

    def _query(self, phi: float) -> Item:
        target = max(1, min(self._n, int(exact_fraction(phi) * self._n)))
        allowed = self._eps * self._n
        rmin = 0
        best_item: Item | None = None
        best_excess = None
        for entry in self._tuples:
            rmin += entry.g
            rmax = rmin + entry.delta
            excess = max(target - rmin, rmax - target)
            if best_excess is None or excess < best_excess:
                best_excess = excess
                best_item = entry.value
            if target - rmin <= allowed and rmax - target <= allowed:
                return entry.value
        # The invariant guarantees the loop above returns; fall back to the
        # closest tuple for robustness (e.g. n == 1 edge cases).
        if best_item is None:
            raise EmptySummaryError("no tuples stored")
        return best_item

    def estimate_rank(self, item: Item) -> int:
        """Midpoint rank estimate for ``item``; error at most ``eps n``."""
        if self._n == 0:
            raise EmptySummaryError("cannot estimate rank on an empty summary")
        if self._lane != "items":
            # Rare uncompiled probe against columnar state (engine reads go
            # through the RankIndex, which handles raw keys natively).
            self._demote_items()
        rmin = 0
        # Walk tuples from the left; item lies between two adjacent tuples.
        for entry in self._tuples:
            if item < entry.value:
                # rank(item) lies in [rmin, rmin + g + delta - 1]; return the
                # midpoint, whose error is at most (g + delta)/2 <= eps n.
                lower = rmin
                upper = rmin + entry.g + entry.delta - 1
                return max(0, (lower + upper) // 2)
            rmin += entry.g
            if item == entry.value:
                return (2 * rmin + entry.delta) // 2
        return self._n

    # -- the model's memory ---------------------------------------------------------

    def item_array(self) -> list[Item]:
        return [entry.value for entry in self._tuples]

    def _item_count(self) -> int:
        return len(self._tuples)

    def fingerprint(self) -> tuple:
        state = tuple((entry.g, entry.delta) for entry in self._tuples)
        return (self.name, self._n, self._since_compress, state)


class GreenwaldKhanna(_GKBase):
    """GK with the band-based compress of [6] (the analysed variant)."""

    name = "gk"
    _native_greedy = False

    def _compress(self) -> None:
        threshold = self._threshold()
        if threshold < 1 or len(self._tuples) < 3:
            return
        tuples = self._tuples
        # Deltas cluster on a handful of distinct values (0 and the
        # thresholds at recent compress points), so memoise the band per
        # delta instead of re-deriving it for every tuple.
        band_of: dict[int, int] = {}
        bands = []
        for entry in tuples:
            delta = entry.delta
            band = band_of.get(delta)
            if band is None:
                band = band_of[delta] = _band(delta, threshold)
            bands.append(band)
        # Scan right to left; tuple 0 (the minimum) and the last tuple (the
        # maximum) are never deleted.
        i = len(tuples) - 2
        while i >= 1:
            band = bands[i]
            if band <= bands[i + 1]:
                # Gather t_i's descendants: the maximal run of tuples
                # immediately left of i with strictly smaller bands.
                start = i
                g_total = tuples[i].g
                while start - 1 >= 1 and bands[start - 1] < band:
                    start -= 1
                    g_total += tuples[start].g
                successor = tuples[i + 1]
                if g_total + successor.g + successor.delta < threshold:
                    successor.g += g_total
                    del tuples[start : i + 1]
                    del bands[start : i + 1]
                    i = start - 1
                    continue
            i -= 1


class GreenwaldKhannaGreedy(_GKBase):
    """GK with the simplified greedy merge (no bands).

    Merges ``t_i`` into ``t_{i+1}`` whenever
    ``g_i + g_{i+1} + Delta_{i+1} < floor(2 eps n)``, scanning right to left.
    Section 6 of the paper poses whether this variant is also
    O((1/eps) log(eps N)); experiment T1 measures it on the adversarial
    streams.
    """

    name = "gk-greedy"
    _native_greedy = True

    def _compress(self) -> None:
        threshold = self._threshold()
        if threshold < 1 or len(self._tuples) < 3:
            return
        i = len(self._tuples) - 2
        while i >= 1:
            entry = self._tuples[i]
            successor = self._tuples[i + 1]
            if entry.g + successor.g + successor.delta < threshold:
                successor.g += entry.g
                del self._tuples[i]
            i -= 1


# -- merging (the "mergeable summaries" of [2]) -------------------------------------


def _rank_bounds(summary: _GKBase) -> list[tuple[Item, int, int]]:
    """(value, rmin, rmax) per stored tuple."""
    bounds = []
    rmin = 0
    for entry in summary._tuples:
        rmin += entry.g
        bounds.append((entry.value, rmin, rmin + entry.delta))
    return bounds


def _merged_bounds(
    own: list[tuple[Item, int, int]],
    other: list[tuple[Item, int, int]],
    other_total: int,
) -> list[tuple[Item, int, int]]:
    """Rank bounds of ``own`` entries w.r.t. the union of both streams.

    For an entry with value v: its merged rmin adds the rmin of the largest
    ``other`` entry <= v (0 if none); its merged rmax adds the rmax of the
    smallest ``other`` entry >= v minus one (or the full other stream length
    when v exceeds everything there).
    """
    merged = []
    j = 0  # index of the first other-entry with value >= current value
    for value, rmin, rmax in own:
        while j < len(other) and other[j][0] < value:
            j += 1
        rmin_other = other[j - 1][1] if j > 0 else 0
        if j < len(other):
            rmax_other = other[j][2] - 1
        else:
            rmax_other = other_total
        merged.append((value, rmin + rmin_other, rmax + rmax_other))
    return merged


def merge_gk(first: _GKBase, second: _GKBase) -> _GKBase:
    """Merge two GK summaries into a new one over the concatenated stream.

    The result answers quantile queries over the union of the two input
    streams with rank error at most ``max(eps_1, eps_2) * (n_1 + n_2)``:
    merged rank bounds are exact sums of the inputs' bounds, so absolute
    uncertainties add and the *relative* guarantee is the larger input's.
    Both inputs are left intact.  The returned summary is of the same
    variant as ``first`` (band-based or greedy) and can keep processing new
    stream items at that epsilon — though the O((1/eps) log(eps N)) *space*
    analysis does not survive merging (one-way mergeability, [2]).
    """
    if not isinstance(second, _GKBase):
        raise TypeError(f"cannot merge GK with {type(second).__name__}")
    if first.lane != second.lane:
        # Mixed lanes cannot share one sorted entry list; demote the
        # columnar side (a representation-only rebuild, state unchanged).
        first._demote_items()
        second._demote_items()
    combined_eps = max(Fraction(first._eps), Fraction(second._eps))
    merged = type(first)(combined_eps)
    merged._lane = first.lane

    bounds_first = _rank_bounds(first)
    bounds_second = _rank_bounds(second)
    entries = _merged_bounds(bounds_first, bounds_second, second.n)
    entries += _merged_bounds(bounds_second, bounds_first, first.n)
    entries.sort(key=lambda entry: (entry[0], entry[1]))

    tuples: list[_Tuple] = []
    previous_rmin = 0
    for value, rmin, rmax in entries:
        g = rmin - previous_rmin
        if g <= 0:
            # Two entries resolved to the same lower rank (duplicate values
            # across inputs); keep the one already present, fold this one in.
            if tuples:
                tuples[-1].delta = max(tuples[-1].delta, rmax - previous_rmin)
                continue
            g = 1
        tuples.append(_Tuple(value, g, max(0, rmax - rmin)))
        previous_rmin = rmin
    merged._tuples = tuples
    merged._n = first.n + second.n
    merged._max_item_count = max(
        len(tuples), first.max_item_count, second.max_item_count
    )
    merged._compress()
    return merged


# -- compiled read path --------------------------------------------------------------


def compile_gk_index(summary: _GKBase) -> RankIndex:
    """Freeze GK tuple state into a :class:`RankIndex`.

    The tuples already carry g/Delta, so the prefix sums *are* the rmin/rmax
    arrays; the bounded selector with ``allowed = eps * n`` reproduces the
    sequential ``_query`` scan and the ``"mid"`` rank rule reproduces
    ``estimate_rank`` bit for bit.
    """
    items: list[Item] = []
    rmin: list[int] = []
    rmax: list[int] = []
    cumulative = 0
    for entry in summary._tuples:
        cumulative += entry.g
        items.append(entry.value)
        rmin.append(cumulative)
        rmax.append(cumulative + entry.delta)
    return build_index(
        items=items,
        rmin=rmin,
        rmax=rmax,
        n=summary.n,
        q_round="floor",
        q_select="bounded",
        rank_rule="mid",
        eps=summary._eps,
    )


# -- persistence codec ---------------------------------------------------------------


def encode_gk_state(summary) -> dict:
    """Encode GK-shaped tuple state (also used by the biased summary)."""
    return {
        "tuples": [
            [encode_key(entry.value), entry.g, entry.delta]
            for entry in summary._tuples
        ],
        "since_compress": summary._since_compress,
        "compress_period": summary._compress_period,
    }


def decode_gk_state_into(
    summary, payload: dict, universe: Universe, tuple_cls=_Tuple
) -> None:
    """Restore GK-shaped tuple state dumped by :func:`encode_gk_state`."""
    summary._tuples = [
        tuple_cls(universe.item(decode_key(key)), int(g), int(delta))
        for key, g, delta in payload["tuples"]
    ]
    summary._since_compress = int(payload["since_compress"])
    summary._compress_period = int(payload["compress_period"])


# -- int64 column form (worker -> coordinator shipping) -------------------------------

#: The GK variants with a column form, by summary name.
_COLUMN_TYPES = {
    cls.name: cls for cls in (GreenwaldKhanna, GreenwaldKhannaGreedy)
}


def encode_gk_columns(summary) -> tuple | None:
    """Columnar GK state as int64 column buffers, or None when it has none.

    Layout: ``(name, eps_numerator, eps_denominator, n, since_compress,
    max_item_count, compress_period, values, gs, deltas)``, the last three
    being ``array('q')`` buffers holding each tuple's key, g and Delta in
    stored order.  Only ``gk``/``gk-greedy`` summaries on the columnar lane
    whose every key is a plain int inside int64 qualify; the items lane and
    float or wider keys return None (ship them through
    :mod:`repro.persistence`).  Unlike the persistence payload, the exact
    epsilon and every key survive as ints, so decoding builds no Fraction.
    """
    if type(summary) is not _COLUMN_TYPES.get(summary.name) or summary.lane != "columnar":
        return None
    tuples = summary._tuples
    keys = [entry.value for entry in tuples]
    if any(type(key) is not int for key in keys):
        return None
    try:
        values = array("q", keys)
        gs = array("q", [entry.g for entry in tuples])
        deltas = array("q", [entry.delta for entry in tuples])
    except OverflowError:
        return None
    eps = summary._eps
    return (
        summary.name,
        eps.numerator,
        eps.denominator,
        summary._n,
        summary._since_compress,
        summary._max_item_count,
        summary._compress_period,
        values,
        gs,
        deltas,
    )


def decode_gk_columns(columns: tuple) -> _GKBase:
    """Rebuild the columnar summary :func:`encode_gk_columns` shipped."""
    name, eps_numerator, eps_denominator, n, since, peak, period, values, gs, deltas = (
        columns
    )
    summary = _COLUMN_TYPES[name](
        Fraction(eps_numerator, eps_denominator), compress_period=period
    )
    summary._tuples = [
        _Tuple(value, g, delta)
        for value, g, delta in zip(values.tolist(), gs.tolist(), deltas.tolist())
    ]
    summary._n = n
    summary._since_compress = since
    summary._max_item_count = peak
    summary._lane = "columnar"
    return summary


def _decode_gk(payload: dict, universe: Universe) -> GreenwaldKhanna:
    summary = GreenwaldKhanna(epsilon_of(payload))
    decode_gk_state_into(summary, payload, universe)
    return summary


def _decode_gk_greedy(payload: dict, universe: Universe) -> GreenwaldKhannaGreedy:
    summary = GreenwaldKhannaGreedy(epsilon_of(payload))
    decode_gk_state_into(summary, payload, universe)
    return summary


register_descriptor(
    "gk",
    GreenwaldKhanna,
    merge=merge_gk,
    encode=encode_gk_state,
    decode=_decode_gk,
    compile_index=compile_gk_index,
)
register_descriptor(
    "gk-greedy",
    GreenwaldKhannaGreedy,
    merge=merge_gk,
    encode=encode_gk_state,
    decode=_decode_gk_greedy,
    compile_index=compile_gk_index,
)
