"""QuantileSummary ABC: bookkeeping, validation, registry."""

import pytest

from repro.errors import EmptySummaryError, InvalidQuantileError
from repro.model import (
    MemoryState,
    QuantileSummary,
    available_summaries,
    create_summary,
    equivalent,
)
from repro.model.registry import register_descriptor
from repro.universe.item import Item


class KeepAll(QuantileSummary):
    """Trivial summary used to exercise the ABC plumbing."""

    name = "keep-all-test"

    def __init__(self, epsilon: float = 0.1) -> None:
        super().__init__(epsilon)
        self._items: list[Item] = []

    def _insert(self, item: Item) -> None:
        self._items.append(item)
        self._items.sort()

    def _query(self, phi: float) -> Item:
        index = min(len(self._items) - 1, int(phi * len(self._items)))
        return self._items[index]

    def item_array(self) -> list[Item]:
        return list(self._items)

    def fingerprint(self) -> tuple:
        return (self.name, self._n)


class TestValidation:
    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            KeepAll(epsilon=0)
        with pytest.raises(ValueError):
            KeepAll(epsilon=1)
        with pytest.raises(ValueError):
            KeepAll(epsilon=-0.5)

    def test_query_phi_out_of_range(self, universe):
        summary = KeepAll()
        summary.process(universe.item(1))
        with pytest.raises(InvalidQuantileError):
            summary.query(-0.1)
        with pytest.raises(InvalidQuantileError):
            summary.query(1.1)

    def test_query_empty_summary(self):
        with pytest.raises(EmptySummaryError):
            KeepAll().query(0.5)

    def test_estimate_rank_default_not_supported(self, universe):
        summary = KeepAll()
        summary.process(universe.item(1))
        with pytest.raises(NotImplementedError):
            summary.estimate_rank(universe.item(1))


class TestBookkeeping:
    def test_n_counts_processed_items(self, universe):
        summary = KeepAll()
        summary.process_all(universe.items(range(5)))
        assert summary.n == 5

    def test_max_item_count_tracks_peak(self, universe):
        summary = KeepAll()
        summary.process_all(universe.items(range(7)))
        assert summary.max_item_count == 7

    def test_repr_mentions_size(self, universe):
        summary = KeepAll()
        summary.process(universe.item(1))
        assert "stored=1" in repr(summary)


class TestMemoryState:
    def test_capture(self, universe):
        summary = KeepAll()
        summary.process_all(universe.items([2, 1]))
        state = MemoryState.capture(summary)
        assert state.item_count == 2
        assert state.fingerprint == ("keep-all-test", 2)

    def test_equivalence_requires_both_parts(self, universe):
        a, b = KeepAll(), KeepAll()
        a.process_all(universe.items([1, 2]))
        b.process_all(universe.items([10, 20]))
        # Same sizes and fingerprints although items differ: equivalent.
        assert equivalent(MemoryState.capture(a), MemoryState.capture(b))

    def test_inequivalent_on_size(self, universe):
        a, b = KeepAll(), KeepAll()
        a.process_all(universe.items([1, 2]))
        b.process(universe.item(1))
        assert not equivalent(MemoryState.capture(a), MemoryState.capture(b))

    def test_inequivalent_on_fingerprint(self, universe):
        a, b = KeepAll(), KeepAll()
        a.process_all(universe.items([1, 2]))
        b.process_all(universe.items([1, 2]))
        b_state = MemoryState.capture(b)
        forged = MemoryState(items=b_state.items, fingerprint=("other", 2))
        assert not equivalent(MemoryState.capture(a), forged)


class TestRegistry:
    def test_known_summaries_registered(self):
        names = available_summaries()
        for expected in ["gk", "gk-greedy", "kll", "mrl", "exact", "capped"]:
            assert expected in names

    def test_create_by_name(self):
        summary = create_summary("gk", epsilon=0.1)
        assert summary.name == "gk"
        assert summary.epsilon == 0.1

    def test_create_with_kwargs(self):
        summary = create_summary("capped", epsilon=0.1, budget=5)
        assert summary.budget == 5

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown summary"):
            create_summary("nope", epsilon=0.1)

    def test_duplicate_registration_rejected(self):
        register_descriptor("keep-all-test-unique", KeepAll)
        with pytest.raises(ValueError):
            register_descriptor("keep-all-test-unique", lambda eps: KeepAll(eps))

    def test_idempotent_reregistration_allowed(self):
        register_descriptor("keep-all-test-idem", KeepAll)
        register_descriptor("keep-all-test-idem", KeepAll)
