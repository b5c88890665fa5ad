"""The per-type merge registry in repro.model.registry."""

import pytest

from repro.errors import UnsupportedMergeError
from repro.model.registry import (
    available_summaries,
    create_summary,
    get_descriptor,
    has_merge,
    merge_summaries,
    mergeable_summaries,
    register_descriptor,
)
from repro.summaries.gk import GreenwaldKhanna
from repro.universe.item import key_of
from repro.universe.universe import Universe

MERGEABLE = ("exact", "gk", "gk-greedy", "kll", "mrl", "req")


def _filled(name, values, epsilon=1 / 8):
    universe = Universe()
    kwargs = {"seed": 7} if name in ("kll", "req") else {}
    if name == "mrl":
        kwargs["n_hint"] = len(values)
    summary = create_summary(name, epsilon, **kwargs)
    summary.process_all(universe.items(values))
    return summary


class TestRegistry:
    def test_expected_types_are_mergeable(self):
        assert mergeable_summaries() == sorted(MERGEABLE)
        for name in MERGEABLE:
            assert has_merge(name)

    def test_unmergeable_types_report_false(self):
        for name in set(available_summaries()) - set(MERGEABLE):
            assert not has_merge(name)

    def test_reregistration_must_be_identical(self):
        gk = get_descriptor("gk")
        fields = dict(
            cls=gk.cls,
            merge=gk.merge,
            encode=gk.encode,
            decode=gk.decode,
            payload_type=gk.payload_type,
            has_batch_kernel=gk.has_batch_kernel,
            compile_index=gk.compile_index,
        )
        register_descriptor("gk", gk.factory, **fields)  # identical: fine
        assert get_descriptor("gk") == gk
        with pytest.raises(ValueError):
            register_descriptor("gk", lambda eps: GreenwaldKhanna(eps), **fields)
        assert get_descriptor("gk") == gk


class TestMergeSummaries:
    @pytest.mark.parametrize("name", MERGEABLE)
    def test_merged_counts_and_inputs_untouched(self, name):
        first = _filled(name, range(0, 100))
        second = _filled(name, range(100, 160))
        merged = merge_summaries(first, second)
        assert merged.n == 160
        assert first.n == 100
        assert second.n == 60

    @pytest.mark.parametrize("name", MERGEABLE)
    def test_merged_median_is_reasonable(self, name):
        first = _filled(name, range(0, 100))
        second = _filled(name, range(100, 200))
        merged = merge_summaries(first, second)
        answer = key_of(merged.query(0.5))
        # merged guarantee is at worst the max input epsilon (1/8) on n=200
        assert abs(int(answer) - 100) <= 2 * (200 / 8) + 1

    def test_gk_variants_cross_merge(self):
        first = _filled("gk", range(0, 50))
        second = _filled("gk-greedy", range(50, 100))
        merged = merge_summaries(first, second)
        assert merged.n == 100

    def test_unregistered_type_raises(self):
        summary = _filled("gk", range(10))
        other = create_summary("qdigest", 1 / 4, universe_bits=8)
        with pytest.raises(UnsupportedMergeError, match="qdigest"):
            merge_summaries(other, other)
        # the error names what *is* mergeable
        with pytest.raises(UnsupportedMergeError, match="mergeable types"):
            merge_summaries(other, summary)

    def test_mixed_types_raise(self):
        kll = _filled("kll", range(50))
        gk = _filled("gk", range(50))
        with pytest.raises(UnsupportedMergeError):
            merge_summaries(kll, gk)

    def test_object_without_name_raises(self):
        class Anonymous:
            pass

        with pytest.raises(UnsupportedMergeError):
            merge_summaries(Anonymous(), Anonymous())

    def test_gk_merge_is_nonmutating_gk_path(self):
        first = _filled("gk", range(100))
        before = [key_of(item) for item in first.item_array()]
        merge_summaries(first, _filled("gk", range(100, 200)))
        assert [key_of(item) for item in first.item_array()] == before
        assert isinstance(first, GreenwaldKhanna)
