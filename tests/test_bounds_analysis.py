"""Tests for the bound formulas and the analysis harness helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import Aggregate, aggregate_rows, format_value, render_table
from repro.wcds import bounds


class TestBoundConstants:
    def test_algorithm1_ratio(self):
        assert bounds.ALGORITHM1_RATIO == 5
        assert bounds.algorithm1_size_bound(3) == 15

    def test_algorithm2_constants_derive_from_packing(self):
        assert bounds.ALGORITHM2_MIS_MULTIPLIER == 48
        assert bounds.ALGORITHM2_RATIO == 240
        assert bounds.algorithm2_size_bound_from_mis(10) == 480
        assert bounds.algorithm2_size_bound(2) == 480

    def test_dilation_constants(self):
        assert bounds.topological_dilation_bound(4) == 14
        assert bounds.geometric_dilation_bound(2.0) == pytest.approx(17.0)

    def test_edge_bounds(self):
        assert bounds.algorithm1_edge_bound(10) == 50
        assert bounds.algorithm2_edge_bound(10, 4) == 90 + 188

    def test_lemma6_formula(self):
        # alpha=3, beta=2 reproduces the 6l+5 geometric bound.
        assert bounds.lemma6_length_bound(3, 2, 1.0) == pytest.approx(
            bounds.geometric_dilation_bound(1.0)
        )

    @given(st.integers(min_value=1, max_value=1000))
    def test_bounds_are_monotone(self, h):
        assert bounds.topological_dilation_bound(h + 1) > (
            bounds.topological_dilation_bound(h)
        )


class TestAggregate:
    def test_of_values(self):
        agg = Aggregate.of([1, 2, 3, 4])
        assert agg.mean == pytest.approx(2.5)
        assert agg.minimum == 1 and agg.maximum == 4
        assert agg.count == 4

    def test_single_value_has_zero_std(self):
        assert Aggregate.of([7]).std == 0.0

    def test_std_is_sample_estimator(self):
        # Trials are a sample of seeds, not the population: Bessel's
        # correction applies (stdev, not pstdev).
        import statistics

        values = [1.0, 2.0, 3.0, 4.0]
        agg = Aggregate.of(values)
        assert agg.std == pytest.approx(statistics.stdev(values))
        assert agg.std != pytest.approx(statistics.pstdev(values))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Aggregate.of([])

    def test_aggregate_rows_folds_each_key(self):
        rows = [{"x": seed, "y": 2 * seed} for seed in (1, 2, 3)]
        result = aggregate_rows(rows)
        assert list(result) == ["x", "y"]
        assert result["x"] == Aggregate.of([1.0, 2.0, 3.0])
        assert result["y"].maximum == 6
        assert result["y"].count == 3

    def test_aggregate_rows_counts_keys_where_they_appear(self):
        result = aggregate_rows([{"x": 1}, {"x": 3, "z": 5}])
        assert result["x"].count == 2 and result["x"].mean == 2.0
        assert result["z"] == Aggregate.of([5.0])
        assert aggregate_rows([]) == {}


class TestTables:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(1.23456) == "1.235"
        assert format_value("abc") == "abc"
        assert format_value(7) == "7"

    def test_render_table_alignment(self):
        text = render_table(
            [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], title="demo"
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1].startswith("a")
        assert "22" in lines[4]

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="t")

    def test_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]
