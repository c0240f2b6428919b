"""Unit tests for the method-of-logical-effort sizing."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits.logical_effort import (
    le_nand,
    optimal_stages,
    size_path,
)


class TestLogicalEfforts:
    def test_nand_efforts(self):
        assert le_nand(2) == pytest.approx(4 / 3)
        assert le_nand(3) == pytest.approx(5 / 3)


class TestOptimalStages:
    def test_small_efforts_one_stage(self):
        assert optimal_stages(1.0) == 1
        assert optimal_stages(0.5) == 1

    def test_effort_four_one_stage(self):
        assert optimal_stages(4.0) == 1

    def test_effort_grows_logarithmically(self):
        assert optimal_stages(64.0) == 3
        assert optimal_stages(4.0**5) == 5


class TestSizePath:
    def test_endpoint_caps(self):
        path = size_path(100e-15, 1e-15, logical_efforts=(1.0,))
        # First stage input cap equals roughly the path input spec.
        assert path.input_caps[0] >= 0.9e-15
        assert path.input_caps[-1] < 100e-15

    def test_caps_monotonically_increase(self):
        path = size_path(1e-12, 1e-15, logical_efforts=(1.0,))
        caps = path.input_caps
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_includes_requested_gates(self):
        path = size_path(1e-13, 1e-15, logical_efforts=(le_nand(3), le_nand(2)))
        assert path.num_stages >= 2

    def test_invalid_caps_raise(self):
        with pytest.raises(ValueError):
            size_path(0.0, 1e-15, logical_efforts=())
        with pytest.raises(ValueError):
            size_path(1e-13, -1e-15, logical_efforts=())

    @given(
        c_load=st.floats(min_value=1e-15, max_value=1e-11),
        c_in=st.floats(min_value=1e-16, max_value=1e-14),
    )
    def test_stage_effort_bounded(self, c_load, c_in):
        """Per-stage effort stays within a sane band around 4."""
        path = size_path(c_load, c_in, logical_efforts=(1.0,))
        if path.path_effort > 1.5:
            assert 1.0 < path.stage_effort < 10.0

    @given(st.floats(min_value=1e-14, max_value=1e-11))
    def test_path_effort_conserved(self, c_load):
        c_in = 1e-15
        path = size_path(c_load, c_in, logical_efforts=(1.0,))
        expected = max(c_load / c_in, 1.0)
        assert path.path_effort == pytest.approx(expected, rel=0.01)
