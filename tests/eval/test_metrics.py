"""Unit tests for util.mathx and the experiments' cost-ratio helper."""

import pytest

from repro.eval.experiments import _norm_ratio
from repro.util.mathx import (
    geometric_mean,
    percent_improvement,
    safe_div,
)


class TestMathx:
    def test_safe_div(self):
        assert safe_div(10, 2) == 5
        assert safe_div(10, 0, default=7.5) == 7.5

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([3]) == pytest.approx(3.0)

    def test_geometric_mean_clamps_zeros(self):
        assert geometric_mean([0.0, 4.0]) > 0

    def test_geometric_mean_validation(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([-1.0])

    def test_percent_improvement(self):
        assert percent_improvement(100, 50) == 50.0
        assert percent_improvement(0, 10) == 0.0


class TestNormRatio:
    def test_ratio(self):
        assert _norm_ratio(40, 10) == 4.0

    def test_degenerate(self):
        assert _norm_ratio(0, 0) == 1.0  # 0/0 counts as parity
        assert _norm_ratio(5, 0) == 5.0
