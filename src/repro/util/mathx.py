"""Numeric helpers shared by the evaluation harness and benchmarks."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def safe_div(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Divide, returning ``default`` when the denominator is zero."""
    if denominator == 0:
        return default
    return numerator / denominator


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; zeros are clamped to a tiny epsilon.

    The paper reports shift improvements as geometric means over all
    benchmarks (Sec. IV-B). Traces with zero shifts (single-variable
    sequences) would zero out the product, so they are clamped rather than
    dropped; this matches how normalized-to-best ratios are customarily
    aggregated.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr < 0):
        raise ValueError("geometric_mean requires non-negative values")
    clamped = np.maximum(arr, 1e-12)
    return float(np.exp(np.mean(np.log(clamped))))


def percent_improvement(baseline: float, improved: float) -> float:
    """Relative reduction in percent, as quoted in Sec. IV-C (e.g. 50.3%)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline
