"""Interval quality metrics and their two-stage aggregation.

Per-series values are means over forecast horizons; cohort values are
unweighted means over series. Cells with infinite width are excluded from
width and Winkler means and surfaced through an explicit counter instead
of propagating +inf into the averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import IntervalMatrix


def _aligned_truth(intervals: IntervalMatrix, truth) -> np.ndarray:
    arr = np.asarray(truth, dtype=np.float64)
    # One trajectory's truth may come 1-D: it broadcasts against (1, H) bounds.
    if arr.shape != intervals.shape and not (arr.ndim == 1 and intervals.shape == (1, len(arr))):
        raise ValueError(f"truth shape {arr.shape} does not match intervals {intervals.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("truth values must be finite")
    return arr


def coverage_mask(intervals: IntervalMatrix, truth) -> np.ndarray:
    """Boolean cell mask: truth inside the closed interval."""
    arr = _aligned_truth(intervals, truth)
    return (intervals.lower <= arr) & (arr <= intervals.upper)


def marginal_coverage(intervals: IntervalMatrix, truth) -> float:
    """Fraction of cells whose closed interval contains the truth."""
    return float(coverage_mask(intervals, truth).mean())


def joint_coverage(intervals: IntervalMatrix, truth) -> int:
    """1 iff every cell of the trajectory is covered."""
    return int(bool(coverage_mask(intervals, truth).all()))


def winkler(interval: tuple[float, float], y: float, alpha: float) -> float:
    """Winkler interval score: width plus a 2/alpha-scaled breach penalty."""
    lo, hi = float(interval[0]), float(interval[1])
    if lo > hi:
        raise ValueError(f"invalid interval: lower {lo} > upper {hi}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    score = hi - lo
    if y < lo:
        score += (2.0 / alpha) * (lo - y)
    elif y > hi:
        score += (2.0 / alpha) * (y - hi)
    return score


def winkler_matrix(intervals: IntervalMatrix, truth, alpha: float) -> np.ndarray:
    """Cell-wise Winkler scores."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    arr = _aligned_truth(intervals, truth)
    lo, hi = intervals.lower, intervals.upper
    out = hi - lo
    out = out + (2.0 / alpha) * np.where(arr < lo, lo - arr, 0.0)
    out = out + (2.0 / alpha) * np.where(arr > hi, arr - hi, 0.0)
    return out


@dataclass(frozen=True)
class MetricRecord:
    """Per-(series, method) metric row.

    mean_width and winkler are NaN when every cell was infinite; the
    infinite_cells counter keeps that degeneracy visible.
    """

    series_id: str
    method: str
    marginal_coverage: float
    mean_width: float
    winkler: float
    joint_coverage: int
    infinite_cells: int
    n_cells: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.marginal_coverage <= 1.0:
            raise ValueError(f"coverage outside [0, 1]: {self.marginal_coverage}")
        if self.joint_coverage not in (0, 1):
            raise ValueError(f"joint_coverage must be 0 or 1, got {self.joint_coverage}")


def series_metrics(
    series_id: str,
    method: str,
    intervals: IntervalMatrix,
    truth,
    alpha: float,
) -> MetricRecord:
    """Horizon-averaged metrics for one series and method."""
    covered = coverage_mask(intervals, truth)
    widths = intervals.width
    finite = np.isfinite(widths)
    scores = winkler_matrix(intervals, truth, alpha)
    n_inf = int((~finite).sum())
    mean_width = float(widths[finite].mean()) if finite.any() else math.nan
    mean_winkler = float(scores[finite].mean()) if finite.any() else math.nan
    return MetricRecord(
        series_id=series_id,
        method=method,
        marginal_coverage=float(covered.mean()),
        mean_width=mean_width,
        winkler=mean_winkler,
        joint_coverage=int(bool(covered.all())),
        infinite_cells=n_inf,
        n_cells=int(widths.size),
    )


@dataclass(frozen=True)
class MethodSummary:
    """Cohort-level means for one method."""

    method: str
    n_series: int
    coverage: float
    width: float
    winkler: float
    joint_coverage: float
    infinite_cells: int


def aggregate(records: Sequence[MetricRecord]) -> dict[str, MethodSummary]:
    """Unweighted cohort means per method.

    Series whose width or Winkler collapsed to NaN (all cells infinite)
    are left out of those two means but still count toward coverage.
    """
    if not records:
        raise ValueError("aggregate requires at least one record")
    by_method: dict[str, list[MetricRecord]] = {}
    for rec in records:
        by_method.setdefault(rec.method, []).append(rec)
    out = {}
    for method in sorted(by_method):
        recs = by_method[method]
        widths = [r.mean_width for r in recs if math.isfinite(r.mean_width)]
        winklers = [r.winkler for r in recs if math.isfinite(r.winkler)]
        out[method] = MethodSummary(
            method=method,
            n_series=len(recs),
            coverage=float(np.mean([r.marginal_coverage for r in recs])),
            width=float(np.mean(widths)) if widths else math.nan,
            winkler=float(np.mean(winklers)) if winklers else math.nan,
            joint_coverage=float(np.mean([r.joint_coverage for r in recs])),
            infinite_cells=sum(r.infinite_cells for r in recs),
        )
    return out
