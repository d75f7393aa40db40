"""Interval quality metrics and their two-stage aggregation.

Per-series values are means over forecast horizons; cohort values are
unweighted means over series. `score_stack` scores all of one method's
series in one pass over (series, cell) bound stacks, with the one Winkler
rule, `_winkler_cells` (`winkler` is its one-cell case); `score_records`
and `series_metrics` stack IntervalMatrix objects for it. Cells with infinite
width are excluded from width and Winkler means and surfaced through an
explicit counter instead of propagating +inf into the averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .conformal import IntervalMatrix


def _shaped_truth(intervals: IntervalMatrix, truth) -> np.ndarray:
    arr = np.asarray(truth, dtype=np.float64)
    # One trajectory's truth may come 1-D: it broadcasts against (1, H) bounds.
    if arr.shape != intervals.shape and not (arr.ndim == 1 and intervals.shape == (1, len(arr))):
        raise ValueError(f"truth shape {arr.shape} does not match intervals {intervals.shape}")
    return arr


def _check_finite_truth(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError("truth values must be finite")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _winkler_cells(lo: np.ndarray, hi: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    out = hi - lo
    out = out + (2.0 / alpha) * np.where(y < lo, lo - y, 0.0)
    out = out + (2.0 / alpha) * np.where(y > hi, y - hi, 0.0)
    return out


def coverage_mask(intervals: IntervalMatrix, truth) -> np.ndarray:
    """Boolean cell mask: truth inside the closed interval."""
    arr = _shaped_truth(intervals, truth)
    _check_finite_truth(arr)
    return (intervals.lower <= arr) & (arr <= intervals.upper)


def marginal_coverage(intervals: IntervalMatrix, truth) -> float:
    """Fraction of cells whose closed interval contains the truth."""
    return float(coverage_mask(intervals, truth).mean())


def joint_coverage(intervals: IntervalMatrix, truth) -> int:
    """1 iff every cell of the trajectory is covered."""
    return int(bool(coverage_mask(intervals, truth).all()))


def winkler(interval: tuple[float, float], y: float, alpha: float) -> float:
    """Winkler interval score (`_winkler_cells` of one cell): width plus a 2/alpha-scaled breach penalty."""
    lo, hi = float(interval[0]), float(interval[1])
    if lo > hi:
        raise ValueError(f"invalid interval: lower {lo} > upper {hi}")
    _check_alpha(alpha)
    return float(_winkler_cells(lo, hi, y, alpha))


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


def score_records(
    method: str,
    intervals: Mapping[str, IntervalMatrix],
    truths: Sequence,
    alpha: float,
) -> list[MetricRecord]:
    """Horizon-averaged metrics of one method, one record per series.

    intervals maps series id to IntervalMatrix and truths holds each
    series' realised values in the same order; records come back in that
    order. Records of equal shape are stacked and scored together (`score_stack`).
    """
    ids, mats = list(intervals), list(intervals.values())
    if len(truths) != len(mats):
        raise ValueError(f"{len(truths)} truths for {len(mats)} interval matrices")
    _check_alpha(alpha)
    # Shaped in record order, so that the first mismatched truth raises.
    shaped = [_shaped_truth(iv, truth).reshape(-1) for iv, truth in zip(mats, truths)]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, iv in enumerate(mats):
        groups.setdefault(iv.shape, []).append(i)
    records: dict[int, MetricRecord] = {}
    for rows in groups.values():
        lo = np.stack([mats[i].lower for i in rows]).reshape(len(rows), -1)
        hi = np.stack([mats[i].upper for i in rows]).reshape(len(rows), -1)
        y = np.stack([shaped[i] for i in rows])
        records.update(zip(rows, score_stack(method, [ids[i] for i in rows], lo, hi, y, alpha)))
    return [records[i] for i in range(len(mats))]


def score_stack(
    method: str, ids: Sequence[str], lower: np.ndarray, upper: np.ndarray, truth: np.ndarray, alpha: float
) -> list[MetricRecord]:
    """Horizon-averaged metrics of one method, one record per row of
    (S, cells) stacks of valid bounds and their truths, by one set of array
    operations. infinite_cells counts the cells of infinite width, which
    the width and Winkler means leave out."""
    _check_alpha(alpha)
    _check_finite_truth(truth)
    covered = (lower <= truth) & (truth <= upper)
    widths = upper - lower
    scores = _winkler_cells(lower, upper, truth, alpha)
    finite = np.isfinite(widths)
    mean_width = widths.mean(axis=1).tolist()
    mean_winkler = scores.mean(axis=1).tolist()
    # A row mean over axis 1 sums in the order a lone row's mean does.
    # Zero-filling the infinite cells would change that order, so a row
    # holding any averages its finite cells on their own. An all-infinite
    # row gets the math.nan object itself, so that records compare equal.
    for k in np.flatnonzero(~finite.all(axis=1)).tolist():
        keep = finite[k]
        mean_width[k] = float(widths[k][keep].mean()) if keep.any() else math.nan
        mean_winkler[k] = float(scores[k][keep].mean()) if keep.any() else math.nan
    columns = zip(
        ids, covered.mean(axis=1).tolist(), mean_width, mean_winkler, covered.all(axis=1).tolist(),
        (~finite).sum(axis=1).tolist(),
    )
    return [
        MetricRecord(sid, method, cov, width, score, int(joint), n_inf, truth.shape[1])
        for sid, cov, width, score, joint, n_inf in columns
    ]


def series_metrics(
    series_id: str,
    method: str,
    intervals: IntervalMatrix,
    truth,
    alpha: float,
) -> MetricRecord:
    """Horizon-averaged metrics for one series and method: the one-record
    case of `score_records`."""
    return score_records(method, {series_id: intervals}, [truth], alpha)[0]


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
