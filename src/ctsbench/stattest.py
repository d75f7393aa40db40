"""Rank-based multi-method comparison.

Friedman's chi-square test over per-dataset ranks, followed (on rejection)
by the Conover-Friedman post-hoc procedure with a t-distributed critical
difference, per Conover, Practical Nonparametric Statistics (1999).
Ties take mid-ranks; no tie correction enters the chi-square statistic,
which is harmless for the continuous scores ranked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import chi_sq_cdf, student_t_quantile

__all__ = [
    "RankTable",
    "FriedmanResult",
    "PosthocResult",
    "rank_scores",
    "friedman_test",
    "conover_posthoc",
]

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RankTable:
    """Per-dataset ranks of k methods over N datasets (lower score = better)."""

    scores: np.ndarray
    ranks: np.ndarray
    rank_sums: np.ndarray
    avg_ranks: np.ndarray
    n: int
    k: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankTable):
            return NotImplemented
        return np.array_equal(self.scores, other.scores) and np.array_equal(
            self.ranks, other.ranks
        )


def _midranks(row: np.ndarray) -> np.ndarray:
    order = np.argsort(row, kind="stable")
    ranks = np.empty(len(row))
    i = 0
    while i < len(row):
        j = i
        while j + 1 < len(row) and row[order[j + 1]] == row[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_scores(scores) -> RankTable:
    """Rank methods within each dataset row, averaging tied positions."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("scores must be an N x k matrix")
    n, k = arr.shape
    if n < 2 or k < 2:
        raise ValueError(f"need N >= 2 datasets and k >= 2 methods, got {n} x {k}")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"non-finite score at dataset {i}, method {j}")
    ranks = np.vstack([_midranks(arr[i]) for i in range(n)])
    sums = ranks.sum(axis=0)
    return RankTable(
        scores=arr, ranks=ranks, rank_sums=sums, avg_ranks=sums / n, n=n, k=k
    )


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    df: int
    p_value: float


def friedman_test(table: RankTable) -> FriedmanResult:
    """Friedman chi-square test of equal method performance.

    chi2 = 12 / (N k (k+1)) * sum_j R_j^2 - 3 N (k+1), df = k - 1.
    """
    n, k = table.n, table.k
    stat = 12.0 / (n * k * (k + 1)) * float(np.sum(table.rank_sums**2)) - 3.0 * n * (k + 1)
    stat = max(stat, 0.0)
    p = 1.0 - chi_sq_cdf(stat, k - 1)
    return FriedmanResult(statistic=stat, df=k - 1, p_value=min(max(p, 0.0), 1.0))


@dataclass(frozen=True, eq=False)
class PosthocResult:
    """Pairwise Conover-Friedman comparison at a single critical difference.

    significant is a symmetric k x k boolean matrix over the original
    method columns; order lists columns by ascending average rank; cliques
    are maximal runs of that ordering whose pairwise rank-sum gaps stay
    within cd (singletons included, so every method belongs to one).
    """

    significant: np.ndarray
    cd: float
    order: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PosthocResult):
            return NotImplemented
        return (
            np.array_equal(self.significant, other.significant)
            and self.cd == other.cd
            and self.order == other.order
            and self.cliques == other.cliques
        )


def conover_posthoc(table: RankTable, alpha: float = 0.05) -> PosthocResult:
    """Pairwise comparisons after a Friedman rejection.

    Methods i, j differ when |R_i - R_j| > CD with
    CD = t_{1-alpha/2, (N-1)(k-1)} * sqrt(2 N (A - B) / ((N-1)(k-1))),
    A = sum of squared ranks, B = sum of squared rank sums / N. When the
    rank variance collapses (A == B, every row ranked identically) the CD
    degenerates to 0 and any rank-sum difference counts as significant.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n, k = table.n, table.k
    sums = table.rank_sums
    a = float(np.sum(table.ranks**2))
    b = float(np.sum(sums**2)) / n
    df = (n - 1) * (k - 1)
    spread = a - b
    if spread <= _DEGENERATE_TOL * max(1.0, a):
        cd = 0.0
    else:
        cd = student_t_quantile(1.0 - alpha / 2.0, df) * math.sqrt(2.0 * n * spread / df)
    gaps = np.abs(sums[:, None] - sums[None, :])
    significant = gaps > cd
    np.fill_diagonal(significant, False)

    order = tuple(int(i) for i in np.argsort(table.avg_ranks, kind="stable"))
    ordered_sums = sums[list(order)]
    runs: list[tuple[int, int]] = []
    for i in range(k):
        j = i
        while j + 1 < k and ordered_sums[j + 1] - ordered_sums[i] <= cd:
            j += 1
        runs.append((i, j))
    maximal = [
        (i, j)
        for (i, j) in runs
        if not any((p <= i and j <= q and (p, q) != (i, j)) for (p, q) in runs)
    ]
    cliques = tuple(tuple(order[i : j + 1]) for i, j in sorted(set(maximal)))
    return PosthocResult(significant=significant, cd=cd, order=order, cliques=cliques)
