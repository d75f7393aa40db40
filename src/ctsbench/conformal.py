"""Batch conformal interval constructions for multi-horizon forecasts.

Per-horizon split conformal on a residual matrix, bootstrap-ensemble
intervals with a sliding residual window (Xu & Xie's EnbPI), sequential
quantile-regression intervals on signed residuals (Xu & Xie's SPCI, with an
exact linear quantile regression standing in for the quantile forest),
cross-series pooled intervals with a Bonferroni budget, a cross-validation
residual baseline, and Gaussian intervals from a fitted autoregression.

Each kind of calibration is written once. `_conformal_radii`, the one
radius rule, takes the finite-sample conformal quantile of every column of
a NaN-padded score matrix, at one level or at one level per column: for
split conformal, the pooled cohort, EnbPI's windows and ACI, whose levels
adapt per series (`online._aci_radii`); `conformal_quantile` is its
validated one-column case. `_signed_residuals`, the one residual rule,
gives the signed residuals of a stack of series' forecasts from shared
origins, and rejects a forecast that is not finite where its truth exists:
`_origin_residuals` makes them from `forecaster._prefix_forecasts` for
`build_residual_matrix` and the cross-validation backtest, and bench's
prefix table from the same call on the union of every prefix end a block
of heads needs: each head's end, its calibration origins and the cutoffs
of `_backtest_cutoffs`.
`_spci_pairs`, the one SPCI fit, picks the quantile pair of every residual
history of a ragged stack with one solver call.

Every construction over many series is one array rule, which bench runs
on its prefix table's stacks: `_spci_bounds` (an (S, R, H) signed stack,
the histories of all its horizons fitted together), `_parametric_bounds`
(one stacked psi-weight recursion, `forecaster.sigma_h_stacked`),
`_enbpi_bounds` (the bootstrap members of series of one length and period
in stacked AR solves), `_cv_bounds` (the cross-validation radius rule) and
`_pooled_bounds` (Global-CP's cohort). Each gives (S, H) bound stacks, and
`_row_faults` checks them in IntervalMatrix's one comparison, giving each
invalid row the message IntervalMatrix raises for it alone. Each public
interval method is one call of its rule, on a one-row stack or, for
`global_cp_intervals`, on the panel's cohort, and builds an IntervalMatrix
of each row, which raises on an invalid one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from . import forecaster as _forecaster
from . import quantreg as _quantreg
from .forecaster import (
    FittedForecaster,
    ForecasterSpec,
    _fit_ar_prefixes,
    _PrefixFits,
    _SharedError,
    _in_blocks,
    _prefix_forecasts,
    fit_auto_ar,  # noqa: F401  unused here, but perfbench/spans.py wraps conformal.fit_auto_ar
    forecast,  # noqa: F401  unused here, but perfbench/spans.py wraps conformal.forecast
    sigma_h_stacked,
)
from .quantreg import (
    constant_columns,
    fit_pinball_linear,
    fit_pinball_stacked,
)
from .series import SeriesPanel, SplitSpec, TimeSeries


def conformal_quantile(scores: Sequence[float] | np.ndarray, level: float) -> float:
    """Finite-sample-corrected quantile of a score sample (`_conformal_radii`
    of one column).

    Returns the k-th smallest score with k = ceil(level * (n+1)), or +inf
    when k exceeds n (the sample is too small to certify the level).
    """
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if len(arr) == 0:
        raise ValueError("conformal_quantile requires a nonempty score sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("conformal_quantile requires finite scores")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return float(_conformal_radii(arr[:, None], level)[0])


def _conformal_radii(scores: np.ndarray, level: float | np.ndarray) -> np.ndarray:
    """The finite-sample conformal quantile of every column of a NaN-padded
    score matrix, at one level or at one level per column.

    Column j's radius is the k-th smallest of its n non-NaN entries, with
    k = ceil(level * (n+1)), or +inf when k exceeds n. An all-NaN column
    is an error: column j holds the residuals of horizon j + 1.
    """
    level = np.asarray(level, dtype=np.float64)
    if not ((0.0 < level) & (level < 1.0)).all():
        raise ValueError(f"level must be in (0, 1), got {level}")
    n = np.count_nonzero(~np.isnan(scores), axis=0)
    if not n.all():
        raise ValueError(f"residual column for horizon {np.argmin(n) + 1} is empty")
    k = np.ceil(level * (n + 1)).astype(np.intp)
    ordered = np.sort(scores, axis=0)  # NaN sorts last
    radii = ordered[np.minimum(k, len(ordered)) - 1, np.arange(len(n))]
    return np.where(k <= n, radii, np.inf)


@dataclass(frozen=True, eq=False)
class ResidualMatrix:
    """Residuals by forecast origin (rows) and horizon (columns).

    Ragged late horizons are NaN-padded, and NaN is only padding:
    column(h) drops it, and an infinite entry is rejected. Entries are
    absolute scores unless signed is set.
    """

    matrix: np.ndarray
    origins: tuple[int, ...]
    signed: bool = False

    def __post_init__(self) -> None:
        # A copy, so that freezing it never freezes or aliases a caller's array.
        m = np.array(self.matrix, dtype=np.float64, order="C")
        if m.ndim != 2 or m.shape[0] < 1:
            raise ValueError("residual matrix must be 2-D with at least one row")
        if len(self.origins) != m.shape[0]:
            raise ValueError("one origin per matrix row required")
        _check_padding(m)
        if not self.signed and np.any(m < 0.0):
            raise ValueError("absolute-score matrix entries must be nonnegative")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "origins", tuple(int(t) for t in self.origins))

    @property
    def horizons(self) -> int:
        return self.matrix.shape[1]

    def column(self, h: int) -> np.ndarray:
        """Residuals for horizon h (1-based), without the padding."""
        if not 1 <= h <= self.horizons:
            raise ValueError(f"horizon {h} outside 1..{self.horizons}")
        col = self.matrix[:, h - 1]
        return col[~np.isnan(col)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidualMatrix):
            return NotImplemented
        return (
            self.signed == other.signed
            and self.origins == other.origins
            and np.array_equal(self.matrix, other.matrix, equal_nan=True)
        )


def _check_padding(residuals: np.ndarray) -> None:
    """Reject an infinite residual: NaN is the only padding."""
    if np.isinf(residuals).any():
        raise ValueError("residual matrix entries must be finite; NaN marks padding")


_MAX = np.finfo(np.float64).max


@dataclass(frozen=True, eq=False)
class IntervalMatrix:
    """Lower/upper interval bounds per origin and horizon.

    Infinite bounds are permitted, but no bound may be NaN and no cell may
    have lower > upper or be pinned at one infinite bound (lower = +inf or
    upper = -inf).
    diagnostics carries method-specific counters and never participates in
    equality.
    """

    lower: np.ndarray
    upper: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Copies, so that freezing them never freezes or aliases a caller's array.
        lo = np.array(self.lower, dtype=np.float64, order="C", ndmin=2)
        hi = np.array(self.upper, dtype=np.float64, order="C", ndmin=2)
        if lo.ndim != 2 or hi.ndim != 2:
            raise ValueError(f"bounds must be 2-D (origins, horizons), got shapes {lo.shape} and {hi.shape}")
        if lo.shape != hi.shape:
            raise ValueError(f"bound shape mismatch: {lo.shape} vs {hi.shape}")
        if not _valid_cells(lo, hi).all():
            raise ValueError(_bound_fault(lo, hi))
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def shape(self) -> tuple[int, int]:
        return self.lower.shape

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalMatrix):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )


def _valid_cells(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where a cell is valid, in one comparison. Clamping lower up to -MAX
    and upper down to +MAX keeps lower > upper where it held, makes a cell
    pinned at one infinite bound compare +inf > MAX or -MAX > -inf, and
    leaves a NaN bound NaN, which compares false."""
    return np.less_equal(np.maximum(lo, -_MAX), np.minimum(hi, _MAX))


def _bound_fault(lo: np.ndarray, hi: np.ndarray) -> str:
    """What is wrong with bounds that hold an invalid cell."""
    if np.isnan(lo).any() or np.isnan(hi).any():
        return "interval bound is NaN"
    if (lo > hi).any():
        return "lower bound exceeds upper bound"
    return "interval pinned at an infinite bound"


def _row_faults(lower: np.ndarray, upper: np.ndarray) -> list[str | None]:
    """Each row's message IntervalMatrix raises for it alone, or None where
    it is valid, of an (S, H) bound stack checked in one comparison."""
    valid = _valid_cells(lower, upper).all(axis=1).tolist()
    return [None if ok else _bound_fault(lower[s], upper[s]) for s, ok in enumerate(valid)]


def _signed_residuals(values: np.ndarray, ends: np.ndarray, yhat: np.ndarray) -> np.ndarray:
    """(S, R, horizon) signed residuals of the forecasts yhat from every end
    T of an (S, n) stack of series: entry [s, r, h-1] is values[s, T+h-1]
    less yhat[s, r, h-1], and NaN where T+h-1 >= n.

    NaN marks only that padding: a forecast that is not finite where its
    truth lies inside the series raises ValueError.
    """
    ahead = np.asarray(ends)[:, None] + np.arange(yhat.shape[-1])
    inside = ahead < values.shape[1]
    if not np.isfinite(yhat[:, inside]).all():
        raise ValueError("a prefix forecast is not finite: the series' scale overflows the AR recursion")
    return np.where(inside, values[:, np.where(inside, ahead, 0)] - yhat, np.nan)


def _origin_residuals(
    values: np.ndarray, origins: np.ndarray, forecaster: ForecasterSpec, period: int, horizon: int
) -> np.ndarray:
    """(S, R, horizon) signed residuals of forecasts from every origin T of
    an (S, n) stack of series (`_signed_residuals`), each forecast made from
    a fit on values[s, :T].
    """
    origins = np.asarray(origins, dtype=np.intp)
    _, yhat = _prefix_forecasts(values, origins, forecaster, period, horizon)
    return _signed_residuals(values, origins, yhat)


def build_residual_matrix(
    series: TimeSeries,
    spec: SplitSpec,
    forecaster: ForecasterSpec,
    horizon: int,
    signed: bool = False,
) -> ResidualMatrix:
    """Rolling-origin residuals over the calibration segment.

    Origins run through the calibration block (one per calibration point);
    at each origin the forecaster is refitted on all the data from the
    start of the training block to the origin and forecasts `horizon`
    steps. A residual is recorded only for horizons whose truth falls
    inside the calibration block, so late columns are shorter.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n = len(series)
    if n < spec.total:
        raise ValueError(
            f"series {series.series_id!r} too short to split: need {spec.total}, have {n}"
        )
    # The training block starts train_len + cal_len points before the test block.
    work = series.values[n - spec.total : n - spec.test_len]
    origins = np.arange(spec.train_len, spec.train_len + spec.cal_len)
    # Truths beyond the calibration block stay NaN.
    rows = _origin_residuals(work[None], origins, forecaster, series.period, horizon)[0]
    return ResidualMatrix(
        matrix=rows if signed else np.abs(rows), origins=tuple(origins.tolist()), signed=signed
    )


def mscp_intervals(
    forecasts: np.ndarray, residuals: ResidualMatrix, alpha: float
) -> IntervalMatrix:
    """Symmetric per-horizon intervals from calibrated residual quantiles."""
    fc = np.atleast_2d(np.asarray(forecasts, dtype=np.float64))
    horizon = fc.shape[1]
    if residuals.signed:
        raise ValueError("mscp_intervals requires absolute scores")
    if horizon > residuals.horizons:
        raise ValueError(
            f"forecast horizon {horizon} exceeds residual horizons {residuals.horizons}"
        )
    radii = _conformal_radii(residuals.matrix[:, :horizon], 1.0 - alpha)
    return IntervalMatrix(lower=fc - radii, upper=fc + radii)


@dataclass(frozen=True)
class EnsembleSpec:
    """Bootstrap ensemble configuration for EnbPI."""

    B: int = 20
    window_len: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.B < 2:
            raise ValueError(f"B must be >= 2, got {self.B}")
        if self.window_len < 1:
            raise ValueError(f"window_len must be >= 1, got {self.window_len}")


def _one_step_fitted(
    values: np.ndarray, order: np.ndarray, intercept: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """(..., members, n) one-step predictions of values[..., i] from
    values[..., :i], for a series (n,) or a stack of them (S, n).

    Member b of a series is an AR(order[..., b]) with intercept[..., b] and
    the coefficients phi[..., b, :], zero-padded past its order. Entry
    [..., b, i] is NaN where i is below member b's AR order. A stack takes
    one batched product, which gives each series what it gets alone.
    """
    n = values.shape[-1]
    P = phi.shape[-1]
    lags = np.zeros(values.shape + (P,))  # lags[..., i, j] = values[..., i - 1 - j]
    for j in range(P):
        lags[..., j + 1 :, j] = values[..., : n - 1 - j]
    fitted = intercept[..., None] + phi @ lags.swapaxes(-1, -2)
    fitted[np.arange(n) < order[..., None]] = np.nan
    return fitted


def _loo_scores(values: np.ndarray, fitted: np.ndarray, in_bag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out residuals of a series (n,), or of each series of a stack
    (S, n), from its members' one-step predictions (..., members, n), NaN
    where none, and in-bag marks: at index i, the absolute residual of the
    mean prediction of the members that left i out, or of every member when
    none did (a fallback); NaN where no member predicts. Also returns the
    fallback count (...)."""
    finite = np.isfinite(fitted)
    use = finite & ~in_bag
    fallback = ~use.any(axis=-2) & finite.any(axis=-2)
    use |= finite & fallback[..., None, :]  # every member's prediction where none left i out
    keep = use.any(axis=-2)
    total = np.where(use, fitted, 0.0).sum(axis=-2)
    mean = np.divide(total, use.sum(axis=-2), out=np.full(total.shape, np.nan), where=keep)
    return np.abs(values - mean), fallback.sum(axis=-1)


def _block_bootstrap(n: int, block_len: int, rng: np.random.Generator, members: int) -> np.ndarray:
    """(members, n) resample indices, each whole blocks of block_len
    (clipped to 1..n) at uniform starts, concatenated and cut at n.

    The one rng.integers call draws what members calls of one member's
    starts each would, in turn."""
    size = min(max(block_len, 1), n)
    starts = rng.integers(0, n - size + 1, size=(members, math.ceil(n / size)))
    return (starts[..., None] + np.arange(size)).reshape(members, -1)[:, :n]


def _check_ensemble_forecaster(forecaster: ForecasterSpec) -> None:
    # The members are autoregressions: under another forecaster they would
    # wrap a different forecaster from every other method's.
    if forecaster.kind != "auto_ar":
        raise ValueError("EnbPI ensembles require an autoregressive forecaster")


def _enbpi_bounds(
    series: Sequence[TimeSeries], test_len: int, specs: Sequence[EnsembleSpec], forecaster: ForecasterSpec, alpha: float
) -> tuple[np.ndarray, np.ndarray, list[str | None], list[dict]]:
    """The (S, test_len) bounds that enbpi_intervals gives each of many
    series of one length and period, with one spec each that may differ
    from the others only in its seed, each row's fault (`_row_faults`, or
    that it has no leave-one-out residual) and diagnostics. Each series
    draws its members' resamples from its own seed, and the members of
    every series are fitted in stacked solves of at most
    forecaster._STACK_BLOCK members; their one-step predictions, the
    leave-one-out residuals, the windows and the radii are each one pass
    over the stack. Every step acts on each series alone, so each row is
    bit for bit the series' alone.
    """
    _check_ensemble_forecaster(forecaster)
    if test_len < 1:
        raise ValueError(f"test_len must be >= 1, got {test_len}")
    if len(specs) != len(series):
        raise ValueError(f"{len(specs)} ensemble specs for {len(series)} series")
    if len({(len(ts), ts.period) for ts in series}) > 1:
        raise ValueError("stacked EnbPI needs series of one length and period")
    if len({(spec.B, spec.window_len) for spec in specs}) > 1:
        raise ValueError("stacked EnbPI needs one member count and window length")
    S, B, window_len = len(series), specs[0].B, specs[0].window_len
    n = len(series[0])
    if n <= test_len:
        raise ValueError(f"series shorter than test block: {n} <= {test_len}")
    n_train = n - test_len
    if n_train < 6:
        raise ValueError(f"training span too short for an ensemble: {n_train}")
    values = np.stack([ts.values for ts in series])
    idx = np.stack([
        _block_bootstrap(n_train, series[0].period, np.random.default_rng(spec.seed), B) for spec in specs
    ])
    # Every resample has n_train points: stacked solves of at most
    # _STACK_BLOCK members fit them, each member bit for bit as alone.
    resamples = values[np.arange(S)[:, None, None], idx].reshape(S * B, n_train)
    block = _forecaster._STACK_BLOCK
    parts = [
        _fit_ar_prefixes(resamples[b : b + block], np.array([n_train]), forecaster.max_order, forecaster.include_drift)
        for b in range(0, S * B, block)
    ]
    fits = _PrefixFits(*(np.concatenate(part)[:, 0].reshape(S, B, *part[0].shape[2:]) for part in zip(*parts)))
    # One-step predictions read only known values, so one lag-matrix product
    # over the whole series serves the training span and the test block.
    fitted = _one_step_fitted(values, fits.order, fits.intercept, fits.phi)
    in_bag = np.zeros((S, B, n_train), dtype=bool)
    in_bag[np.arange(S)[:, None, None], np.arange(B)[:, None], idx] = True
    loo, fallbacks = _loo_scores(values[:, :n_train], fitted[..., :n_train], in_bag)
    counts = np.count_nonzero(~np.isnan(loo), axis=1)
    # Each series' scores: its leave-one-out residuals, right-aligned with
    # NaN before them, then its test-block residuals but the last.
    loo = np.take_along_axis(loo, np.argsort(~np.isnan(loo), axis=1, kind="stable"), axis=1)
    yhat = fitted[..., n_train:].mean(axis=1)
    scores = np.concatenate((loo, np.abs(values[:, n_train:] - yhat)), axis=1)[:, :-1]
    scores[counts == 0] = 0.0  # never read: such a series takes the message below
    # The sliding window at step j holds the last window_len scores before
    # step j's own: row j of the last test_len windows over the
    # NaN-left-padded scores, where padding fills the windows that fewer
    # scores precede. No window needs more than the scores there are, and
    # a window wider than a series' scores holds the same scores and more
    # padding, so the stack takes its widest series' width.
    w = min(window_len, max(int(counts.max()), 1) + test_len - 1)
    padded = np.concatenate((np.full((S, w), np.nan), scores), axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=1)[:, -test_len:]
    radii = _conformal_radii(windows.reshape(-1, w).T, 1.0 - alpha).reshape(S, test_len)
    diagnostics = [
        {"loo_fallbacks": f, "loo_count": k} for f, k in zip(fallbacks.tolist(), counts.tolist())
    ]
    lower, upper = yhat - radii, yhat + radii
    faults = _row_faults(lower, upper)
    for s in np.flatnonzero(counts == 0).tolist():
        faults[s] = "no leave-one-out residuals could be formed"
    return lower, upper, faults, diagnostics


def enbpi_intervals(
    series: TimeSeries,
    test_len: int,
    spec: EnsembleSpec,
    forecaster: ForecasterSpec,
    alpha: float,
) -> IntervalMatrix:
    """Ensemble bootstrap intervals over the final test_len points.

    The series must include the test block: intervals are issued one step
    ahead, and after each step the realized residual enters the sliding
    window while the oldest entry leaves. Bootstrap members are fitted on
    contiguous concatenations of blocks (block length = seasonal period)
    so serial dependence inside a block survives resampling. The
    one-series case of `_enbpi_bounds`.
    """
    lower, upper, faults, diagnostics = _enbpi_bounds([series], test_len, [spec], forecaster, alpha)
    if faults[0] is not None:
        raise ValueError(faults[0])
    return IntervalMatrix(lower, upper, diagnostics[0])


@dataclass(frozen=True)
class SpciSpec:
    """Sequential quantile-regression configuration.

    lag_count is the number of lagged signed residuals used as features.
    """

    lag_count: int = 8

    def __post_init__(self) -> None:
        if self.lag_count < 1:
            raise ValueError(f"lag_count must be >= 1, got {self.lag_count}")


def _fit_pinball(X: np.ndarray, y: np.ndarray, rows: np.ndarray, taus: np.ndarray) -> list:
    """fit_pinball_stacked of a (B, N, d) stack whose problem b is its first
    rows[b] rows, or, where this module's fit_pinball_linear has been
    replaced (a tracer or a spy that must see every fit, as
    perfbench/spans.py does), that replacement once per problem, on its
    rows alone. Each problem gets the same fit either way. The second path
    goes once perfbench wraps fit_pinball_stacked itself: until then its
    tracer counts and captures quantreg's work only one problem per call."""
    if fit_pinball_linear is _quantreg.fit_pinball_linear:
        return fit_pinball_stacked(X, y, taus, rows)
    return [fit_pinball_linear(Xi[:k], yi[:k], taus) for Xi, yi, k in zip(X, y, rows)]


def _spci_pairs(
    histories: np.ndarray, spec: SpciSpec, alpha: float, lengths: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """The predicted (lower, upper) next-step quantiles of every row of a
    (P, L) stack of signed residual histories, each its first lengths[i]
    entries (all L when lengths is None), with one solver call: linear
    pinball-loss regressions on lag_count lags fit every level pair
    (beta, 1-alpha+beta), beta on 11 points of [0, alpha], and the pair
    narrowest at the latest lags is kept, swapped if crossed. A design of
    constant lag columns falls back to empirical quantiles. Returns the
    quantiles, whether they crossed, whether the design fell back, and the
    chosen beta, one entry per history each."""
    w = spec.lag_count
    P, L = histories.shape
    lengths = np.full(P, L) if lengths is None else lengths
    short = lengths < w + 10
    if short.any():
        # Each horizon's histories share their length across the series of
        # a stack (`_spci_bounds`), so every series shares the error.
        raise _SharedError(f"residual history too short: need >= {w + 10}, have {lengths[np.argmax(short)]}")
    betas = np.linspace(0.0, alpha, 11)
    m = len(betas)
    taus = np.concatenate([betas, 1.0 - alpha + betas])
    X = np.lib.stride_tricks.sliding_window_view(histories, w, axis=1)[:, :-1]
    y = histories[:, w:]
    rows = lengths - w
    x_star = histories[np.arange(P)[:, None], rows[:, None] + np.arange(w)]
    fallback = constant_columns(X, rows).all(axis=1)
    preds = np.empty((P, 2 * m))
    for i in np.flatnonzero(fallback):
        preds[i] = np.quantile(histories[i, : lengths[i]], taus)
    # A basic slice keeps the windows a view where no history falls back.
    solved = slice(None) if not fallback.any() else ~fallback
    if not fallback.all():
        fits = _fit_pinball(X[solved], y[solved], rows[solved], taus)
        preds[solved] = [fit.predict(x) for fit, x in zip(fits, x_star[solved])]
    pick = np.argmin(preds[:, m:] - preds[:, :m], axis=1)
    q_lo, q_hi = preds[np.arange(P), pick], preds[np.arange(P), m + pick]
    return np.minimum(q_lo, q_hi), np.maximum(q_lo, q_hi), q_lo > q_hi, fallback, betas[pick]


def spci_intervals(
    forecasts: np.ndarray, residuals: ResidualMatrix, spec: SpciSpec, alpha: float
) -> IntervalMatrix:
    """Per-horizon sequential intervals from signed residual streams.

    Each horizon h gets its own quantile regression on that horizon's
    signed residual column, evaluated at the column's latest lag vector.
    The one-series case of `_spci_bounds`.
    """
    if not residuals.signed:
        raise ValueError("spci_intervals requires signed residuals")
    fc = np.asarray(forecasts, dtype=np.float64).ravel()
    lower, upper, diagnostics = _spci_bounds(fc[None], residuals.matrix[None], spec, alpha)
    return IntervalMatrix(lower, upper, diagnostics[0])


def _spci_bounds(
    forecasts: np.ndarray, signed: np.ndarray, spec: SpciSpec, alpha: float
) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """The (S, H) bounds that spci_intervals gives each of many series, and
    each row's diagnostics: forecasts (S, H) and their signed residuals, an
    (S, R, H') stack with H' >= H, NaN-padded as in ResidualMatrix.

    At each horizon h the column-h residual histories of every series
    must have equal lengths. The histories of every horizon and series are
    fitted in one solver call, which solves the designs of each row bucket
    together, and each row is bit for bit the series' alone.
    """
    fc = np.atleast_2d(np.asarray(forecasts, dtype=np.float64))
    signed = np.asarray(signed, dtype=np.float64)
    S, horizon = fc.shape
    if signed.ndim != 3 or len(signed) != S:
        raise ValueError(f"{S} forecast rows for a signed residual stack of shape {signed.shape}")
    if horizon > signed.shape[2]:
        raise ValueError(f"forecast horizon {horizon} exceeds residual horizons {signed.shape[2]}")
    _check_padding(signed)
    # Every horizon's histories, left-aligned in one (horizon, S, R) stack.
    histories = np.zeros((horizon, S, signed.shape[1]))
    lengths = np.empty(horizon, dtype=np.intp)
    for h in range(horizon):
        column = signed[:, :, h]
        kept = ~np.isnan(column)
        counts = np.count_nonzero(kept, axis=1)
        if (counts != counts[0]).any():
            raise ValueError(f"horizon {h + 1} residual columns differ in length across series")
        lengths[h] = counts[0]
        histories[h, :, : counts[0]] = column[kept].reshape(S, counts[0])
    pairs = _spci_pairs(histories.reshape(horizon * S, -1), spec, alpha, np.repeat(lengths, S))
    # Each part is (S, horizon): series by row.
    q_lo, q_hi, crossed, fallback, beta = (part.reshape(horizon, S).T for part in pairs)
    diagnostics = [
        {"crossings": c, "fallbacks": f, "betas": b}
        for c, f, b in zip(crossed.sum(axis=1).tolist(), fallback.sum(axis=1).tolist(), beta.tolist())
    ]
    return fc + q_lo, fc + q_hi, diagnostics


@dataclass(frozen=True)
class GlobalCpResult:
    """Pooled-cohort intervals plus the shared per-horizon radii."""

    intervals: dict
    radii: np.ndarray
    calibration_ids: tuple[str, ...]
    evaluation_ids: tuple[str, ...]


def global_cp_intervals(
    panel: SeriesPanel,
    cohort_split: float,
    forecasts: Mapping[str, np.ndarray],
    alpha: float,
    horizon: int,
) -> GlobalCpResult:
    """Cross-series conformal intervals with a per-horizon Bonferroni budget.

    forecasts maps each series id to its point forecast of the series'
    final `horizon` points, made without seeing them. The panel is split
    by SERIES into a calibration cohort and an evaluation cohort;
    calibration-cohort absolute residuals are pooled per horizon and the
    shared radius for horizon h is the conformal quantile at level
    1 - alpha/horizon. Evaluation series receive those radii around their
    own forecasts.
    """
    if not 0.0 < cohort_split < 1.0:
        raise ValueError(f"cohort_split must be in (0, 1), got {cohort_split}")
    k = _cohort_size(len(panel), cohort_split)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    ids = panel.ids
    for sid in ids[:k]:
        if len(panel[sid]) < horizon:
            raise ValueError(f"series {sid!r} too short for horizon {horizon}")
    for sid in ids:
        if sid not in forecasts:
            raise ValueError(f"no forecast for series {sid!r}")
        if np.shape(forecasts[sid]) != (horizon,):
            raise ValueError(f"forecast for series {sid!r} has shape {np.shape(forecasts[sid])}, expected ({horizon},)")
    truth = np.array([panel[sid].values[-horizon:] for sid in ids[:k]])
    radii, lower, upper = _pooled_bounds(truth, np.array([forecasts[sid] for sid in ids], dtype=np.float64), alpha)
    intervals = {sid: IntervalMatrix(lo, hi) for sid, lo, hi in zip(ids[k:], lower, upper)}
    return GlobalCpResult(intervals, radii, ids[:k], ids[k:])


def _cohort_size(n: int, cohort_split: float) -> int:
    """How many of n >= 2 pooled series form the calibration cohort: at least one, and at most n - 1."""
    if n < 2:
        raise ValueError("Global-CP requires a cohort: panel has fewer than 2 series")
    return min(max(int(round(cohort_split * n)), 1), n - 1)


def _pooled_bounds(truth: np.ndarray, forecasts: np.ndarray, alpha: float) -> tuple[np.ndarray, ...]:
    """The per-horizon radii, conformal quantiles at level 1 - alpha/H of
    the cohort's absolute residuals from its (k, H) truths and the first k
    rows of an (S, H) forecast stack, and the bounds around the other
    rows. Raises ValueError on a residual that is not finite, or an
    invalid row."""
    k, horizon = truth.shape
    resid = np.abs(truth - forecasts[:k])
    if not np.isfinite(resid).all():
        raise ValueError("pooled calibration scores must be finite")
    radii = _conformal_radii(resid, 1.0 - alpha / horizon)
    lower, upper = forecasts[k:] - radii, forecasts[k:] + radii
    fault = next(filter(None, _row_faults(lower, upper)), None)
    if fault is not None:
        raise ValueError(fault)
    return radii, lower, upper


def _backtest_cutoffs(n: int, n_windows: int, horizon: int) -> np.ndarray | None:
    """The ascending cutoffs of n_windows backtest windows of horizon points
    back from the end of n points; None if the first leaves under 3 to fit."""
    cutoffs = n - horizon * np.arange(n_windows, 0, -1)
    return cutoffs if cutoffs[0] >= 3 else None


_NO_BACKTEST = "series {!r} admits no {}-window backtest at horizon {}"  # where _backtest_cutoffs is None


def _cv_bounds(forecasts: np.ndarray, backtests: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The (S, H) bounds around (S, H) forecasts whose radii are the
    uncorrected (1-alpha) quantiles of each column of (S, n_windows, H)
    backtest residuals: cv_conformal_intervals' radius rule."""
    r = np.quantile(np.abs(backtests), 1.0 - alpha, axis=1)
    return forecasts - r, forecasts + r


def cv_conformal_intervals(
    forecasts: Mapping[str, np.ndarray],
    series: Sequence[TimeSeries],
    n_windows: int,
    forecaster: ForecasterSpec,
    alpha: float,
) -> dict[str, IntervalMatrix | str]:
    """Backtest-calibrated intervals around each series' forecast beyond its end.

    forecasts maps each series id to its point forecast of the `horizon`
    points after the series, where horizon is its length. Backtest windows
    of that length, at cutoffs that step back from the series end in
    strides of horizon, refit `forecaster` before each cutoff, and the
    per-horizon radii are the empirical (1-alpha) quantiles of their
    absolute residuals (`_cv_bounds`); no finite-sample
    correction is applied, so small n_windows gives anti-conservative
    intervals (mirroring the cross-validation baseline this reproduces).

    Returns each series' intervals, or the message of the error that
    stopped it (a series too short for its backtest, for one); an invalid
    interval raises. Series of equal length, period and horizon are
    backtested together, in blocks of at most forecaster._STACK_BLOCK
    series with one stacked AR solve each; every operation of the solve
    acts on one series at a time, so each series gets the intervals it
    would get alone.
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    out: dict[str, IntervalMatrix | str] = {}
    members: list[tuple[str, np.ndarray, TimeSeries, np.ndarray]] = []
    for ts in series:
        sid = ts.series_id
        if sid not in forecasts:
            raise ValueError(f"no forecast for series {sid!r}")
        yhat = np.asarray(forecasts[sid], dtype=np.float64)
        horizon = len(yhat)
        if horizon < 1:
            raise ValueError(f"forecast for series {sid!r} is empty")
        cutoffs = _backtest_cutoffs(len(ts), n_windows, horizon)
        if cutoffs is None:
            out[sid] = _NO_BACKTEST.format(sid, n_windows, horizon)
        else:
            members.append((sid, yhat, ts, cutoffs))

    def backtest(block: list[int]) -> np.ndarray:
        _, yhat, ts, cutoffs = members[block[0]]
        stack = np.stack([members[i][2].values for i in block])
        return _origin_residuals(stack, cutoffs, forecaster, ts.period, len(yhat))

    keys = [(len(ts), ts.period, len(yhat)) for _, yhat, ts, _ in members]
    for (sid, yhat, _, _), residuals in zip(members, _in_blocks(keys, backtest)):
        if isinstance(residuals, str):  # a failed backtest is the series' message
            out[sid] = residuals
        else:  # an invalid interval raises
            out[sid] = IntervalMatrix(*_cv_bounds(yhat[None], residuals[None], alpha))
    return out


@np.errstate(invalid="ignore")  # inf - inf, where an overflowing forecast meets its infinite width: NaN, rejected
def _parametric_bounds(
    phi: np.ndarray, order: np.ndarray, sigma2: np.ndarray, forecasts: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (S, H) Gaussian bounds around the forecasts of S autoregressions,
    phi (S, P) zero-padded past each order (`forecaster.sigma_h_stacked`):
    row s is bit for bit what parametric_intervals gives its model alone.
    NaN bounds (from an explosive model, say) are the caller's to reject."""
    forecasts = np.asarray(forecasts, dtype=np.float64)
    if forecasts.ndim != 2 or len(forecasts) != len(phi):
        raise ValueError(f"need one forecast row per model, got shape {forecasts.shape} for {len(phi)} models")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    sd = sigma_h_stacked(phi, order, sigma2, forecasts.shape[1])
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return forecasts - z * sd, forecasts + z * sd


def parametric_intervals(
    model: FittedForecaster, forecast: np.ndarray, alpha: float
) -> IntervalMatrix:
    """Gaussian intervals from the AR psi-weight forecast variance.

    forecast is the model's point forecast; the horizon is its length. The
    one-row case of `_parametric_bounds`.
    """
    return IntervalMatrix(
        *_parametric_bounds(model.phi[None], np.array([model.order]), np.array([model.sigma2]), [forecast], alpha)
    )
