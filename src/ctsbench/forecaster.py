"""Point forecasters: AIC-selected autoregression and seasonal naive.

The AR forecaster fits each candidate order by least squares and keeps the
order with the smallest AIC. It plays the role usually delegated to a full
auto-ARIMA search; the conformal layer only consumes its point forecasts
(and, for the Gaussian baseline, its innovation variance), so any forecaster
with the same interface can be swapped in.

`_prefix_forecasts` makes the forecasts of a stack of equal-length series
from many prefix ends, each with the fit of its own prefix, and is the one
place that branches on the forecaster kind: one batched AR solve and one
recursion of the distinct ends, or one seasonal index gather
(`seasonal_naive_forecast` is its one-series, one-end case). There is one
forecast recursion, `_forecast_paths`: each step adds the lags of a row in
turn, with the lags past its order masked out rather than multiplied by
zero padding, so that a row gets bit for bit what it gets alone and an
overflowing path stays inf rather than becoming NaN. `forecast` runs it
from the end of one fitted model's history.

All least-squares fits go through one solver, `_fit_ar_prefixes`, which fits
every candidate order on every prefix values[s, :T] of an (S, n) stack of
series at once; one series is the stack S = 1, which `fit_auto_ar` fits
on its whole length. bench's prefix table keeps its fits as arrays.
Order p regresses rows t >= p of a series' lag matrix Z on an intercept
and lags 1..p, so its cross-product [y X]'[y X] on prefix T is
the sum of the row outer products of Z over rows p..T-1. One matrix product
of a 0/1 row mask, one row per (prefix, order) pair and shared by the
series, with each series' stacked outer products gives every cross-product;
a prefix too short for an order leaves it too few rows and no special case.
The 0/1 weights only add, so a column that vanishes on a fit's rows stays
exactly zero. The cross-products are scaled to unit diagonal and inverted
by one Gauss-Jordan sweep over the whole stack (`_sweep_inverse`), laid out
batch-last so that each pivot step is a few elementwise numpy operations,
not one LAPACK call per matrix. It needs no pivoting: every matrix is a
scaled cross-product plus the identity on unused columns and a ridge, so
symmetric positive definite, and in exact arithmetic each pivot is a
positive Schur complement. A pivot that rounds to zero or below marks a
rank-deficient candidate, and its non-finite or out-of-range entries fail
the rank rule below. Each solution is refined once from its explicit
residuals, and the RSS comes from the refined residuals, not from
y'y - b'X'y, which cancels on near-perfect fits.

Every operation acts on one series' slice of the stack, and on one
prefix's batch row, in the same shapes whatever S is and whichever other
ends the call fits, so a series gets bit for bit the fits and forecasts it
gets alone, a prefix the fit it gets in any other call on the same stack,
and one series' rank-deficient candidate cannot touch another's. The
temporaries grow with S, about 45 KiB per series of 84 points fitted and
forecast at three prefixes, so many series are stacked in blocks of at
most `_STACK_BLOCK` (64), in bench's prefix table and the cv_cp backtest,
by `_in_blocks`, which also redoes a failed block one series at a time,
unless its error is one that every series shares (`_SharedError`);
EnbPI slices the bootstrap members of all its series by the same bound,
and bench stacks SPCI's quantile regressions (`conformal._spci_bounds`)
and EnbPI's series (`conformal._enbpi_bounds`) in the same blocks.

Rank rule: in the scaled cross-product A of an order, the pivot of column
j, 1 / [A^-1]_jj, is the squared sine of the angle between that column and
the span of the order's other columns. A candidate with a pivot below
RANK_PIVOT = 1e-10 (a column within about 1e-5 radians of the others) is
rank-deficient and gets +inf AIC. The rule is scale-free. It rejects the
exactly dependent designs that an SVD rank test such as np.linalg.lstsq
rejects (constant, linear-trend, alternating or noise-free AR stretches)
and accepts every design whose column-scaled singular values lie within a
factor 1e4 of each other. Between the two, normal equations cannot resolve
a design as lstsq does, and the rules can differ. A ridge of 1e-14 on A's
diagonal keeps rejected candidates invertible.

With an intercept each series is first shifted by its own first
observation, a value all its prefixes share, so that a large level does
not enter the condition number; the intercept absorbs the shift and is
mapped back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .series import TimeSeries


@dataclass(frozen=True)
class ForecasterSpec:
    """Configuration for fitting a point forecaster.

    kind is "auto_ar" (AIC selection over AR orders 0..max_order, with an
    intercept when include_drift is set) or "seasonal_naive".
    """

    kind: str = "auto_ar"
    max_order: int = 5
    include_drift: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("auto_ar", "seasonal_naive"):
            raise ValueError(f"unknown forecaster kind {self.kind!r}")
        if self.max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {self.max_order}")


@dataclass(frozen=True)
class FittedForecaster:
    """A fitted autoregression: values[t] ~ intercept + phi . values[t-1:t-p-1:-1]."""

    phi: np.ndarray
    intercept: float
    sigma2: float
    order: int
    aics: tuple[float, ...]  # AIC of each candidate order 0..P, +inf where rejected

    def __post_init__(self) -> None:
        # A copy, so that freezing it never freezes or aliases a caller's array.
        phi = np.array(self.phi, dtype=np.float64, order="C")
        if phi.shape != (self.order,):
            raise ValueError(f"an order-{self.order} model needs {self.order} coefficients, got shape {phi.shape}")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)


# A candidate is rank-deficient when one of its columns has a pivot below
# RANK_PIVOT in its column-scaled cross-product (see the module docstring).
RANK_PIVOT = 1e-10
# Added to the scaled cross-product's diagonal so that singular candidates
# stay invertible; far below RANK_PIVOT, and refinement removes its bias.
_RIDGE = 1e-14


class _PrefixFits(NamedTuple):
    """Selected AR fits of S series at R prefixes each; phi is zero-padded to the largest order."""

    order: np.ndarray  # (S, R)
    intercept: np.ndarray  # (S, R)
    phi: np.ndarray  # (S, R, P)
    sigma2: np.ndarray  # (S, R)
    aics: np.ndarray  # (S, R, P + 1), +inf where a candidate was rejected


class _Layout(NamedTuple):
    """Read-only per-order constants for candidate orders 0..P.

    Regression column j - 1 holds the lag-j value and column P the intercept.
    """

    orders: np.ndarray  # (P+1,)
    active: np.ndarray  # (P+1, P+1) [order, column]: columns the order uses
    n_params: np.ndarray  # (P+1,) coefficients per order
    min_rows: np.ndarray  # (P+1,) a fit needs more rows than this
    penalty: np.ndarray  # (P+1,) AIC penalty 2 * (n_params + 1)
    fill: np.ndarray  # (P+1, P+1, P+1) identity on unused columns, plus the ridge


@functools.lru_cache(maxsize=16)
def _order_layout(P: int, include_drift: bool) -> _Layout:
    orders = np.arange(P + 1)
    active = np.zeros((P + 1, P + 1), dtype=bool)
    active[:, :P] = orders[:P] < orders[:, None]
    active[:, P] = include_drift
    n_params = orders + int(include_drift)
    fill = np.zeros((P + 1, P + 1, P + 1))
    fill[:, orders, orders] = ~active + _RIDGE
    layout = _Layout(
        orders=orders, active=active, n_params=n_params, min_rows=np.maximum(n_params, 1),
        penalty=2.0 * (n_params + 1), fill=fill,
    )
    for a in layout:
        a.flags.writeable = False
    return layout


def _sweep_inverse(a: np.ndarray) -> np.ndarray:
    """Inverses of a (..., k, k) stack of symmetric positive definite
    matrices by Gauss-Jordan elimination without pivoting.

    The stack is laid out batch-last, (k, k, N), so that each of the k pivot
    steps is a few numpy operations over all N matrices at once, and each
    matrix gets the arithmetic it gets alone. A pivot that rounds to zero or
    below leaves its matrix's entries meaningless or non-finite, with no
    warning under the caller's errstate.
    """
    k = a.shape[-1]
    w = np.moveaxis(a.reshape(-1, k, k), 0, -1).copy()
    # Step j builds column j of the inverse in place of the identity's: row j
    # becomes itself over the pivot, with 1 / pivot at [j, j], and every other
    # row sheds its multiple of it, leaving -multiplier / pivot in column j.
    shed = np.empty_like(w)
    for j in range(k):
        pivot = w[j, j].copy()
        col = w[:, j].copy()
        col[j] = 0.0
        w[:, j] = 0.0
        w[j, j] = 1.0
        w[j] /= pivot
        w -= np.multiply(col[:, None], w[j], out=shed)
    del shed
    return np.ascontiguousarray(np.moveaxis(w, -1, 0)).reshape(a.shape)


# The finiteness check at the end turns an overflowing solve into a
# ValueError, so the warnings numpy would issue on the way are noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fit_ar_prefixes(
    values: np.ndarray, ends: np.ndarray, max_order: int, include_drift: bool
) -> _PrefixFits:
    """Fit AR(0..P) by least squares on values[s, :T] for every series s of
    an (S, n) stack and every T in ends.

    P = min(max_order, n - 2); a prefix of length T admits the orders
    p <= T - 2 that leave more rows (T - p) than coefficients
    (p + include_drift). The solve spans all n columns whatever the ends,
    and each end is a batch row of its own, so a prefix gets bit for bit
    the same fit in any call on the same stack, alone or among other ends.
    A selected fit that is not finite, as on data whose cross-products
    overflow, raises ValueError without a numpy warning.
    """
    ends = np.asarray(ends, dtype=np.intp)
    t0 = int(ends.min())
    if t0 < 3:
        raise ValueError(f"auto_ar needs at least 3 observations, have {t0}")
    S, n = values.shape
    P = min(max_order, n - 2)
    lay = _order_layout(P, include_drift)
    R = len(ends)
    shift = values[:, :1] if include_drift else np.zeros((S, 1))
    u = values - shift
    # Row t of Z[s]: [u[t], u[t-1], ..., u[t-P], 1], lags before the start zero.
    Z = np.zeros((S, n, P + 2))
    Z[:, :, 0] = u
    for j in range(1, P + 1):
        Z[:, j:, j] = u[:, :-j]
    Z[:, :, P + 1] = 1.0
    X = Z[:, None, :, 1:]  # (S, 1, n, P+1), broadcast over the prefixes
    # [y X]'[y X] of order p on prefix T sums the outer products of rows
    # p..T-1 of Z: a 0/1 mask, shared by the series, over the stacked
    # products. The weights only add, so a column that is zero on a fit's
    # rows stays exactly zero.
    rows = np.arange(n)
    in_fit = (rows >= lay.orders[:, None]) & (rows < ends[:, None, None])  # (R, P+1, n)
    outer = np.einsum("...i,...j->...ij", Z, Z).reshape(S, 1, n, -1)
    G = (in_fit.astype(np.float64) @ outer).reshape(S, R, P + 1, P + 2, P + 2)
    # The temporaries below are freed as soon as they are spent and reused
    # in place: with many ends a call's peak heap would otherwise pass
    # glibc's trim threshold, so that every call handed its pages back and
    # faulted them in again, and stacking many series at many ends raises
    # the process's peak memory.
    del outer

    # Scale the used columns to a unit diagonal; unused ones become identity.
    d = G.diagonal(axis1=-2, axis2=-1)[..., 1:]
    scale = np.zeros(d.shape)
    np.divide(1.0, np.sqrt(d), out=scale, where=lay.active & (d > 0.0))
    # One inversion of the whole stack serves the rank rule and both
    # solves. Column j's pivot is 1 / inv[j, j].
    a = G[..., 1:, 1:] * scale[..., :, None]
    a *= scale[..., None, :]
    a += lay.fill
    xty = G[..., 1:, 0].copy()
    del G, d
    inv = _sweep_inverse(a)
    del a
    vif = inv.diagonal(axis1=-2, axis2=-1)
    m = ends[:, None] - lay.orders
    ok = (m > lay.min_rows) & ((vif > 0.0) & (vif < 1.0 / RANK_PIVOT)).all(axis=-1)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return (inv @ (rhs * scale)[..., None])[..., 0] * scale

    y = u[:, None, None, :]
    outside = ~in_fit

    def residuals(beta: np.ndarray) -> np.ndarray:
        resid = beta @ X.swapaxes(-1, -2)
        np.subtract(y, resid, out=resid)
        np.copyto(resid, 0.0, where=outside)
        return resid

    beta = solve(xty)
    beta += solve(residuals(beta) @ X)  # one refinement step from explicit residuals
    resid = residuals(beta)
    rss = np.einsum("...t,...t->...", resid, resid)

    m = np.maximum(m, 1)
    aics = np.where(ok, m * np.log(np.maximum(rss, 1e-300) / m) + lay.penalty, np.inf)
    best = aics.argmin(axis=-1)  # the first minimum: ties go to the smaller order
    s, r = np.arange(S)[:, None], np.arange(R)
    coef = beta[s, r, best]
    phi = coef[..., :P]
    intercept = coef[..., P] + shift * (1.0 - phi.sum(axis=-1))
    sigma2 = rss[s, r, best] / (m[r, best] - lay.n_params[best])
    if not (np.isfinite(intercept).all() and np.isfinite(phi).all() and np.isfinite(sigma2).all()):
        raise ValueError("auto_ar fit is not finite: the series' scale overflows the least-squares solve")
    return _PrefixFits(best, intercept, phi, sigma2, aics)


def fit_auto_ar(train: np.ndarray | TimeSeries, spec: ForecasterSpec) -> FittedForecaster:
    """Fit AR(p) for each p in 0..max_order by OLS and select by AIC.

    max_order is capped at len(train) - 2. With k = p + include_drift
    regression coefficients and m = len(train) - p regression rows,
    AIC = m*ln(RSS/m) + 2*(k + 1), counting the innovation variance; ties
    break toward the smaller order. sigma2 is RSS/(m - k). Candidates with
    no more rows than coefficients get +inf AIC, and so do rank-deficient
    ones: those with a column whose pivot in the column-scaled
    cross-product is below RANK_PIVOT (see the module docstring). Order 0
    is always a valid candidate.
    """
    if isinstance(train, TimeSeries):
        values = train.values
    else:
        values = np.asarray(train, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("auto_ar needs finite observations")
    fits = _fit_ar_prefixes(values[None], [len(values)], spec.max_order, spec.include_drift)
    order, intercept, phi, sigma2, aics = (a[0, 0] for a in fits)
    p = int(order)
    return FittedForecaster(
        phi=phi[:p], intercept=float(intercept), sigma2=float(sigma2), order=p, aics=tuple(aics.tolist())
    )


# What a fit or an interval method raises on data it cannot handle (LinAlgError is a ValueError).
_METHOD_ERRORS = (ValueError, ArithmeticError)

# Series per stacked solve (prefix tables, cv_cp backtests, EnbPI members).
# 588 series of 84 points in one stack, fitted and forecast at three
# prefixes, peak at about 25 MiB of temporaries (tracemalloc), against
# about 3 MiB in blocks of 64.
_STACK_BLOCK = 64


class _SharedError(ValueError):
    """A block solve's failure that every item of the block shares, as it
    depends only on what the items share (their key and shapes):
    `_in_blocks` gives its message to every item without a retry."""


def _in_blocks(keys: Sequence[Hashable], solve: Callable[[list[int]], Sequence]) -> list:
    """Each item's result from solve(block), where a block lists the indices
    of at most _STACK_BLOCK items of equal key and solve returns one result
    per index.

    A block whose solve raises one of _METHOD_ERRORS is redone one item at
    a time, so that an error stays with its item: that item's result is the
    error message. A _SharedError's message is every item's at once.
    """
    groups: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    blocks = [idx[j : j + _STACK_BLOCK] for idx in groups.values() for j in range(0, len(idx), _STACK_BLOCK)]
    out: list = [None] * len(keys)
    while blocks:
        block = blocks.pop()
        try:
            results = solve(block)
        except _SharedError as e:
            results = [str(e)] * len(block)
        except _METHOD_ERRORS as e:
            if len(block) > 1:
                blocks.extend([i] for i in block)
            else:
                out[block[0]] = str(e)
            continue
        for i, result in zip(block, results):
            out[i] = result
    return out


# Overflow is the callers' to check: the residual builder rejects a
# forecast that is not finite, and interval builders reject invalid bounds.
@np.errstate(over="ignore", invalid="ignore")
def _forecast_paths(
    values: np.ndarray, ends: np.ndarray, order: np.ndarray, intercept: np.ndarray, phi: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Recursive forecasts from the end of values[s, :T] for every series s
    of an (S, n) stack and every T in ends: (S, R, horizon).

    Row [s, r] is an AR(order[s, r]) with intercept[s, r] and the
    coefficients phi[s, r], zero-padded past its order, which must not
    exceed its T. Each step starts from the intercept and adds
    phi[j] * y[t-1-j] for j = 0, 1, ... in turn, with the lags past a row's
    order masked out, not multiplied by their zero padding: every row gets
    bit for bit what it gets alone, whatever P, and a path that overflows
    to inf stays inf instead of turning 0 * inf into NaN.
    """
    S, R, P = phi.shape
    path = np.empty((S, R, P + horizon))  # the last P values oldest first, then the forecasts
    # A lag before the start is past the row's order, so never read.
    path[..., :P] = values[:, np.maximum(np.asarray(ends)[:, None] - np.arange(P, 0, -1), 0)]
    uses = np.arange(P)[:, None, None] < order  # uses[j]: the rows whose order reaches lag j + 1
    lag = np.empty((S, R))
    for t in range(P, P + horizon):
        yhat = path[..., t]
        yhat[...] = intercept
        for j in range(P):
            np.multiply(phi[..., j], path[..., t - 1 - j], out=lag, where=uses[j])
            np.add(yhat, lag, out=yhat, where=uses[j])
    return path[..., P:]


def forecast(model: FittedForecaster, history: np.ndarray | TimeSeries, horizon: int) -> np.ndarray:
    """Recursive multi-step point forecasts from the end of history: one row
    of the prefix recursion (`_forecast_paths`), so bit for bit what the
    prefix table gives a fit at the end of its history."""
    values = history.values if isinstance(history, TimeSeries) else np.asarray(history, dtype=np.float64)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if values.ndim != 1:
        raise ValueError(f"need a 1-D history, got shape {values.shape}")
    if model.order > len(values):
        raise ValueError(f"history shorter than AR order: {len(values)} < {model.order}")
    return _forecast_paths(
        values[None], np.array([len(values)]), np.array([[model.order]]), np.array([[model.intercept]]),
        model.phi[None, None], horizon,
    )[0, 0]


@np.errstate(over="ignore", invalid="ignore")  # an explosive model's psi: inf, or NaN that interval builders reject
def sigma_h_stacked(phi: np.ndarray, order: np.ndarray, sigma2: np.ndarray, horizon: int) -> np.ndarray:
    """Forecast standard deviations of S autoregressions by the psi-weight
    recursion: (S, horizon).

    phi is (S, P), row s zero-padded past order[s]; sigma2 is (S,). Row s
    gets bit for bit what sigma_h gives its model alone. A lag past a
    row's order is masked out, not multiplied by its zero: a row whose psi
    overflows to inf would otherwise turn 0 * inf into NaN.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    phi = np.asarray(phi, dtype=np.float64)
    order = np.asarray(order)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if phi.ndim != 2 or order.shape != (len(phi),) or sigma2.shape != (len(phi),):
        raise ValueError(f"need (S, P) phi with (S,) order and sigma2, got {phi.shape}, {order.shape}, {sigma2.shape}")
    psi = np.zeros((len(phi), horizon))
    psi[:, 0] = 1.0
    for k in range(1, horizon):
        acc = np.zeros(len(phi))
        for j in range(1, min(k, phi.shape[1]) + 1):
            acc = np.where(j <= order, acc + phi[:, j - 1] * psi[:, k - j], acc)
        psi[:, k] = acc
    return np.sqrt(sigma2[:, None] * np.cumsum(psi * psi, axis=1))


def sigma_h(model: FittedForecaster, horizon: int) -> np.ndarray:
    """Forecast standard deviations by the psi-weight recursion.

    psi_0 = 1, psi_k = sum_{j=1}^{min(k,p)} phi_j psi_{k-j};
    var(h) = sigma2 * sum_{k<h} psi_k^2. The one-row case of
    sigma_h_stacked.
    """
    return sigma_h_stacked(model.phi[None], np.array([model.order]), np.array([model.sigma2]), horizon)[0]


def seasonal_naive_forecast(history: np.ndarray | TimeSeries, horizon: int, period: int | None = None) -> np.ndarray:
    """Repeat the last full seasonal cycle: yhat_{T+h} = y_{T+h-m*ceil(h/m)}."""
    if isinstance(history, TimeSeries):
        values = history.values
        m = history.period if period is None else period
    else:
        values = np.asarray(history, dtype=np.float64)
        if period is None:
            raise ValueError("period required when history is a bare array")
        m = period
    if m < 1:
        raise ValueError(f"period must be >= 1, got {m}")
    return _prefix_forecasts(values[None], [len(values)], ForecasterSpec("seasonal_naive"), m, horizon)[1][0, 0]


def _check_seasonal_ends(ends: np.ndarray, period: int) -> None:
    """Raise the ValueError of seasonal naive forecasts from a prefix end
    shorter than one period."""
    if ends.min() < period:
        raise ValueError(f"seasonal naive needs at least one full period: {ends.min()} < {period}")


def _prefix_forecasts(
    values: np.ndarray, ends: np.ndarray, spec: ForecasterSpec, period: int, horizon: int
) -> tuple[_PrefixFits | None, np.ndarray]:
    """(S, R, horizon) forecasts from the end of values[s, :ends[r]] for
    every series s of an (S, n) stack and every row r, and each row's fit.

    auto_ar fits the distinct ends in one batched solve and forecasts from
    each in one recursion; rows of equal end share them, and the fits come
    back per row. Seasonal naive fits nothing (None) and reads step h of
    row T at T - period + (h-1) % period.
    """
    ends = np.asarray(ends, dtype=np.intp)
    if spec.kind == "seasonal_naive":
        _check_seasonal_ends(ends, period)
        return None, values[:, ends[:, None] - period + np.arange(horizon) % period]
    at, row = np.unique(ends, return_inverse=True)
    fits = _fit_ar_prefixes(values, at, spec.max_order, spec.include_drift)
    yhat = _forecast_paths(values, at, fits.order, fits.intercept, fits.phi, horizon)
    return _PrefixFits(*(a[:, row] for a in fits)), yhat[:, row]
