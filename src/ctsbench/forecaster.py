"""Point forecasters: AIC-selected autoregression and seasonal naive.

The AR forecaster fits each candidate order by least squares and keeps the
order with the smallest AIC. It plays the role usually delegated to a full
auto-ARIMA search; the conformal layer only consumes its point forecasts
(and, for the Gaussian baseline, its innovation variance), so any forecaster
with the same interface can be swapped in.

`_prefix_forecasts` makes the forecasts of a stack of equal-length series
from many shared origins and is the one place that branches on the
forecaster kind: batched AR fits and recursions, or one seasonal index
gather (`seasonal_naive_forecast` is its one-series, one-origin case).
`forecast` stays a scalar loop for one fitted model: a one-row batched
recursion costs several times as much.

All least-squares fits go through one solver, `_fit_ar_prefixes`, which fits
every candidate order on every prefix values[s, :T] of an (S, n) stack of
series at once; one series is the stack S = 1. `fit_auto_ar_stacked` fits
many series on their whole length, and `fit_auto_ar` is its one-series
case: both turn a row of the solver's output into a model the same way.
Order p regresses rows t >= p of a series' lag matrix Z on an intercept
and lags 1..p, so its cross-product [y X]'[y X] on prefix T is
the sum of the row outer products of Z over rows p..T-1. One matrix product
of a 0/1 row mask, one row per (prefix, order) pair and shared by the
series, with each series' stacked outer products gives every cross-product;
a prefix too short for an order leaves it too few rows and no special case.
The 0/1 weights only add, so a column that vanishes on a fit's rows stays
exactly zero. The cross-products are scaled to unit diagonal and inverted in
one batched call; each solution is refined once from its explicit
residuals, and the RSS comes from the refined residuals, not from
y'y - b'X'y, which cancels on near-perfect fits.

Every operation acts on one series' slice of the stack, in the same shapes
whatever S is, so a series gets bit for bit the fits and forecasts it gets
alone, and one series' rank-deficient candidate cannot touch another's. The
temporaries grow with S, about 60 KiB per series of 84 points fitted at two
prefixes, so many series are stacked in blocks of at most `_STACK_BLOCK`
(64), here for the whole-length fits and in the cv_cp backtest, by
`_in_blocks`, which also redoes a failed block one series at a time;
EnbPI slices its bootstrap members by the same bound, and bench stacks
SPCI's quantile regressions (`conformal.spci_intervals_stacked`) in the
same blocks.

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
        phi = np.ascontiguousarray(self.phi, dtype=np.float64)
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


# The finiteness check at the end turns an overflowing solve into a
# ValueError, so the warnings numpy would issue on the way are noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fit_ar_prefixes(
    values: np.ndarray, ends: np.ndarray, max_order: int, include_drift: bool
) -> _PrefixFits:
    """Fit AR(0..P) by least squares on values[s, :T] for every series s of
    an (S, n) stack and every T in ends.

    P = min(max_order, max(ends) - 2); a prefix of length T admits the
    orders p <= T - 2 that leave more rows (T - p) than coefficients
    (p + include_drift). A selected fit that is not finite, as on data
    whose cross-products overflow, raises ValueError without a numpy
    warning.
    """
    ends = np.asarray(ends, dtype=np.intp)
    t0, n = int(ends.min()), int(ends.max())
    if t0 < 3:
        raise ValueError(f"auto_ar needs at least 3 observations, have {t0}")
    P = min(max_order, n - 2)
    lay = _order_layout(P, include_drift)
    S, R = len(values), len(ends)
    shift = values[:, :1] if include_drift else np.zeros((S, 1))
    u = values[:, :n] - shift
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

    # Scale the used columns to a unit diagonal; unused ones become identity.
    d = G.diagonal(axis1=-2, axis2=-1)[..., 1:]
    scale = np.zeros(d.shape)
    np.divide(1.0, np.sqrt(d), out=scale, where=lay.active & (d > 0.0))
    # One batched inversion (a solve against the identity) serves the rank
    # rule and both solves. Column j's pivot is 1 / inv[j, j].
    inv = np.linalg.inv(G[..., 1:, 1:] * scale[..., :, None] * scale[..., None, :] + lay.fill)
    vif = inv.diagonal(axis1=-2, axis2=-1)
    m = ends[:, None] - lay.orders
    ok = (m > lay.min_rows) & ((vif > 0.0) & (vif < 1.0 / RANK_PIVOT)).all(axis=-1)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return (inv @ (rhs * scale)[..., None])[..., 0] * scale

    y = u[:, None, None, :]
    beta = solve(G[..., 1:, 0])
    resid = np.where(in_fit, y - beta @ X.swapaxes(-1, -2), 0.0)
    beta += solve(resid @ X)  # one refinement step from explicit residuals
    resid = np.where(in_fit, y - beta @ X.swapaxes(-1, -2), 0.0)
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
    return _fit_stack(values[None], spec)[0]


def _fit_stack(values: np.ndarray, spec: ForecasterSpec) -> list[FittedForecaster]:
    """fit_auto_ar on every series of an (S, n) stack, in one solve."""
    n = values.shape[1]
    fits = _fit_ar_prefixes(values, np.array([n]), spec.max_order, spec.include_drift)
    models = []
    for s, p in enumerate(fits.order[:, 0].tolist()):
        models.append(FittedForecaster(
            phi=fits.phi[s, 0, :p], intercept=float(fits.intercept[s, 0]), sigma2=float(fits.sigma2[s, 0]),
            order=p, aics=tuple(fits.aics[s, 0].tolist()),
        ))
    return models


def fit_auto_ar_stacked(trains: Sequence[TimeSeries], spec: ForecasterSpec) -> list[FittedForecaster | str]:
    """fit_auto_ar on each of many training series, in stacked solves.

    Series of equal length are fitted together, at most _STACK_BLOCK to a
    solve, and each gets bit for bit the model fit_auto_ar gives it. A
    series whose fit raises gets the error message in place of its model.
    """
    return _in_blocks(
        [len(t) for t in trains], lambda idx: _fit_stack(np.stack([trains[i].values for i in idx]), spec)
    )


# What a fit or an interval method raises on data it cannot handle (LinAlgError is a ValueError).
_METHOD_ERRORS = (ValueError, ArithmeticError)

# Series per stacked solve (cv_cp backtests, series-end fits, EnbPI members). 588 series of
# 84 points in one stack peak at about 36 MiB of solver temporaries
# (tracemalloc) in the cv_cp backtest, against about 5 MiB in blocks of 64,
# at about the same speed.
_STACK_BLOCK = 64


def _in_blocks(keys: Sequence[Hashable], solve: Callable[[list[int]], Sequence]) -> list:
    """Each item's result from solve(block), where a block lists the indices
    of at most _STACK_BLOCK items of equal key and solve returns one result
    per index.

    A block whose solve raises one of _METHOD_ERRORS is redone one item at
    a time, so that an error stays with its item: that item's
    result is the error message.
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
        except _METHOD_ERRORS as e:
            if len(block) > 1:
                blocks.extend([i] for i in block)
            else:
                out[block[0]] = str(e)
            continue
        for i, result in zip(block, results):
            out[i] = result
    return out


def _forecast_paths(
    values: np.ndarray, ends: np.ndarray, intercept: np.ndarray, phi: np.ndarray, horizon: int
) -> np.ndarray:
    """Recursive forecasts from the end of values[s, :T] for every series s
    of an (S, n) stack and every T in ends: (S, R, horizon).

    Row [s, r] uses intercept[s, r] and the coefficients phi[s, r],
    zero-padded past its order; the recursion runs over the horizon,
    vectorized over rows.
    """
    S, R, P = phi.shape
    path = np.zeros((S, R, P + horizon))  # lag values oldest first, then forecasts
    lag_idx = np.asarray(ends)[:, None] - np.arange(P, 0, -1)
    path[..., :P] = np.where(lag_idx >= 0, values[:, np.maximum(lag_idx, 0)], 0.0)
    oldest_first = phi[..., ::-1]
    for h in range(horizon):
        path[..., P + h] = intercept + np.einsum("...j,...j->...", path[..., h : P + h], oldest_first)
    return path[..., P:]


def forecast(model: FittedForecaster, history: np.ndarray | TimeSeries, horizon: int) -> np.ndarray:
    """Recursive multi-step point forecasts from the end of history."""
    values = history.values if isinstance(history, TimeSeries) else np.asarray(history, dtype=np.float64)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p = model.order
    if len(values) < p:
        raise ValueError(f"history shorter than AR order: {len(values)} < {p}")
    buf = list(values[len(values) - p :]) if p else []
    out = np.empty(horizon)
    for h in range(horizon):
        yhat = model.intercept
        for j in range(p):
            yhat += model.phi[j] * buf[-1 - j]
        out[h] = yhat
        if p:
            buf.append(yhat)
    return out


def sigma_h(model: FittedForecaster, horizon: int) -> np.ndarray:
    """Forecast standard deviations by the psi-weight recursion.

    psi_0 = 1, psi_k = sum_{j=1}^{min(k,p)} phi_j psi_{k-j};
    var(h) = sigma2 * sum_{k<h} psi_k^2.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p = model.order
    psi = np.empty(horizon)
    psi[0] = 1.0
    for k in range(1, horizon):
        acc = 0.0
        for j in range(1, min(k, p) + 1):
            acc += model.phi[j - 1] * psi[k - j]
        psi[k] = acc
    return np.sqrt(model.sigma2 * np.cumsum(psi * psi))


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
    return _prefix_forecasts(values[None], [len(values)], ForecasterSpec("seasonal_naive"), m, horizon)[0, 0]


def _prefix_forecasts(
    values: np.ndarray, ends: np.ndarray, spec: ForecasterSpec, period: int, horizon: int,
    refit_every: int | None = 1,
) -> np.ndarray:
    """(S, R, horizon) forecasts from the end of values[s, :T] for every
    series s of an (S, n) stack and every T in ends.

    auto_ar fits every refit_every-th prefix (None: the first only) in one
    batched solve, and each row uses the latest fit at or before it; ends
    must ascend. Seasonal naive reads step h of row T at T - period + (h-1) % period.
    """
    ends = np.asarray(ends, dtype=np.intp)
    if spec.kind == "seasonal_naive":
        if ends.min() < period:
            raise ValueError(f"seasonal naive needs at least one full period: {ends.min()} < {period}")
        return values[:, ends[:, None] - period + np.arange(horizon) % period]
    step = len(ends) if refit_every is None else refit_every
    fits = _fit_ar_prefixes(values, ends[::step], spec.max_order, spec.include_drift)
    model = np.arange(len(ends)) // step  # the latest fit at or before each end
    return _forecast_paths(values, ends, fits.intercept[:, model], fits.phi[:, model], horizon)
