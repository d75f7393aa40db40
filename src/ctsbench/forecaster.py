"""Point forecasters: AIC-selected autoregression and seasonal naive.

The AR forecaster fits each candidate order by least squares and keeps the
order with the smallest AIC. It plays the role usually delegated to a full
auto-ARIMA search; the conformal layer only consumes its point forecasts
(and, for the Gaussian baseline, its innovation variance), so any forecaster
with the same interface can be swapped in.

All least-squares fits go through one solver, `_fit_ar_prefixes`, which fits
every candidate order on every prefix values[:T] of one series at once;
`fit_auto_ar` is its one-prefix case. Order p regresses rows t >= p of one
lag matrix on an intercept and lags 1..p, so its cross-product [y X]'[y X]
on prefix T is a sum of per-row outer products over rows p..T-1: running
sums over rows P..T-1, shared by every order up to the largest P, plus the
order's own rows p..P-1. The sums only add, so a column that vanishes on a
fit's rows stays exactly zero. The cross-products of all (prefix, order)
pairs are scaled to unit diagonal and inverted in one batched call; each
solution is refined once from its explicit residuals, and the RSS comes
from the refined residuals, not from y'y - b'X'y, which cancels on
near-perfect fits.

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

With an intercept the series is first shifted by its first observation, a
value every prefix shares, so that a large level does not enter the
condition number; the intercept absorbs the shift and is mapped back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    n_train: int
    aic: float
    aics: tuple[float, ...]
    candidate_orders: tuple[int, ...]

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
    """Selected AR fits for R prefixes; phi is zero-padded to the largest order."""

    order: np.ndarray  # (R,)
    intercept: np.ndarray  # (R,)
    phi: np.ndarray  # (R, P)
    sigma2: np.ndarray  # (R,)
    aics: np.ndarray  # (R, P + 1), +inf where a candidate was rejected


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
    from_row: np.ndarray  # (P+1, 1, P) 0/1 weights of rows 0..P-1: rows >= p


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
        from_row=(orders[:P] >= orders[:, None, None]).astype(np.float64),
    )
    for a in layout:
        a.flags.writeable = False
    return layout


def _fit_ar_prefixes(
    values: np.ndarray, ends: np.ndarray, max_order: int, include_drift: bool
) -> _PrefixFits:
    """Fit AR(0..P) by least squares on values[:T] for every T in ends.

    ends must be ascending. P = min(max_order, max(ends) - 2); a prefix of
    length T admits the orders p <= T - 2 that leave more rows (T - p) than
    coefficients (p + include_drift).
    """
    ends = np.asarray(ends, dtype=np.intp)
    t0, n = int(ends[0]), int(ends[-1])
    if t0 < 3:
        raise ValueError(f"auto_ar needs at least 3 observations, have {t0}")
    P = min(max_order, n - 2)
    if t0 < P:
        return _fit_short_apart(values, ends, P, max_order, include_drift)
    lay = _order_layout(P, include_drift)
    shift = float(values[0]) if include_drift else 0.0
    u = values[:n] - shift
    # Row t of Z: [u[t], u[t-1], ..., u[t-P], 1], lags before the start zero.
    Z = np.zeros((n, P + 2))
    Z[:, 0] = u
    for j in range(1, P + 1):
        Z[j:, j] = u[:-j]
    Z[:, P + 1] = 1.0
    X = Z[:, 1:]
    # [y X]'[y X] of order p on prefix T sums the rows p..T-1: rows P..T-1,
    # shared by every order, plus rows p..P-1. The sums only add, so a
    # column that is zero on a fit's rows stays exactly zero.
    shared = np.empty((n - t0 + 1, P + 2, P + 2))
    shared[0] = Z[P:t0].T @ Z[P:t0]
    if n > t0:
        later = Z[t0:]
        np.cumsum(later[:, :, None] * later[:, None, :], axis=0, out=shared[1:])
        shared[1:] += shared[0]
    head = Z[:P]
    G = shared[ends - t0][:, None] + (head.T * lay.from_row) @ head  # (R, P+1, P+2, P+2)

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

    rows = np.arange(n)
    in_fit = (rows >= lay.orders[:, None]) & (rows < ends[:, None, None])
    beta = solve(G[..., 1:, 0])
    resid = np.where(in_fit, u - beta @ X.T, 0.0)
    beta += solve(resid @ X)  # one refinement step from explicit residuals
    resid = np.where(in_fit, u - beta @ X.T, 0.0)
    rss = np.einsum("...t,...t->...", resid, resid)

    m = np.maximum(m, 1)
    aics = np.where(ok, m * np.log(np.maximum(rss, 1e-300) / m) + lay.penalty, np.inf)
    best = aics.argmin(axis=1)  # the first minimum: ties go to the smaller order
    pick = np.arange(len(ends))
    coef = beta[pick, best]
    phi = coef[:, :P]
    intercept = coef[:, P] + shift * (1.0 - phi.sum(axis=1))
    sigma2 = rss[pick, best] / (m[pick, best] - lay.n_params[best])
    return _PrefixFits(best, intercept, phi, sigma2, aics)


def _fit_short_apart(
    values: np.ndarray, ends: np.ndarray, P: int, max_order: int, include_drift: bool
) -> _PrefixFits:
    """`_fit_ar_prefixes` where the leading ends are below P.

    Those prefixes admit fewer orders, so they are fitted apart and their
    phi and aics are padded (with 0 and +inf) to the width of the others.
    """
    cut = int(np.searchsorted(ends, P))
    short = _fit_ar_prefixes(values, ends[:cut], max_order, include_drift)
    rest = _fit_ar_prefixes(values, ends[cut:], max_order, include_drift)
    wider = ((0, 0), (0, P - short.phi.shape[1]))
    short = short._replace(
        phi=np.pad(short.phi, wider), aics=np.pad(short.aics, wider, constant_values=np.inf)
    )
    return _PrefixFits(*(np.concatenate(pair) for pair in zip(short, rest)))


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
    n = len(values)
    fits = _fit_ar_prefixes(values, np.array([n]), spec.max_order, spec.include_drift)
    p = int(fits.order[0])
    aics = fits.aics[0]
    return FittedForecaster(
        phi=fits.phi[0, :p], intercept=float(fits.intercept[0]), sigma2=float(fits.sigma2[0]),
        order=p, n_train=n, aic=float(aics[p]), aics=tuple(aics.tolist()),
        candidate_orders=tuple(range(len(aics))),
    )


def _forecast_paths(
    values: np.ndarray, ends: np.ndarray, intercept: np.ndarray, phi: np.ndarray, horizon: int
) -> np.ndarray:
    """Recursive forecasts, one row per T in ends, from the end of values[:T].

    Row r uses intercept[r] and the coefficients phi[r], zero-padded past
    its order; the recursion runs over the horizon, vectorized over rows.
    """
    R, P = phi.shape
    path = np.zeros((R, P + horizon))  # lag values oldest first, then forecasts
    lag_idx = np.asarray(ends)[:, None] - np.arange(P, 0, -1)
    path[:, :P] = np.where(lag_idx >= 0, values[np.maximum(lag_idx, 0)], 0.0)
    oldest_first = phi[:, ::-1]
    for h in range(horizon):
        path[:, P + h] = intercept + np.einsum("rj,rj->r", path[:, h : P + h], oldest_first)
    return path[:, P:]


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
    n = len(values)
    if n < m:
        raise ValueError(f"seasonal naive needs at least one full period: {n} < {m}")
    out = np.empty(horizon)
    for h in range(1, horizon + 1):
        idx = n + h - m * math.ceil(h / m) - 1
        out[h - 1] = values[idx]
    return out

