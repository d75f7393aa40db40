"""Exact linear quantile regression by a Frisch–Newton interior point.

For each quantile level tau the fit minimizes the total pinball loss
sum_i rho_tau(y_i - b0 - x_i'b) as the linear programme it is, to a
relative duality gap of 1e-11: exact up to rounding, not approximate.
The solver is the Frisch–Newton (Mehrotra predictor–corrector) interior
point of Portnoy & Koenker (1997), in the bounded-variable form of
`rq.fit.fnb`: it works on the dual programme
max y'a subject to [1 X]'a = (1-tau)[1 X]'1, 0 <= a <= 1, whose
Lagrange multipliers are the regression coefficients.

One solve takes a stack of B problems of equal size, all at the same T
levels (`fit_pinball_stacked`; `fit_pinball_linear` is its one-problem
case). Its arrays are laid out (B, T, ...): every Newton step builds one
normal matrix per problem and level, and its predictor and its corrector
each solve all of them in one batched call. A level has converged once
its duality gap, which bounds the excess pinball loss of its
coefficients, falls below a fixed fraction of that loss. It is then
frozen with zero step lengths while the other levels of its problem go
on, and a problem leaves the stack once all its levels have converged.
Every operation acts on one problem at a time, so each problem of a
stack gets bit for bit the fit it gets alone. Levels below 1/n or above
1 - 1/n share their optimal lines with every level on the same side;
they are solved once, at 1/(2n) and 1 - 1/(2n), away from the
ill-conditioned edge.

Feature columns are standardized internally and coefficients mapped back,
so callers see original-scale parameters. Constant columns (a standard
deviation of at most 1e-12 times the column's largest magnitude), and
columns linearly dependent on earlier ones, are dropped from the
regression and reported in the result. Levels 0 and 1 get the flat line
at min(y) and max(y), an exact optimum of their degenerate programmes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A level has converged once its duality gap is at most this fraction of
# its pinball loss (or of a floor, for a near-perfect fit).
_GAP_TOL = 1e-11
# Fraction of the distance to the boundary that a step may cover.
_STEP = 0.99995
# Newton steps a solve may take before it gives up.
_NEWTON_CAP = 500
# A column counts as constant when its standard deviation is at most this
# fraction of its largest magnitude.
_CONST_TOL = 1e-12
# A column whose residual on the columns before it has a norm below this
# fraction of its own counts as linearly dependent.
_RANK_TOL = 1e-9
# Ridge added to each normal matrix, relative to its trace: it keeps the
# matrix invertible when a degenerate programme sends weights to 0 or inf.
_RIDGE = 1e-15


@dataclass(frozen=True)
class QuantileFit:
    """Fitted lines, one per quantile level.

    intercepts has shape (T,), coefs shape (T, d), for T levels and d
    features. degenerate marks feature columns that were dropped from the
    regression, with a zero coefficient: those with (near-)zero variance
    and those linearly dependent on earlier columns.
    """

    taus: np.ndarray
    intercepts: np.ndarray
    coefs: np.ndarray
    degenerate: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Quantile predictions at a single feature vector, shape (T,)."""
        x = np.asarray(x, dtype=np.float64)
        return self.intercepts + self.coefs @ x


def fit_pinball_linear(
    X: np.ndarray,
    y: np.ndarray,
    taus: np.ndarray,
    iters: int = _NEWTON_CAP,
) -> QuantileFit:
    """Fit one exact linear quantile regression per level in taus.

    Each level with 0 < tau < 1 is solved to optimality by the
    Frisch–Newton interior point. iters caps its number of Newton steps
    (SPCI-sized problems take about ten); reaching the cap before every
    level converges raises ArithmeticError rather than returning a
    suboptimal fit. Levels tau = 0 and tau = 1 get the flat line at
    min(y) and max(y). Constant feature columns, and columns linearly
    dependent on earlier ones, get a zero coefficient and are marked in
    the result's degenerate mask.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if len(y) != len(X):
        raise ValueError(f"length mismatch: X has {len(X)} rows, y has {len(y)}")
    return _fit_stack(X[None], y[None], taus, iters)[0]


def fit_pinball_stacked(X: np.ndarray, y: np.ndarray, taus: np.ndarray) -> list[QuantileFit]:
    """fit_pinball_linear of every problem of a stack, X (B, n, d) and y (B, n).

    The problems share the levels and the Newton cap, which counts the
    steps of the whole stack. Each problem gets bit for bit the fit that
    fit_pinball_linear gives it alone.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError("X must be 3-D: (problems, rows, features)")
    return _fit_stack(X, np.asarray(y, dtype=np.float64), taus, _NEWTON_CAP)


def constant_columns(X: np.ndarray) -> np.ndarray:
    """Mask of the columns of X (..., n, d) that the fits treat as constant:
    a standard deviation of at most _CONST_TOL times the largest magnitude."""
    return X.std(axis=-2) <= _CONST_TOL * np.abs(X).max(axis=-2)


def _fit_stack(X: np.ndarray, y: np.ndarray, taus: np.ndarray, iters: int) -> list[QuantileFit]:
    """The fits of fit_pinball_stacked, with at most iters Newton steps."""
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    B, n, d = X.shape
    if y.shape != (B, n):
        raise ValueError(f"shape mismatch: X is {X.shape}, y is {y.shape}")
    if n == 0:
        raise ValueError("cannot fit on an empty sample")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    if np.any(taus < 0.0) or np.any(taus > 1.0):
        raise ValueError("quantile levels must lie inside [0, 1]")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if B == 0:
        return []

    mu = X.mean(axis=1)
    degenerate = constant_columns(X)
    sd = np.where(degenerate, 1.0, X.std(axis=1))
    A = np.ones((B, n, d + 1))
    A[:, :, 1:] = np.where(degenerate[:, None], 0.0, (X - mu[:, None]) / sd[:, None])
    U, R, kept = _orthonormal_factor(A)
    degenerate |= ~kept[:, 1:]

    W = np.zeros((B, len(taus), d + 1))
    W[:, taus <= 0.0, 0] = y.min(axis=1)[:, None]
    W[:, taus >= 1.0, 0] = y.max(axis=1)[:, None]
    inner = (taus > 0.0) & (taus < 1.0)
    if inner.any():
        # Below tau = 1/n no residual may be negative at an optimum (moving
        # the intercept down would gain), so every such level has the same
        # optimal lines; likewise above 1 - 1/n. Solve those once, at 1/(2n).
        levels, lane = np.unique(np.clip(taus[inner], 0.5 / n, 1.0 - 0.5 / n), return_inverse=True)
        loc = np.median(y, axis=1)
        scale = np.mean(np.abs(y - loc[:, None]), axis=1)
        scale = np.where(scale > 0.0, scale, 1.0)
        c = _frisch_newton(U, (y - loc[:, None]) / scale[:, None], levels, iters)
        b = np.linalg.solve(R, c.transpose(0, 2, 1)).transpose(0, 2, 1) * scale[:, None, None]
        b[:, :, 0] += loc[:, None]
        W[:, inner] = b[:, lane]

    coefs = np.where(degenerate[:, None], 0.0, W[:, :, 1:] / sd[:, None])
    intercepts = W[:, :, 0] - (coefs @ mu[:, :, None])[:, :, 0]
    return [
        QuantileFit(taus=taus, intercepts=intercepts[i], coefs=coefs[i], degenerate=degenerate[i])
        for i in range(B)
    ]


def _orthonormal_factor(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal factors of every design of a (B, n, p) stack.

    Returns U (B, n, p), R (B, p, p) and kept (B, p). Column j is kept when
    its residual on the columns before it has a norm above _RANK_TOL times
    its own. A's kept columns are U R's, U's other columns are zero, and R
    is invertible, with a unit column for each dropped column. A design
    that keeps every column gets its plain QR factors.
    """
    Q, R = np.linalg.qr(A)
    kept = np.abs(np.diagonal(R, axis1=1, axis2=2)) > _RANK_TOL * np.sqrt((A * A).sum(axis=1))
    if kept.all():
        return Q, R, kept
    # Factor the kept columns alone: zeroed and moved last, the dropped
    # columns leave the kept columns' factors as they are. Then every
    # column goes back to its place.
    order = np.argsort(~kept, axis=1, kind="stable")
    back = np.argsort(order, axis=1)[:, None]
    Q, R = np.linalg.qr(np.take_along_axis(A * kept[:, None], order[:, None], axis=2))
    U = np.take_along_axis(Q, back, axis=2) * kept[:, None]
    R = np.take_along_axis(np.take_along_axis(R, back, axis=2), back.transpose(0, 2, 1), axis=1)
    diag = np.arange(A.shape[2])
    R[:, diag, diag] += ~kept
    return U, R, kept


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of a and b, as one stacked matmul:
    one BLAS dot per vector, so a problem's value does not depend on the
    stack around it (numpy >= 2 spells this np.vecdot)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _step_length(v: np.ndarray, dv: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Per level, the damped largest t <= 1 keeping v + t*dv > 0, for v > 0,
    and 0 where the level is not active."""
    shrink = -(dv / v).min(axis=-1, keepdims=True)
    return _STEP / np.maximum(shrink, _STEP) * active


def _frisch_newton(U: np.ndarray, ys: np.ndarray, taus: np.ndarray, iters: int) -> np.ndarray:
    """Quantile-regression coefficients c (B, T, p) of ys (B, n) on the
    columns of U (B, n, p), for 0 < taus < 1 (T,).

    U's nonzero columns are orthonormal, and a zero column keeps a zero
    coefficient; the caller maps c back to its design (A = U R, b = R^-1 c).
    Orthonormal columns keep the normal matrices no worse conditioned than
    the interior-point weights make them. Per level, the primal variables
    of the dual programme are a and its slack 1 - a, kept side by side in
    x (B, T, 2n); their reduced costs z and w are kept likewise in zw.
    Each Newton step aims at U'a = U'(1-tau) and ys - U c = w - z,
    measuring both residuals afresh so that rounding cannot accumulate.
    Then the duality gap is x'zw, and the pinball loss of c is at most
    cost'zw, with cost the starting x = [1-tau, tau].
    """
    B, n, p = U.shape
    T = len(taus)
    Ut = U.transpose(0, 2, 1)
    # Row outer products: every normal matrix U' diag(q) U of a problem is
    # one row of a single (T, n) @ (n, p*p) product.
    outer = (U[:, :, :, None] * U[:, :, None, :]).reshape(B, n, p * p)
    cost = np.repeat(np.column_stack([1.0 - taus, taus]), n, axis=1)

    # Start strictly inside, at c = 0: z - w = -ys with z, w > 0.
    start = np.concatenate([np.maximum(-ys, 0.0), np.maximum(ys, 0.0)], axis=1) + 0.5
    zw = np.repeat(start[:, None], T, axis=1)
    x = np.broadcast_to(cost, zw.shape).copy()
    ys = ys[:, None]
    c = np.zeros((B, T, p))
    # Loss floor for the stopping rule, for near-perfect fits: a thousandth
    # of about what the flat quantile line loses, n*min(tau, 1-tau) in
    # units of scale.
    floor = 1e-3 * n * np.minimum(taus, 1.0 - taus)

    out = np.empty_like(c)
    live = np.arange(B)
    done = np.zeros((B, T), dtype=bool)
    for it in range(iters + 1):
        gap = _dot(x, zw)
        done |= gap <= _GAP_TOL * np.maximum(_dot(cost, zw), floor)
        finished = done.all(axis=1)
        if finished.any():
            out[live[finished]] = c[finished]
            keep = ~finished
            live = live[keep]
            if not len(live):
                break
            U, Ut, outer, ys = U[keep], Ut[keep], outer[keep], ys[keep]
            x, zw, c, gap, done = x[keep], zw[keep], c[keep], gap[keep], done[keep]
        if it == iters:
            raise ArithmeticError(
                f"interior point did not converge in {iters} Newton steps "
                f"for {np.count_nonzero(~done)} of {done.size} levels"
            )
        # A converged level is frozen: zero step lengths keep its x, zw and c.
        active = ~done[:, :, None]

        ratio = zw / x
        q = 1.0 / (ratio[:, :, :n] + ratio[:, :, n:])
        r = c @ Ut - ys
        rho = (cost[:, :n] - x[:, :, :n]) @ U
        M = (q @ outer).reshape(*gap.shape, p, p)
        M += (_RIDGE * np.trace(M, axis1=-2, axis2=-1))[..., None, None] * np.eye(p)

        # predictor: Newton step towards zero complementarity
        dc = np.linalg.solve(M, ((q * r) @ U + rho)[..., None])[..., 0]
        da = q * (dc @ Ut - r)
        dx = np.concatenate([da, -da], axis=-1)
        dzw = -zw - ratio * dx
        fp, fd = _step_length(x, dx, active), _step_length(zw, dzw, active)

        # corrector: Mehrotra's centring target plus second-order terms
        g = _dot(x + fp * dx, zw + fd * dzw)
        mu = (gap * (g / gap) ** 3 / (2 * n))[:, :, None]
        v = (mu - dx * dzw) / x
        xi = v[:, :, :n] - v[:, :, n:]
        dc = np.linalg.solve(M, ((q * (r - xi)) @ U + rho)[..., None])[..., 0]
        da = q * (dc @ Ut - r + xi)
        dx = np.concatenate([da, -da], axis=-1)
        dzw = v - zw - ratio * dx
        fp, fd = _step_length(x, dx, active), _step_length(zw, dzw, active)

        x = x + fp * dx
        zw = zw + fd * dzw
        c = c - fd * dc
    return out
