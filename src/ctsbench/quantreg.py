"""Exact linear quantile regression by a Frisch–Newton interior point.

For each quantile level tau the fit minimizes the total pinball loss
sum_i rho_tau(y_i - b0 - x_i'b) as the linear programme it is, to a
relative duality gap of 1e-11: exact up to rounding, not approximate.
The solver is the Frisch–Newton (Mehrotra predictor–corrector) interior
point of Portnoy & Koenker (1997), in the bounded-variable form of
`rq.fit.fnb`: it works on the dual programme
max y'a subject to [1 X]'a = (1-tau)[1 X]'1, 0 <= a <= 1, whose
Lagrange multipliers are the regression coefficients.

All interior levels of one call are solved together: every Newton step
builds one (T, p, p) normal matrix per level and factors them with one
batched solve, whose inverse serves both the predictor and the corrector.
A level stops once its duality gap, which bounds the excess pinball loss
of its coefficients, falls below a fixed fraction of that loss; only the
levels still open keep iterating. Levels below 1/n or above 1 - 1/n share
their optimal lines with every level on the same side, and are solved
at 1/(2n) and 1 - 1/(2n), away from the ill-conditioned edge.

Feature columns are standardized internally and coefficients mapped back,
so callers see original-scale parameters. Constant columns, and columns
linearly dependent on earlier ones, are dropped from the regression and
reported in the result. Levels 0 and 1 get the flat line at min(y) and
max(y), an exact optimum of their degenerate programmes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A level has converged once its duality gap is at most this fraction of
# its pinball loss (or of a floor, for a near-perfect fit).
_GAP_TOL = 1e-11
# Fraction of the distance to the boundary that a step may cover.
_STEP = 0.99995
# A column whose residual on the kept columns before it has a norm below
# this fraction of its own counts as linearly dependent.
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
    iters: int = 500,
) -> QuantileFit:
    """Fit one exact linear quantile regression per level in taus.

    Each level with 0 < tau < 1 is solved to optimality by the
    Frisch–Newton interior point. iters caps its number of Newton steps
    (SPCI-sized problems take about ten); reaching the cap before every
    level converges raises RuntimeError rather than returning a
    suboptimal fit. Levels tau = 0 and tau = 1 get the flat line at
    min(y) and max(y). Constant feature columns, and columns linearly
    dependent on earlier ones, get a zero coefficient and are marked in
    the result's degenerate mask.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, d = X.shape
    if len(y) != n:
        raise ValueError(f"length mismatch: X has {n} rows, y has {len(y)}")
    if n == 0:
        raise ValueError("cannot fit on an empty sample")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    if np.any(taus < 0.0) or np.any(taus > 1.0):
        raise ValueError("quantile levels must lie inside [0, 1]")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    degenerate = sd < 1e-12
    A = np.column_stack([np.ones(n), (X[:, ~degenerate] - mu[~degenerate]) / sd[~degenerate]])
    independent = _independent_columns(A)
    degenerate[~degenerate] = ~independent[1:]
    A = A[:, independent]
    active = ~degenerate

    T = len(taus)
    W = np.zeros((T, A.shape[1]))
    W[taus <= 0.0, 0] = y.min()
    W[taus >= 1.0, 0] = y.max()
    inner = (taus > 0.0) & (taus < 1.0)
    if inner.any():
        # Below tau = 1/n no residual may be negative at an optimum (moving
        # the intercept down would gain), so every such level has the same
        # optimal lines; likewise above 1 - 1/n. Solve those at 1/(2n).
        W[inner] = _frisch_newton(A, y, np.clip(taus[inner], 0.5 / n, 1.0 - 0.5 / n), iters)

    coefs = np.zeros((T, d))
    coefs[:, active] = W[:, 1:] / sd[active]
    intercepts = W[:, 0] - coefs[:, active] @ mu[active]
    return QuantileFit(taus=taus, intercepts=intercepts, coefs=coefs, degenerate=degenerate)


def _independent_columns(A: np.ndarray) -> np.ndarray:
    """Mask of the columns of A outside the span of the kept columns before them."""
    keep = np.zeros(A.shape[1], dtype=bool)
    basis = np.empty((A.shape[0], 0))
    for j, col in enumerate(A.T):
        res = col - basis @ (basis.T @ col)
        res -= basis @ (basis.T @ res)  # second Gram-Schmidt pass
        norm = np.linalg.norm(res)
        if norm > _RANK_TOL * np.linalg.norm(col):
            keep[j] = True
            basis = np.column_stack([basis, res / norm])
    return keep


def _step_length(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Per level, the damped largest t <= 1 keeping v + t*dv > 0, for v > 0."""
    shrink = -(dv / v).min(axis=1)
    return (_STEP / np.maximum(shrink, _STEP))[:, None]


def _frisch_newton(A: np.ndarray, y: np.ndarray, taus: np.ndarray, iters: int) -> np.ndarray:
    """Exact quantile-regression coefficients, shape (T, p), for 0 < taus < 1.

    A is the (n, p) design with full column rank. The solver works on its
    orthonormal factor U (A = U R), whose normal matrices are no worse
    conditioned than the interior-point weights make them, and maps the
    coefficients c = R b back at the end. Per level, the primal variables
    of the dual programme are a and its slack 1 - a, kept side by side in
    x (T, 2n); their reduced costs z and w are kept likewise in zw. Each
    Newton step aims at U'a = U'(1-tau) and y - U c = w - z, measuring both
    residuals afresh so that rounding cannot accumulate. Then the duality
    gap is x'zw, and the pinball loss of c is at most cost'zw, with cost
    the starting x = [1-tau, tau].
    """
    n = len(y)
    loc = float(np.median(y))
    scale = float(np.mean(np.abs(y - loc))) or 1.0
    ys = (y - loc) / scale
    T = len(taus)
    p = A.shape[1]
    U, R = np.linalg.qr(A)
    Ut = U.T
    # Row outer products: every level's normal matrix U' diag(q) U is one
    # row of a single (T, n) @ (n, p*p) product.
    outer = (U[:, :, None] * U[:, None, :]).reshape(n, p * p)

    # Start strictly inside, at c = 0: z - w = -ys with z, w > 0.
    zw = np.tile(np.concatenate([np.maximum(-ys, 0.0), np.maximum(ys, 0.0)]) + 0.5, (T, 1))
    x = np.repeat(np.column_stack([1.0 - taus, taus]), n, axis=1)
    cost = x.copy()
    c = np.zeros((T, p))
    # Loss floor for the stopping rule, for near-perfect fits: a thousandth
    # of about what the flat quantile line loses, n*min(tau, 1-tau) in
    # units of scale.
    floor = 1e-3 * n * np.minimum(taus, 1.0 - taus)

    out = np.empty_like(c)
    live = np.arange(T)
    for it in range(iters + 1):
        gap = (x * zw).sum(axis=1)
        done = gap <= _GAP_TOL * np.maximum((cost * zw).sum(axis=1), floor)
        if done.any():
            out[live[done]] = c[done]
            keep = ~done
            live = live[keep]
            if not len(live):
                break
            x, zw, cost, c, gap, floor = x[keep], zw[keep], cost[keep], c[keep], gap[keep], floor[keep]
        if it == iters:
            raise RuntimeError(
                f"interior point did not converge in {iters} Newton steps "
                f"for {len(live)} of {T} levels"
            )

        ratio = zw / x
        q = 1.0 / (ratio[:, :n] + ratio[:, n:])
        r = c @ Ut - ys
        rho = (cost[:, :n] - x[:, :n]) @ U
        # One batched solve against the identity: the inverse serves both
        # the predictor and the corrector.
        M = (q @ outer).reshape(-1, p, p)
        M += (_RIDGE * np.trace(M, axis1=1, axis2=2))[:, None, None] * np.eye(p)
        Minv = np.linalg.inv(M)

        # predictor: Newton step towards zero complementarity
        dc = np.einsum("tij,tj->ti", Minv, (q * r) @ U + rho)
        da = q * (dc @ Ut - r)
        dx = np.concatenate([da, -da], axis=1)
        dzw = -zw - ratio * dx
        fp, fd = _step_length(x, dx), _step_length(zw, dzw)

        # corrector: Mehrotra's centring target plus second-order terms
        g = ((x + fp * dx) * (zw + fd * dzw)).sum(axis=1)
        mu = (gap * (g / gap) ** 3 / (2 * n))[:, None]
        v = (mu - dx * dzw) / x
        xi = v[:, :n] - v[:, n:]
        dc = np.einsum("tij,tj->ti", Minv, (q * (r - xi)) @ U + rho)
        da = q * (dc @ Ut - r + xi)
        dx = np.concatenate([da, -da], axis=1)
        dzw = v - zw - ratio * dx
        fp, fd = _step_length(x, dx), _step_length(zw, dzw)

        x = x + fp * dx
        zw = zw + fd * dzw
        c = c - fd * dc

    b = np.linalg.solve(R, out.T).T * scale
    b[:, 0] += loc
    return b
