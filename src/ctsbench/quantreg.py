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

Every level has an optimal vertex: a line through p of the rows, for p
regression parameters, and neighbouring levels often share it. So with
more than two distinct levels, Newton solves only the lowest and the
highest (the seeds). Each seed fit is turned into its vertex, the exact
line through the p rows it fits most closely, and that vertex is
certified at every level by its optimality conditions: no other row lies
on the line (within a tie distance), and the dual weights of the p basis
rows, which are affine in tau, lie in [0, 1]. Each level takes the first
vertex certified for it. Levels that neither seed vertex certifies are
reached by Koenker & d'Orey's parametric pass (Appl. Statist. 1987): from
each seed vertex, pivot by pivot, the basis row whose dual weight leaves
[0, 1] first as tau moves away from the seed leaves the basis, the row
the ratio test picks enters, and each new vertex is certified at every
level as the seeds are. The walk takes at most three pivots a side, and
only towards levels within 3/n of its seed, for n rows, since a pivot
moves one row across the line. Levels it leaves uncertified (after a
singular or ill-conditioned basis, a tie, a seed vertex that loses more
than its Newton fit, or the bound) are Newton-solved, at those levels
alone. So every level gets an exact vertex or a Newton fit within the
gap tolerance. The Newton cap applies to each Newton solve.

Every operation acts on one problem at a time, so each problem of a
stack gets bit for bit the fit it gets alone. Every level with
tau < 1/n (strictly) shares its optimal lines with every other such
level, and every level with 1 - tau < 1/n likewise: each side is solved
once, at 1/(2n) or 1 - 1/(2n), away from the ill-conditioned edge. The
upper side is tested as 1 - tau < 1/n, which is exact for tau >= 1/2,
and not as tau > 1 - 1/n, which rounds twice at the boundary.

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
# A vertex is certified only when its basis inverse has no entry above
# _INV_TOL, and no row off its basis has a residual within _TIE_TOL times
# the largest |response| of zero. The bound keeps a residual's rounding
# error, at most about p * p * _INV_TOL * eps times that response, well
# inside the tie distance.
_INV_TOL = 1e4
_TIE_TOL = 1e-9
# Pivots the parametric pass may take from each seed vertex: see
# _solve_levels for why three.
_WALK_ROUNDS = 3


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

    Each level with 0 < tau < 1 is solved to optimality: by the
    Frisch–Newton interior point, or as a vertex certified optimal, found
    from the Newton fits of the lowest and highest level or a few pivots
    away from them. iters caps the Newton steps of each interior-point
    solve (SPCI-sized problems take about ten); reaching the cap before
    every level converges raises ArithmeticError rather than returning a
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
        # For tau < 1/n no residual may be negative at an optimum: lowering
        # the intercept gains while tau * (n - 1) < 1 - tau. So every such
        # level has the same optimal lines, and they are solved once, at
        # 1/(2n); likewise every level with 1 - tau < 1/n, at 1 - 1/(2n).
        # 1 - tau is exact for tau >= 1/2, where tau > 1 - 1/n would round.
        tau = taus[inner]
        tau = np.where(tau < 1.0 / n, 0.5 / n, tau)
        tau = np.where(1.0 - tau < 1.0 / n, 1.0 - 0.5 / n, tau)
        levels, lane = np.unique(tau, return_inverse=True)
        loc = np.median(y, axis=1)
        scale = np.mean(np.abs(y - loc[:, None]), axis=1)
        scale = np.where(scale > 0.0, scale, 1.0)
        c = _solve_levels(U, (y - loc[:, None]) / scale[:, None], levels, iters)
        b = np.linalg.solve(R, c.transpose(0, 2, 1)).transpose(0, 2, 1) * scale[:, None, None]
        b[:, :, 0] += loc[:, None]
        W[:, inner] = b[:, lane]

    coefs = np.where(degenerate[:, None], 0.0, W[:, :, 1:] / sd[:, None])
    intercepts = W[:, :, 0] - (coefs @ mu[:, :, None])[:, :, 0]
    # An optimum beyond 1/n has no negative residual and one at zero (no
    # positive one and one at zero beyond 1 - 1/n): moving the intercept to
    # the extreme residual would gain otherwise. A column that is nearly
    # dependent on the others leaves residuals of rounding size, but of
    # either sign, on the original scale, and each one of the wrong sign
    # costs about its full size instead of tau times it. So the intercept is
    # moved to the extreme residual there, the same for levels sharing a line.
    low = inner & (taus < 1.0 / n)
    edge = np.flatnonzero(low | (inner & (1.0 - taus < 1.0 / n)))
    if len(edge):
        resid = y[:, None] - intercepts[:, edge, None] - coefs[:, edge] @ X.transpose(0, 2, 1)
        intercepts[:, edge] += np.where(low[edge], resid.min(axis=2), resid.max(axis=2))
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


def _normal_matrices(q: np.ndarray, outer: np.ndarray, p: int) -> np.ndarray:
    """The normal matrices U' diag(q) U (B, T, p, p) of weights q (B, T, n)
    and row outer products outer (B, n, p*p), each with _RIDGE times its
    trace added to its diagonal, in place through the diagonal's view of
    the flat product."""
    F = q @ outer
    diag = F[..., :: p + 1]
    diag += (_RIDGE * diag.sum(axis=-1))[..., None]
    return F.reshape(*F.shape[:-1], p, p)


def _pinball_losses(r: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Pinball loss of each row of residuals r (..., T, n) at its level."""
    tau = taus[:, None]
    return np.maximum(tau * r, (tau - 1.0) * r).sum(axis=-1)


def _solve_levels(U: np.ndarray, ys: np.ndarray, levels: np.ndarray, iters: int) -> np.ndarray:
    """The coefficients c (B, T, p) of _frisch_newton at every level, from
    Newton solves at the lowest and highest level alone where they suffice.

    Each of these two seed fits is turned into a vertex: the line through
    the p rows it fits most closely, solved exactly. A vertex certifies
    the levels where it is optimal (see _vertices), and each level takes
    the first vertex that certifies it. A seed vertex certifies nothing
    when it loses more at its seed level than the Newton fit does by more
    than the gap tolerance; a seed level left uncertified takes its Newton
    fit. Koenker & d'Orey's parametric pass (_walk) then steps from each
    seed vertex towards the levels still uncertified, certifying each
    vertex it reaches. The levels it leaves uncertified are Newton-solved,
    each problem at those levels alone.

    The walk is bounded by _WALK_ROUNDS pivots a side, both sides taking
    theirs in the same round. A round costs about a sixth of the Newton
    solve it can save (0.30 against 1.5-2.0 ms on a lone SPCI fit of 32
    rows and 9 parameters), so three rounds cost a failed walk at most
    half a solve. A pivot moves one row across the line, and about n D
    rows cross it between two levels D apart, so a side walks only towards
    levels within _WALK_ROUNDS/n of its seed. A problem with an
    uncertified level that neither side can reach skips the walk, which
    would spend its rounds and still leave that level to Newton. On SPCI's
    stacks of perfbench's suite panels at seeds 0-2, three rounds finish
    25 of the 31 walks and four finish 26, while two finish 8, since 2/n
    falls short of most of SPCI's levels. None needs more than five.
    """
    if len(levels) <= 2:
        return _frisch_newton(U, ys, levels, iters)
    B, n, p = U.shape
    seeds = levels[[0, -1]]
    fits = _frisch_newton(U, ys, seeds, iters)
    newton = ys[:, None] - fits @ U.transpose(0, 2, 1)
    basis = np.argpartition(np.abs(newton), p - 1, axis=-1)[..., :p]
    vertex, inv, r, outside, g, f, valid, optimal = _vertices(U, ys, basis, levels)
    valid &= _pinball_losses(r, seeds) <= (1.0 + _GAP_TOL) * _pinball_losses(newton, seeds)
    certified = valid[:, :, None] & optimal
    c = vertex[np.arange(B)[:, None], certified.argmax(axis=1)]
    missed = ~certified.any(axis=1)
    ends = [0, -1]
    c[:, ends] = np.where(missed[:, ends, None], fits, c[:, ends])
    missed[:, ends] = False
    # A side walks from a seed vertex optimal at its own seed, towards the
    # uncertified levels near that seed; a problem walks only if its sides
    # can reach all its uncertified levels.
    near = n * np.stack([levels - seeds[0], seeds[1] - levels]) <= _WALK_ROUNDS
    start = certified[:, [0, 1], ends] & (missed[:, None] & near).any(axis=2)
    reach = (start[:, :, None] & near).any(axis=1)
    start &= ~(missed & ~reach).any(axis=1)[:, None]
    if start.any():
        prob, side = np.nonzero(start)
        state = [a[prob, side] for a in (basis, inv, r, outside, g[:, :, 0], f[:, :, 0])]
        _walk(U, ys, levels, prob, side == 0, near[side], state, c, missed)
    fallback = np.flatnonzero(missed.any(axis=1))
    if len(fallback):
        # One Newton solve per set of uncertified levels, so that a problem
        # is solved at the same levels in a stack as alone.
        sets, group = np.unique(missed[fallback], axis=0, return_inverse=True)
        for k, lanes in enumerate(sets):
            b = fallback[group.ravel() == k]
            c[b[:, None], lanes] = _frisch_newton(U[b], ys[b], levels[lanes], iters)
    return c


def _vertices(U: np.ndarray, ys: np.ndarray, basis: np.ndarray, levels: np.ndarray):
    """The vertices of problems U (B, n, p), ys (B, n) at bases (B, K, p) of
    p rows each, and the levels where each one is optimal.

    Returns the vertex (B, K, p), its basis inverse (B, K, p, p), its
    residuals (B, K, n), the mask of rows off its basis (B, K, n), the
    terms g and f (B, K, 1, p) of its basis rows' dual weights
    a_h(tau) = (1-tau) g - f, whether it is valid (B, K), and whether its
    dual weights lie in [0, 1] at each level (B, K, T). A valid vertex is
    optimal at the levels where they do. A vertex is not valid when its
    basis is singular or ill-conditioned (an inverse entry above
    _INV_TOL), or when a row off its basis ties: its residual lies within
    the tie distance of zero.
    """
    B, K, p = basis.shape
    b = np.arange(B)[:, None, None]
    Uh = U[b, basis]
    sign, _ = np.linalg.slogdet(Uh)
    valid = sign != 0
    if not valid.all():
        Uh[~valid] = np.eye(p)
    inv = np.linalg.inv(Uh)
    # U's columns are orthonormal, so a basis (p of its rows) has a 2-norm
    # of at most 1, and a condition number of at most p times its
    # inverse's largest entry.
    valid &= np.abs(inv).max(axis=(-2, -1)) <= _INV_TOL
    vertex = (inv @ ys[b, basis][..., None])[..., 0]
    r = ys[:, None] - vertex @ U.transpose(0, 2, 1)
    outside = np.ones(r.shape, dtype=bool)
    outside[b, np.arange(K)[:, None], basis] = False
    tie = _TIE_TOL * np.abs(ys).max(axis=1)[:, None, None]
    valid &= ~(outside & (np.abs(r) <= tie)).any(axis=-1)
    # Off the basis, a row's dual weight is 1 above the line and 0 below it;
    # the basis weights make up the rest of U'a = (1-tau) U'1.
    g = U.sum(axis=1)[:, None, None] @ inv
    f = ((outside & (r > 0.0)) @ U)[:, :, None] @ inv
    duals = (1.0 - levels)[:, None] * g - f
    optimal = ((duals >= 0.0) & (duals <= 1.0)).all(axis=-1)
    return vertex, inv, r, outside, g, f, valid, optimal


def _walk(U, ys, levels, prob, up, near, state, c, missed) -> None:
    """Koenker & d'Orey's parametric pass from optimal vertices. Walker w
    steps from a vertex of problem prob[w], upward in tau where up[w] and
    downward elsewhere, towards the levels in near[w] (W, T). state holds
    each walker's basis (W, p), basis inverse (W, p, p), residuals (W, n),
    off-basis mask (W, n) and dual terms g and f (W, p) of _vertices.
    Fills c (B, T, p) at each level in missed (B, T) that a vertex of the
    walk certifies, and clears missed there.

    A round takes one pivot per walker. The basis row whose dual weight
    leaves [0, 1] first as tau moves, at tau*, leaves the basis. At tau*,
    moving the line along that row's column of the inverse, so that the
    row drops below the line (where its weight reached 0) or rises above
    it (where it reached 1), loses nothing until an off-basis row's
    residual reaches zero: the first such row enters. Each new vertex is
    certified as the seeds are. A walker stops when none of its levels
    still uncertified lies beyond tau*, when its new vertex is not valid,
    when tau* does not move past the last one, or after _WALK_ROUNDS
    rounds.
    """
    basis, inv, r, outside, g, f = state
    sgn = np.where(up, 1.0, -1.0)[:, None]
    last = np.where(up, levels[0], -levels[-1])
    for _ in range(_WALK_ROUNDS):
        Uw, rows = U[prob], np.arange(len(prob))
        with np.errstate(divide="ignore", invalid="ignore"):
            # sgn * tau* of each basis row: a_h(tau) = (1-tau) g - f falls
            # to 0 where its slope -g points the walk's way, else rises to 1.
            to_zero = sgn * g > 0.0
            key = sgn * (1.0 - (f + ~to_zero) / g)
            key[g == 0.0] = np.inf
            j = key.argmin(axis=1)
            tau = key[rows, j]
            # Column j of the inverse moves the fit of basis row j alone:
            # up, below the line, where its weight fell to 0.
            d = inv[rows, :, j] * np.where(to_zero[rows, j], 1.0, -1.0)[:, None]
            step = (Uw @ d[..., None])[..., 0]
            t = np.where(outside & (r * step > 0.0), r / step, np.inf)
        k = t.argmin(axis=1)
        go = (tau > last) & (t[rows, k] < np.inf) & (missed[prob] & near & (sgn * levels > tau[:, None])).any(axis=1)
        if not go.any():
            return
        basis[rows, j] = k
        vertex, inv, r, outside, g, f, valid, optimal = _vertices(Uw, ys[prob], basis[:, None], levels)
        keep = go & valid[:, 0]
        certified = keep[:, None] & optimal[:, 0] & missed[prob]
        # Upward walkers first: where both of a problem's walkers certify a
        # level in one round, it takes the same vertex in a stack as alone.
        for side in (up, ~up):
            w, lane = np.nonzero(certified & side[:, None])
            c[prob[w], lane] = vertex[w, 0]
            missed[prob[w], lane] = False
        state = prob, up, near, sgn, tau, basis, inv[:, 0], r[:, 0], outside[:, 0], g[:, 0, 0], f[:, 0, 0]
        prob, up, near, sgn, last, basis, inv, r, outside, g, f = (a[keep] for a in state)


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
        M = _normal_matrices(q, outer, p)

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
