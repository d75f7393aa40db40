"""Exact linear quantile regression, checked against scipy's HiGHS LP solver."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from ctsbench import quantreg
from ctsbench.quantreg import fit_pinball_linear, fit_pinball_stacked

# SPCI's default levels at alpha = 0.1: beta in [0, 0.1] and 0.9 + beta.
SPCI_TAUS = np.concatenate([np.linspace(0.0, 0.1, 11), 0.9 + np.linspace(0.0, 0.1, 11)])


def pinball(resid, tau):
    return float(np.sum(np.maximum(tau * resid, (tau - 1.0) * resid)))


def fit_losses(fit, X, y):
    return np.array(
        [pinball(y - fit.intercepts[k] - X @ fit.coefs[k], tau) for k, tau in enumerate(fit.taus)]
    )


def exact_loss(X, y, tau):
    """Optimal pinball loss: min tau*1'u + (1-tau)*1'v s.t. [1 X]b + u - v = y."""
    n = len(y)
    A = np.column_stack([np.ones(n), X])
    p = A.shape[1]
    cost = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    res = linprog(
        cost,
        A_eq=np.hstack([A, np.eye(n), -np.eye(n)]),
        b_eq=y,
        bounds=[(None, None)] * p + [(0.0, None)] * (2 * n),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def random_design(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(17, 61))
    d = int(rng.integers(1, 9))
    X = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0, d) + rng.uniform(-50.0, 50.0, d)
    y = X @ rng.standard_normal(d) + rng.standard_t(3, n) * rng.uniform(0.1, 10.0)
    return X, y


@pytest.mark.parametrize("seed", range(12))
def test_matches_highs_optimum(seed):
    X, y = random_design(seed)
    fit = fit_pinball_linear(X, y, SPCI_TAUS)
    got = fit_losses(fit, X, y)
    want = np.array([exact_loss(X, y, tau) for tau in SPCI_TAUS])
    assert got.sum() == pytest.approx(want.sum(), rel=1e-7)
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9 * want.sum())


def spci_lag_design(seed):
    """SPCI's design on an AR(1) residual stream of 40: 32 rows of 8 lags."""
    rng = np.random.default_rng(seed)
    e = np.zeros(40)
    for t in range(1, 40):
        e[t] = 0.7 * e[t - 1] + rng.standard_normal()
    return np.lib.stride_tricks.sliding_window_view(e, 8)[:-1], e[8:]


def test_matches_highs_on_spci_lag_design():
    X, y = spci_lag_design(3)
    fit = fit_pinball_linear(X, y, SPCI_TAUS)
    want = sum(exact_loss(X, y, tau) for tau in SPCI_TAUS)
    assert fit_losses(fit, X, y).sum() == pytest.approx(want, rel=1e-7)


def test_edge_levels_give_flat_min_max_line():
    X, y = random_design(5)
    fit = fit_pinball_linear(X, y, np.array([0.0, 0.5, 1.0]))
    assert fit.intercepts[0] == y.min() == np.quantile(y, 0.0)
    assert fit.intercepts[2] == y.max() == np.quantile(y, 1.0)
    assert not fit.coefs[[0, 2]].any()
    assert fit_losses(fit, X, y)[[0, 2]].tolist() == [0.0, 0.0]


def test_single_level_and_shapes():
    X, y = random_design(8)
    fit = fit_pinball_linear(X, y, 0.5)
    assert fit.taus.shape == (1,)
    assert fit.intercepts.shape == (1,)
    assert fit.coefs.shape == (1, X.shape[1])
    assert fit.predict(X[0]).shape == (1,)
    assert fit_losses(fit, X, y)[0] == pytest.approx(exact_loss(X, y, 0.5), rel=1e-7)


@pytest.mark.parametrize(
    "X, y, taus, match",
    [
        (np.arange(5.0), np.arange(5.0), [0.5], "2-D"),
        (np.ones((5, 2)), np.ones(4), [0.5], "length mismatch"),
        (np.ones((0, 2)), np.ones(0), [0.5], "empty"),
        (np.ones((5, 2)), np.array([0.0, 1.0, np.nan, 2.0, 3.0]), [0.5], "finite"),
        (np.full((5, 2), np.inf), np.ones(5), [0.5], "finite"),
        (np.ones((5, 2)), np.ones(5), [1.5], r"\[0, 1\]"),
        (np.ones((5, 2)), np.ones(5), [-0.1, 0.5], r"\[0, 1\]"),
    ],
)
def test_invalid_input(X, y, taus, match):
    with pytest.raises(ValueError, match=match):
        fit_pinball_linear(X, y, np.asarray(taus))


def test_constant_column_is_dropped():
    X, y = random_design(2)
    wide = np.column_stack([X[:, :1], np.full(len(y), 4.0), X[:, 1:]])
    fit = fit_pinball_linear(wide, y, SPCI_TAUS)
    assert fit.degenerate.tolist() == [False, True] + [False] * (X.shape[1] - 1)
    assert not fit.coefs[:, 1].any()
    narrow = fit_pinball_linear(X, y, SPCI_TAUS)
    np.testing.assert_allclose(
        fit_losses(fit, wide, y), fit_losses(narrow, X, y), rtol=1e-7, atol=1e-9
    )


def test_all_constant_columns_fit_intercept_only():
    y = np.arange(20.0)
    fit = fit_pinball_linear(np.ones((20, 2)), y, np.array([0.25, 0.5]))
    assert fit.degenerate.tolist() == [True, True]
    assert not fit.coefs.any()
    assert fit_losses(fit, np.ones((20, 2)), y) == pytest.approx(
        [exact_loss(np.ones((20, 0)), y, 0.25), exact_loss(np.ones((20, 0)), y, 0.5)], rel=1e-7
    )


def test_linearly_dependent_column_is_dropped():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 3))
    X = np.column_stack([X, 2.0 * X[:, 0] - X[:, 2] + 7.0])
    y = X[:, 1] + rng.standard_normal(25)
    fit = fit_pinball_linear(X, y, SPCI_TAUS)
    assert fit.degenerate.tolist() == [False, False, False, True]
    assert not fit.coefs[:, 3].any()
    want = sum(exact_loss(X, y, tau) for tau in SPCI_TAUS)
    assert fit_losses(fit, X, y).sum() == pytest.approx(want, rel=1e-7)


def test_perfect_fit_is_interpolated():
    X = np.arange(20.0)[:, None]
    y = 2.0 * X[:, 0] + 1.0
    fit = fit_pinball_linear(X, y, np.array([0.1, 0.5, 0.9]))
    np.testing.assert_allclose(fit.intercepts, 1.0, atol=1e-8)
    np.testing.assert_allclose(fit.coefs[:, 0], 2.0, atol=1e-8)


# random_design(6) has n = 36 rows.
_N6 = 36


@pytest.mark.parametrize(
    "tau",
    [
        1e-3,
        pytest.param(0.75 / _N6, id="0.75/n"),
        pytest.param(1.0 - 0.75 / _N6, id="1-0.75/n"),
        1.0 - 1e-3,
    ],
)
def test_levels_beyond_one_over_n_match_highs(tau):
    # Solved at 1/(2n) or 1 - 1/(2n), which share the optimal lines. 1e-3
    # and 1 - 1e-3 lie beyond 1/(2n) and 1 - 1/(2n); 0.75/n and 1 - 0.75/n
    # lie in the bands [1/(2n), 1/n) and (1 - 1/n, 1 - 1/(2n)].
    X, y = random_design(6)
    assert len(y) == _N6
    fit = fit_pinball_linear(X, y, np.array([tau]))
    assert fit_losses(fit, X, y)[0] == pytest.approx(exact_loss(X, y, tau), rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(
    data=st.integers(5, 40).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, 2), elements=st.floats(-100.0, 100.0)),
            arrays(np.float64, n, elements=st.floats(-100.0, 100.0)),
        )
    ),
    fractions=st.lists(st.floats(1e-6, 0.99), min_size=2, max_size=5),
)
def test_levels_beyond_one_over_n_share_a_line_above_or_below_every_point(data, fractions):
    # For 0 < tau < 1/n no residual is negative at an optimum, and for
    # 0 < 1 - tau < 1/n none is positive: each side's levels share their
    # lines. (Levels 0 and 1 get the flat lines at min(y) and max(y).)
    X, y = data
    n = len(y)
    low = np.array(fractions) / n
    fit = fit_pinball_linear(X, y, np.concatenate([low, 1.0 - low]))
    resid = y - fit.intercepts[:, None] - fit.coefs @ X.T
    tol = 1e-9 * (1.0 + np.abs(y).max())
    k = len(low)
    assert resid[:k].min() >= -tol
    assert resid[k:].max() <= tol
    for half in (slice(0, k), slice(k, None)):
        for field in (fit.intercepts, fit.coefs):
            assert (field[half] == field[half][:1]).all()


def spy_on_solves(monkeypatch):
    """Record, per _solve_levels call, its count of distinct levels, the
    lane counts of the _frisch_newton calls it makes, and the rounds its
    walk takes (the _vertices calls after the seeds' one)."""
    solved, newton, rounds = [], [], []
    solve_levels, frisch_newton, vertices = quantreg._solve_levels, quantreg._frisch_newton, quantreg._vertices

    def levels_spy(U, ys, real, levels, iters):
        solved.append(len(np.unique(levels)))
        newton.append([])
        rounds.append(-1)
        return solve_levels(U, ys, real, levels, iters)

    def newton_spy(U, ys, real, taus, iters):
        newton[-1].append(taus.shape[1])
        return frisch_newton(U, ys, real, taus, iters)

    def vertices_spy(U, ys, real, basis, levels):
        rounds[-1] += 1
        return vertices(U, ys, real, basis, levels)

    monkeypatch.setattr(quantreg, "_solve_levels", levels_spy)
    monkeypatch.setattr(quantreg, "_frisch_newton", newton_spy)
    monkeypatch.setattr(quantreg, "_vertices", vertices_spy)
    return solved, newton, rounds


def assert_matches_highs(fit, X, y):
    """Every level's pinball loss is HiGHS's optimum, to within the gap
    tolerance's reach plus a rounding floor: a perfect fit's optimum is 0,
    and its exact line still leaves residuals of rounding size."""
    got = fit_losses(fit, X, y)
    want = np.array([exact_loss(X, y, tau) for tau in fit.taus])
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9 * want.sum() + 1e-12 * np.abs(y).sum())


def test_spci_levels_solved_once_beyond_one_over_n(monkeypatch):
    # SPCI_TAUS's 20 inner levels, with the merged ones solved once: at
    # n = 17, 0.01..0.05 and 0.95..0.99 each share one solve. Newton solves
    # the two extreme levels, and others only where no vertex certifies them.
    solved, newton, _ = spy_on_solves(monkeypatch)
    rng = np.random.default_rng(4)
    for n in (17, 20, 28):
        fit_pinball_linear(rng.standard_normal((n, 8)), rng.standard_normal(n), SPCI_TAUS)
    assert solved == [12, 13, 16]
    assert all(calls[0] == 2 and all(k < levels - 1 for k in calls[1:]) for calls, levels in zip(newton, solved))


def test_ridge_is_added_on_the_diagonal_in_place():
    # bit for bit the full-matrix form M + ridge * trace(M) * I
    rng = np.random.default_rng(11)
    B, T, n, p = 12, 20, 30, 9
    for _ in range(50):
        U = rng.standard_normal((B, n, p))
        Ut = np.ascontiguousarray(U.transpose(0, 2, 1))
        q = 10.0 ** rng.uniform(-15.0, 15.0, (B, T, n))
        want = (Ut[:, None] * q[:, :, None, :]) @ U[:, None]
        want += (quantreg._RIDGE * np.trace(want, axis1=-2, axis2=-1))[..., None, None] * np.eye(p)
        assert np.array_equal(quantreg._normal_matrices(q, U, Ut), want)


def test_degenerate_programme_with_non_unique_optimum():
    # rows 0 and 3 share their features but not their response, and only
    # n - p = 1 row is left over: the normal matrices become singular
    # without the ridge
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 2522.0], [0.0, 0.0]])
    y = np.array([0.0, 0.0, 0.0, 1.0])
    taus = np.array([0.3, 0.5])
    fit = fit_pinball_linear(X, y, taus)
    want = [exact_loss(X, y, tau) for tau in taus]
    np.testing.assert_allclose(fit_losses(fit, X, y), want, rtol=1e-7, atol=1e-12)


def test_newton_cap_raises_instead_of_returning():
    X, y = random_design(1)
    # an ArithmeticError, which the benchmark turns into the series' skip reason
    with pytest.raises(ArithmeticError, match="did not converge in 1 Newton step"):
        fit_pinball_linear(X, y, SPCI_TAUS, iters=1)
    with pytest.raises(ValueError, match="iters"):
        fit_pinball_linear(X, y, SPCI_TAUS, iters=0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.integers(5, 40).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, 3), elements=st.floats(-100.0, 100.0)),
            arrays(np.float64, n, elements=st.floats(-100.0, 100.0)),
        )
    ),
    tau=st.floats(0.0, 1.0),
)
# Two columns 2**-24 apart fit y exactly, with coefficients near 2**24: the
# fitted line's residuals of rounding size must not fall below zero at a
# level this far below 1/n, where each negative one costs its full size.
@example(
    data=(
        np.array([[2.0**-24, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
    ),
    tau=1.6997658805975471e-158,
)
def test_never_worse_than_constant_quantile_line(data, tau):
    # the constant line is one feasible point of the linear programme
    X, y = data
    fit = fit_pinball_linear(X, y, np.array([tau]))
    const = pinball(y - np.quantile(y, tau), tau)
    assert fit_losses(fit, X, y)[0] <= const + 1e-9 * (1.0 + const)


def _stack_problem(rng, kind, n, d):
    """One design of a stack: plain, with a constant column, with a column
    dependent on the others, with every column constant, or tied: every row
    but an odd last one repeated, so that every vertex's basis holds a row
    and its copy, or leaves out a copy at zero residual."""
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d) + rng.uniform(-5.0, 5.0, d)
    if kind == "constant":
        X[:, rng.integers(d)] = rng.uniform(-5.0, 5.0)
    elif kind == "dependent":
        X[:, -1] = 2.0 * X[:, 0] - 0.5 * X[:, :-1].sum(axis=1) + 3.0
    elif kind == "all_constant":
        X[:] = rng.uniform(-5.0, 5.0, d)
    y = X[:, 0] + rng.standard_t(3, n)
    if kind == "tied":
        X[1::2], y[1::2] = X[: n - 1 : 2], y[: n - 1 : 2]
    return X, y


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["plain", "constant", "dependent", "all_constant"]), min_size=1, max_size=5),
    n=st.integers(12, 30),
    d=st.integers(2, 5),
)
def test_each_problem_of_a_stack_gets_its_lone_fit(seed, kinds, n, d):
    rng = np.random.default_rng(seed)
    X, y = map(np.stack, zip(*(_stack_problem(rng, kind, n, d) for kind in kinds)))
    taus = np.array([0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0])
    fits = fit_pinball_stacked(X, y, taus)
    assert len(fits) == len(kinds)
    for kind, Xb, yb, fit in zip(kinds, X, y, fits):
        assert fit.degenerate.all() if kind == "all_constant" else fit.degenerate.any() == (kind != "plain")
        alone = fit_pinball_linear(Xb, yb, taus)
        for field in ("intercepts", "coefs", "degenerate"):
            assert getattr(fit, field).tobytes() == getattr(alone, field).tobytes(), field
        got = fit_losses(fit, Xb, yb)
        want = np.array([exact_loss(Xb, yb, tau) for tau in taus])
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9 * want.sum())


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["plain", "tied", "dependent", "all_constant"]), min_size=1, max_size=4),
    n=st.integers(17, 36),
    d=st.integers(2, 8),
)
def test_certified_and_fallback_problems_of_an_spci_stack(seed, kinds, n, d):
    # Only a plain design can have every level certified by a vertex: the
    # others' bases are singular or tie, and their uncertified levels are
    # Newton-solved. Each problem still gets its lone fit and the optimum.
    rng = np.random.default_rng(seed)
    X, y = map(np.stack, zip(*(_stack_problem(rng, kind, n, d) for kind in kinds)))
    with pytest.MonkeyPatch.context() as mp:
        _, newton, _ = spy_on_solves(mp)
        fits = fit_pinball_stacked(X, y, SPCI_TAUS)
        alone = [fit_pinball_linear(Xb, yb, SPCI_TAUS) for Xb, yb in zip(X, y)]
    for kind, Xb, yb, fit, lone, calls in zip(kinds, X, y, fits, alone, newton[1:]):
        assert kind == "plain" or len(calls) == 2, kind
        for field in ("intercepts", "coefs", "degenerate"):
            assert getattr(fit, field).tobytes() == getattr(lone, field).tobytes(), field
        assert_matches_highs(fit, Xb, yb)


def sixty_row_design():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 3))
    return X, X @ np.array([1.0, -0.5, 2.0]) + rng.standard_normal(60)


def test_levels_between_two_vertices_are_certified_by_the_walk(monkeypatch):
    # On 60 rows the optimal line moves between levels 0.1 and 0.15: the
    # seed fits at 0.1 and 0.15 both lose more than the optimum at a level
    # between them. The walk certifies every such level, each at a vertex
    # (p = 4 rows on its line), so no second Newton solve runs.
    X, y = sixty_row_design()
    taus = np.linspace(0.1, 0.15, 6)
    _, newton, rounds = spy_on_solves(monkeypatch)
    fit = fit_pinball_linear(X, y, taus)
    assert newton == [[2]]
    assert 1 <= rounds[0] <= quantreg._WALK_ROUNDS
    assert_matches_highs(fit, X, y)
    resid = y - fit.intercepts[:, None] - fit.coefs @ X.T
    assert ((np.abs(resid) <= 1e-12 * np.abs(y).max()).sum(axis=1) == 4).all()
    seed_losses = [[pinball(y - fit.intercepts[e] - X @ fit.coefs[e], tau) for tau in taus] for e in (0, -1)]
    assert (np.min(seed_losses, axis=0) > fit_losses(fit, X, y) * (1.0 + 1e-7)).any()


def test_the_walk_stops_at_its_bound_and_newton_solves_the_rest(monkeypatch):
    # On this SPCI design the walk needs more than _WALK_ROUNDS pivots a
    # side: it stops there, and Newton solves the one level it leaves
    # (not the seeds again). With a higher bound it certifies that level.
    X, y = spci_lag_design(6)
    _, newton, rounds = spy_on_solves(monkeypatch)
    fit = fit_pinball_linear(X, y, SPCI_TAUS)
    assert newton == [[2, 1]] and rounds == [quantreg._WALK_ROUNDS]
    assert_matches_highs(fit, X, y)
    monkeypatch.setattr(quantreg, "_WALK_ROUNDS", 10)
    walked = fit_pinball_linear(X, y, SPCI_TAUS)
    assert newton[1:] == [[2]] and rounds[1] > 3
    assert_matches_highs(walked, X, y)


def test_levels_beyond_the_walks_reach_go_straight_to_newton(monkeypatch):
    # Levels 0.1..0.4 on 60 rows: the middle levels lie more than
    # _WALK_ROUNDS/n = 0.05 from both seeds, and no seed vertex certifies
    # 0.25 (both seed fits lose more there than its optimum). The problem
    # skips the walk, and Newton solves the 5 levels between the seeds.
    X, y = sixty_row_design()
    taus = np.linspace(0.1, 0.4, 7)
    _, newton, rounds = spy_on_solves(monkeypatch)
    fit = fit_pinball_linear(X, y, taus)
    assert newton == [[2, 5]] and rounds == [0]
    assert_matches_highs(fit, X, y)
    want = exact_loss(X, y, 0.25)
    for k in (0, -1):
        assert pinball(y - fit.intercepts[k] - X @ fit.coefs[k], 0.25) > want * (1.0 + 1e-7)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["plain", "tied", "dependent"]), min_size=1, max_size=4),
    n=st.integers(12, 40),
    d=st.integers(1, 6),
    taus=st.one_of(
        st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=2, max_size=9),
        # (first level, spacing in units of 1/n, count): levels close
        # enough together for the walk to reach
        st.tuples(st.floats(0.01, 0.5), st.floats(0.1, 0.8), st.integers(2, 9)),
    ),
)
def test_any_level_set_matches_highs_within_the_walks_bound(seed, kinds, n, d, taus):
    if isinstance(taus, tuple):
        first, spacing, count = taus
        taus = first + spacing / n * np.arange(count)
    taus = np.array(taus)
    rng = np.random.default_rng(seed)
    X, y = map(np.stack, zip(*(_stack_problem(rng, kind, n, d) for kind in kinds)))
    with pytest.MonkeyPatch.context() as mp:
        _, _, rounds = spy_on_solves(mp)
        fits = fit_pinball_stacked(X, y, taus)
    assert all(k <= quantreg._WALK_ROUNDS for k in rounds)
    for Xb, yb, fit in zip(X, y, fits):
        lone = fit_pinball_linear(Xb, yb, taus)
        for field in ("intercepts", "coefs", "degenerate"):
            assert getattr(fit, field).tobytes() == getattr(lone, field).tobytes(), field
        assert_matches_highs(fit, Xb, yb)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["plain", "tied", "dependent"]), min_size=2, max_size=5),
    edge=st.sampled_from([16, 24, 32]),
    offsets=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    d=st.integers(2, 6),
    # Levels within 1e-3 of 0 or 1 lose so little at their optimum that
    # HiGHS's tolerances leave its objective percents off.
    taus=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1.0 - 1e-3)), min_size=1, max_size=9),
)
def test_a_ragged_stack_across_a_bucket_edge_gets_its_lone_fits(seed, kinds, edge, offsets, d, taus):
    # Row counts on both sides of a bucket edge (a multiple of 8): the
    # stack is solved in two buckets, padded to edge and edge + 8 rows,
    # and each problem's rows past its own count hold NaN, which the fit
    # ignores. Each problem gets its lone fit bit for bit, and the optimum.
    # A padded row enters no basis, and no tie or ratio test (those read
    # the off-basis mask of _vertices).
    rng = np.random.default_rng(seed)
    rows = edge + np.array([0, 1, *offsets])[: len(kinds)]
    N = rows.max()
    X, y = np.full((len(kinds), N, d), np.nan), np.full((len(kinds), N), np.nan)
    for b, (kind, n) in enumerate(zip(kinds, rows)):
        X[b, :n], y[b, :n] = _stack_problem(rng, kind, n, d)
    taus = np.array(taus)
    vertices = quantreg._vertices

    def vertices_spy(U, ys, real, basis, levels):
        out = vertices(U, ys, real, basis, levels)
        _, inv, r, outside, _, _, valid, _ = out
        B = len(basis)
        assert np.take_along_axis(real, basis.reshape(B, -1), axis=1).all()
        assert not (outside & ~real[:, None]).any()
        # Valid unless the basis is singular or ill-conditioned, or a real
        # row off it ties.
        sign, _ = np.linalg.slogdet(U[np.arange(B)[:, None, None], basis])
        well = (sign != 0) & (np.abs(inv).max(axis=(-2, -1)) <= quantreg._INV_TOL)
        tie = quantreg._TIE_TOL * np.abs(ys).max(axis=1)[:, None, None]
        assert np.array_equal(valid, well & ~(outside & (np.abs(r) <= tie)).any(axis=-1))
        return out

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(quantreg, "_vertices", vertices_spy)
        fits = fit_pinball_stacked(X, y, taus, rows)
        alone = [fit_pinball_linear(Xb[:n], yb[:n], taus) for Xb, yb, n in zip(X, y, rows)]
    for Xb, yb, n, fit, lone in zip(X, y, rows, fits, alone):
        for field in ("intercepts", "coefs", "degenerate"):
            assert getattr(fit, field).tobytes() == getattr(lone, field).tobytes(), field
        assert_matches_highs(fit, Xb[:n], yb[:n])


def test_certified_fit_is_a_vertex_no_worse_than_newton(monkeypatch):
    # Every level of this SPCI design is certified by a seed vertex: its line
    # passes through exactly p = 9 rows, up to rounding, and loses no more
    # at a seed level than the Newton fit of that level alone.
    X, y = spci_lag_design(0)
    _, newton, rounds = spy_on_solves(monkeypatch)
    fit = fit_pinball_linear(X, y, SPCI_TAUS)
    assert newton == [[2]] and rounds == [0]
    inner = (SPCI_TAUS > 0.0) & (SPCI_TAUS < 1.0)
    resid = y - fit.intercepts[inner, None] - fit.coefs[inner] @ X.T
    on_line = np.abs(resid) <= 1e-12 * np.abs(y).max()
    assert (on_line.sum(axis=1) == X.shape[1] + 1).all()
    losses = fit_losses(fit, X, y)
    for k in np.flatnonzero(inner)[[0, -1]]:
        seed = fit_pinball_linear(X, y, SPCI_TAUS[k : k + 1])
        assert losses[k] <= fit_losses(seed, X, y)[0]
        assert losses[k] == pytest.approx(exact_loss(X, y, SPCI_TAUS[k]), rel=1e-7)


def test_a_row_on_a_seed_vertex_ties_and_falls_back(monkeypatch):
    # A row added on the certified line of level 0.1 keeps that line optimal
    # but lies on it beside the basis: the low seed's vertex ties, so it
    # certifies nothing and no walk starts from it. The levels it leaves
    # lie beyond the high seed's reach, so Newton solves all 7 of them (all
    # but the low seed itself), and the fits still reach the optimum.
    X, y = spci_lag_design(0)
    line = fit_pinball_linear(X, y, SPCI_TAUS)
    x_new = X[0] + X[1] - X[2]
    X = np.vstack([X, x_new])
    y = np.append(y, line.intercepts[10] + line.coefs[10] @ x_new)
    _, newton, rounds = spy_on_solves(monkeypatch)
    fit = fit_pinball_linear(X, y, SPCI_TAUS)
    assert newton == [[2, 7]] and rounds == [0]
    assert_matches_highs(fit, X, y)


def suite_panel():
    """The benchmark's seed-0 suite panel: the first 5, 4 and 3 series of the
    ar1, seasonal_ar and shift acceptance families."""
    import dataclasses

    from ctsbench.bench import SyntheticSpec, generate_synthetic
    from ctsbench.series import SeriesPanel

    series = []
    for generator, count, seed in (("ar1", 5, 11), ("seasonal_ar", 4, 12), ("shift", 3, 13)):
        spec = SyntheticSpec(generator=generator, n_series=count, length=120, seed=seed)
        series += [dataclasses.replace(ts, series_id=f"{generator}_{ts.series_id}") for ts in generate_synthetic(spec)]
    return SeriesPanel(tuple(series))


def run_suite_spci(monkeypatch):
    """SPCI's intervals on the suite panel, from a benchmark run."""
    from ctsbench import bench, conformal

    intervals = []
    stacked = conformal.spci_intervals_stacked

    def keep(*args):
        intervals.extend(stacked(*args))
        return intervals[-len(args[0]) :]

    monkeypatch.setattr(bench, "spci_intervals_stacked", keep)
    report = bench.run_benchmark(bench.BenchConfig(seed=20, methods=("spci",)), suite_panel())
    assert not report.skips
    return intervals


def test_walk_leaves_no_problem_of_the_suite_panels_spci_to_newton(monkeypatch):
    # A count, not a timing, so a change in the walk's reach shows without
    # timing noise. SPCI on the benchmark's seed-0 suite panel fits 144
    # quantile problems of 17-28 rows, in one solve per row bucket: 96
    # padded to 24 rows and 48 to 32. The seed vertices leave levels
    # uncertified in 6 of them, and the walk certifies all 6.
    problems, walked, newton = [], [], []
    solve_levels, walk, frisch_newton = quantreg._solve_levels, quantreg._walk, quantreg._frisch_newton

    def levels_spy(U, ys, real, levels, iters):
        problems.append(len(U))
        newton.append([])
        return solve_levels(U, ys, real, levels, iters)

    def walk_spy(U, ys, real, levels, prob, *rest):
        walked.append(len(np.unique(prob)))
        return walk(U, ys, real, levels, prob, *rest)

    def newton_spy(U, ys, real, taus, iters):
        newton[-1].append(len(U))
        return frisch_newton(U, ys, real, taus, iters)

    monkeypatch.setattr(quantreg, "_solve_levels", levels_spy)
    monkeypatch.setattr(quantreg, "_walk", walk_spy)
    monkeypatch.setattr(quantreg, "_frisch_newton", newton_spy)
    run_suite_spci(monkeypatch)
    assert problems == [96, 48]
    assert sum(walked) == 6
    assert sum(sum(calls[1:]) for calls in newton) == 0


def test_a_traced_suite_run_fits_each_unpadded_design_alone(monkeypatch):
    # perfbench traces quantreg at conformal.fit_pinball_linear. With that
    # name replaced, the suite panel's SPCI fits each of its 144 designs
    # (12 series at 12 horizons, 28 down to 17 rows of 8 lags) through it,
    # unpadded, and its intervals are byte for byte those of the fused
    # solve of every horizon's designs.
    from ctsbench import conformal

    fused = run_suite_spci(monkeypatch)
    designs = []
    lone = conformal.fit_pinball_linear

    def spy(X, y, taus):
        designs.append(X.shape)
        return lone(X, y, taus)

    monkeypatch.setattr(conformal, "fit_pinball_linear", spy)
    traced = run_suite_spci(monkeypatch)
    assert sorted(designs) == sorted((28 - h, 8) for h in range(12) for _ in range(12))
    assert len(traced) == len(fused) == 12
    for a, b in zip(fused, traced):
        assert a.lower.tobytes() == b.lower.tobytes()
        assert a.upper.tobytes() == b.upper.tobytes()
        assert a.diagnostics == b.diagnostics


def test_a_row_on_a_walk_vertex_ties_and_stops_the_walk(monkeypatch):
    # On the 60-row design the walk certifies 0.12 and 0.13 at a vertex
    # that neither seed's line is. A row added on that line ties the vertex
    # when the walk reaches it: it certifies nothing, its walkers stop, and
    # Newton solves the 3 levels they leave. The fits still reach the
    # optimum.
    X, y = sixty_row_design()
    taus = np.linspace(0.1, 0.15, 6)
    line = fit_pinball_linear(X, y, taus)
    x_new = X[0] + X[1] - X[2]
    X = np.vstack([X, x_new])
    y = np.append(y, line.intercepts[2] + line.coefs[2] @ x_new)
    _, newton, rounds = spy_on_solves(monkeypatch)
    fit = fit_pinball_linear(X, y, taus)
    assert newton == [[2, 3]] and rounds == [2]
    assert_matches_highs(fit, X, y)


def test_stack_shapes_are_checked():
    X, y = random_design(3)
    with pytest.raises(ValueError, match="3-D"):
        fit_pinball_stacked(X, y, SPCI_TAUS)
    with pytest.raises(ValueError, match="shape mismatch"):
        fit_pinball_stacked(X[None], y[None, :-1], SPCI_TAUS)
    for rows in ([len(y), 5], [len(y) + 1], [10.0]):
        with pytest.raises(ValueError, match="rows must give one count"):
            fit_pinball_stacked(X[None], y[None], SPCI_TAUS, np.array(rows))
    with pytest.raises(ValueError, match="empty"):
        fit_pinball_stacked(X[None], y[None], SPCI_TAUS, np.array([0]))
    assert fit_pinball_stacked(X[None, :, :][:0], y[None][:0], SPCI_TAUS) == []


def test_fits_without_the_functions_numpy_2_added(hide_numpy_2_names):
    """pyproject.toml declares numpy >= 1.24, so a fit may not need
    np.vecdot and the other names numpy 2.0 brought in."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 24, 3))
    X[1, :, 2] = 2.0 * X[1, :, 0]
    y = rng.standard_normal((2, 24))
    want = fit_pinball_stacked(X, y, SPCI_TAUS)
    hide_numpy_2_names()
    got = fit_pinball_stacked(X, y, SPCI_TAUS)
    assert got[1].degenerate.tolist() == [False, False, True]
    for g, w in zip(got, want):
        assert np.array_equal(g.intercepts, w.intercepts) and np.array_equal(g.coefs, w.coefs)
