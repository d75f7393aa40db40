"""Exact linear quantile regression, checked against scipy's HiGHS LP solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

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


def test_matches_highs_on_spci_lag_design():
    rng = np.random.default_rng(3)
    e = np.zeros(40)
    for t in range(1, 40):
        e[t] = 0.7 * e[t - 1] + rng.standard_normal()
    X = np.lib.stride_tricks.sliding_window_view(e, 8)[:-1]
    y = e[8:]
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


@pytest.mark.parametrize("tau", [1e-3, 1.0 - 1e-3])
def test_levels_beyond_one_over_n_match_highs(tau):
    # solved at 1/(2n) or 1 - 1/(2n), which share the optimal lines
    X, y = random_design(6)
    fit = fit_pinball_linear(X, y, np.array([tau]))
    assert fit_losses(fit, X, y)[0] == pytest.approx(exact_loss(X, y, tau), rel=1e-7)


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
def test_never_worse_than_constant_quantile_line(data, tau):
    # the constant line is one feasible point of the linear programme
    X, y = data
    fit = fit_pinball_linear(X, y, np.array([tau]))
    const = pinball(y - np.quantile(y, tau), tau)
    assert fit_losses(fit, X, y)[0] <= const + 1e-9 * (1.0 + const)


def _stack_problem(rng, kind, n, d):
    """One design of a stack: plain, with a constant column, with a column
    dependent on the others, or with every column constant."""
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d) + rng.uniform(-5.0, 5.0, d)
    if kind == "constant":
        X[:, rng.integers(d)] = rng.uniform(-5.0, 5.0)
    elif kind == "dependent":
        X[:, -1] = 2.0 * X[:, 0] - 0.5 * X[:, :-1].sum(axis=1) + 3.0
    elif kind == "all_constant":
        X[:] = rng.uniform(-5.0, 5.0, d)
    y = X[:, 0] + rng.standard_t(3, n)
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


def test_stack_shapes_are_checked():
    X, y = random_design(3)
    with pytest.raises(ValueError, match="3-D"):
        fit_pinball_stacked(X, y, SPCI_TAUS)
    with pytest.raises(ValueError, match="shape mismatch"):
        fit_pinball_stacked(X[None], y[None, :-1], SPCI_TAUS)
    assert fit_pinball_stacked(X[None, :, :][:0], y[None][:0], SPCI_TAUS) == []


def test_fits_without_the_functions_numpy_2_added(monkeypatch):
    """pyproject.toml declares numpy >= 1.24, so a fit may not need
    np.vecdot and the other names numpy 2.0 brought in."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 24, 3))
    X[1, :, 2] = 2.0 * X[1, :, 0]
    y = rng.standard_normal((2, 24))
    want = fit_pinball_stacked(X, y, SPCI_TAUS)
    for name in ("vecdot", "matvec", "vecmat", "concat", "permute_dims", "astype", "cumulative_sum"):
        monkeypatch.delattr(np, name, raising=False)
    for name in ("vecdot", "vector_norm", "matrix_norm", "matrix_transpose"):
        monkeypatch.delattr(np.linalg, name, raising=False)
    got = fit_pinball_stacked(X, y, SPCI_TAUS)
    assert got[1].degenerate.tolist() == [False, False, True]
    for g, w in zip(got, want):
        assert np.array_equal(g.intercepts, w.intercepts) and np.array_equal(g.coefs, w.coefs)
