"""Autoregressive fitting, AIC selection, multi-step variance, seasonal naive."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctsbench import forecaster
from ctsbench.forecaster import (
    FittedForecaster,
    ForecasterSpec,
    _fit_ar_prefixes,
    _forecast_paths,
    _in_blocks,
    _prefix_forecasts,
    _sweep_inverse,
    fit_auto_ar,
    forecast,
    seasonal_naive_forecast,
    sigma_h,
    sigma_h_stacked,
)
from ctsbench.series import TimeSeries


def simulate_ar1(n, phi, c=0.0, sigma=1.0, seed=0, burn=200):
    rng = np.random.default_rng(seed)
    y = 0.0
    out = np.empty(n + burn)
    for t in range(n + burn):
        y = c + phi * y + sigma * rng.standard_normal()
        out[t] = y
    return out[burn:]


class TestFitAutoAr:
    def test_constant_series_is_ar0_with_intercept(self):
        model = fit_auto_ar(np.full(20, 3.0), ForecasterSpec())
        assert model.order == 0
        assert model.intercept == pytest.approx(3.0)
        fc = forecast(model, np.full(20, 3.0), 5)
        assert np.allclose(fc, 3.0)

    def test_noise_free_ar1_recovery(self):
        # y_t = 2 + 0.7 y_{t-1}, started off the fixed point so the design
        # has variation; OLS recovers the recursion exactly
        y = np.empty(30)
        y[0] = 10.0
        for t in range(1, 30):
            y[t] = 2.0 + 0.7 * y[t - 1]
        model = fit_auto_ar(y, ForecasterSpec(max_order=3))
        assert model.order == 1
        assert model.phi[0] == pytest.approx(0.7, abs=1e-6)
        assert model.intercept == pytest.approx(2.0, abs=1e-5)
        fc = forecast(model, y, 3)
        expected = [2.0 + 0.7 * y[-1]]
        expected.append(2.0 + 0.7 * expected[0])
        expected.append(2.0 + 0.7 * expected[1])
        assert np.allclose(fc, expected, atol=1e-5)

    def test_matches_reference_ols_per_order(self):
        # the selected candidate must agree with a direct lstsq refit
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = simulate_ar1(60, 0.6, c=1.0, seed=int(rng.integers(1 << 30)))
            model = fit_auto_ar(y, ForecasterSpec(max_order=4))
            p = model.order
            X = np.column_stack(
                [np.ones(len(y) - p)] + [y[p - j : len(y) - j] for j in range(1, p + 1)]
            )
            coef, _, _, _ = np.linalg.lstsq(X, y[p:], rcond=None)
            assert model.intercept == pytest.approx(coef[0], abs=1e-9)
            assert np.allclose(model.phi, coef[1:], atol=1e-9)

    def test_aic_formula(self):
        y = simulate_ar1(50, 0.5, seed=7)
        model = fit_auto_ar(y, ForecasterSpec(max_order=2))
        for p, aic in enumerate(model.aics):
            X = np.column_stack(
                [np.ones(len(y) - p)] + [y[p - j : len(y) - j] for j in range(1, p + 1)]
            )
            coef, _, _, _ = np.linalg.lstsq(X, y[p:], rcond=None)
            resid = y[p:] - X @ coef
            m = len(resid)
            expected = m * math.log(max(float(resid @ resid), 1e-300) / m) + 2 * (p + 2)
            assert aic == pytest.approx(expected, abs=1e-9)
        assert model.aics[model.order] == min(model.aics)

    def test_tie_breaks_to_smaller_order(self):
        y = simulate_ar1(40, 0.0, seed=3)
        model = fit_auto_ar(y, ForecasterSpec(max_order=5))
        aic = model.aics[model.order]
        better = [p for p, a in enumerate(model.aics) if a < aic]
        assert not better
        same = [p for p, a in enumerate(model.aics) if a == aic]
        assert model.order == min(same)

    def test_no_drift_zero_intercept(self):
        y = simulate_ar1(50, 0.5, seed=9)
        model = fit_auto_ar(y, ForecasterSpec(include_drift=False))
        assert model.intercept == 0.0

    def test_no_drift_counts_no_intercept(self):
        # without an intercept AR(p) has p coefficients: sigma2 = RSS/(m - p)
        # and the AIC penalty is 2(p + 1)
        y = simulate_ar1(50, 0.8, c=2.0, seed=9)
        model = fit_auto_ar(y, ForecasterSpec(include_drift=False))
        p = model.order
        assert p >= 1
        X = np.column_stack([y[p - j : len(y) - j] for j in range(1, p + 1)])
        coef, _, _, _ = np.linalg.lstsq(X, y[p:], rcond=None)
        resid = y[p:] - X @ coef
        rss, m = float(resid @ resid), len(resid)
        assert model.sigma2 == pytest.approx(rss / (m - p), rel=1e-9)
        assert model.aics[p] == pytest.approx(m * math.log(rss / m) + 2 * (p + 1), abs=1e-9)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_auto_ar(np.array([1.0, 2.0]), ForecasterSpec())

    def test_large_level_is_not_rank_deficient(self):
        # at level 1e6 the lag columns are within 1e-6 of the intercept
        # column; the shift by the first observation keeps them apart
        y = 1e6 + simulate_ar1(80, 0.6, seed=12)
        model = fit_auto_ar(y, ForecasterSpec(max_order=3))
        assert all(math.isfinite(a) for a in model.aics)
        p = model.order
        assert p >= 1
        X = np.column_stack(
            [np.ones(len(y) - p)] + [y[p - j : len(y) - j] for j in range(1, p + 1)]
        )
        coef, _, _, _ = np.linalg.lstsq(X, y[p:], rcond=None)
        assert np.allclose(model.phi, coef[1:], rtol=0.0, atol=1e-7)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_auto_ar(np.array([1.0, 2.0, np.nan, 3.0]), ForecasterSpec())

    def test_max_order_clipped_by_length(self):
        y = simulate_ar1(6, 0.3, seed=2)
        model = fit_auto_ar(y, ForecasterSpec(max_order=10))
        assert len(model.aics) == 5  # orders 0..len(y) - 2


def lstsq_candidates(y, max_order, include_drift):
    """Reference fit of every candidate order by np.linalg.lstsq.

    One dict per order with the design X, rows m, coefficient count k, and
    the smallest over the largest singular value of X with its columns
    scaled to unit norm ("ratio"); then, unless the order has no more rows
    than coefficients or lstsq finds X rank-deficient ("rejected"), the
    coefficients, refined once on lstsq's residuals, and the RSS.
    """
    n = len(y)
    out = []
    for p in range(min(max_order, n - 2) + 1):
        cols = ([np.ones(n - p)] if include_drift else []) + [
            y[p - j : n - j] for j in range(1, p + 1)
        ]
        X = np.column_stack(cols) if cols else np.empty((n - p, 0))
        m, k = X.shape
        norms = np.linalg.norm(X, axis=0)
        if not k:
            ratio = 1.0
        elif np.all(norms > 0.0):
            sv = np.linalg.svd(X / norms, compute_uv=False)
            ratio = sv[-1] / sv[0]
        else:
            ratio = 0.0
        r = dict(X=X, m=m, k=k, ratio=ratio, rejected=True)
        out.append(r)
        if m <= k:
            continue
        coef, _, rank, _ = np.linalg.lstsq(X, y[p:], rcond=None)
        if k and rank < k:
            continue
        # One step of iterative refinement: on a nearly collinear design
        # lstsq's own rounding can leave residuals well above 1e-13 of the
        # level where the exact fit has none.
        coef = coef + np.linalg.lstsq(X, y[p:] - X @ coef, rcond=None)[0]
        resid = y[p:] - X @ coef
        r.update(coef=coef, rss=float(resid @ resid), rejected=False)
    return out


def family_series(family, n, offset, seed):
    t = np.arange(n, dtype=np.float64)
    if family == "noise":
        rng = np.random.default_rng(seed)
        return offset + simulate_ar1(n, float(rng.uniform(-0.9, 0.95)), seed=seed, burn=20)
    if family == "constant":
        return np.full(n, offset)
    if family == "ar1":  # noise-free, approaching its fixed point `offset`
        y = np.empty(n)
        y[0] = offset + 10.0
        for i in range(1, n):
            y[i] = 0.05 * offset + 0.95 * y[i - 1]
        return y
    if family == "trend":
        return offset + 0.5 * t
    if family == "alternating":
        return offset + (-1.0) ** t
    y = np.full(n, offset)  # "spike": one early outlier, constant after it
    y[1] += 5.0
    return y


class TestBatchedSolverMatchesLstsq:
    """fit_auto_ar and multi-prefix _fit_ar_prefixes calls against a per-order lstsq oracle.

    The two rank rules agree on designs that lstsq finds rank-deficient and
    that stay nearly dependent with their columns scaled to unit norm
    (smallest-to-largest singular value ratio below 1e-6), and on designs
    lstsq accepts with that ratio at least 1e-4. Elsewhere they may differ:
    the normal equations cannot resolve a design as lstsq does, and lstsq's
    tolerance is not scale-free. Candidates there are not compared. RSS is compared to within the rounding of the residuals
    (about 1e-13 of the fitted level per row), which for an exact AR
    recursion is all of it: the AIC of such a fit is the logarithm of
    rounding noise, so AICs are compared to 1e-9 only where that rounding
    is negligible, and the chosen order must be the best for some RSS
    within those bounds. The intercept is in the units of the series and
    is compared relative to its size.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(["noise", "constant", "ar1", "trend", "alternating", "spike"]),
        n=st.integers(3, 60),
        max_order=st.integers(0, 6),
        include_drift=st.booleans(),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
        shorter=st.lists(st.one_of(st.integers(3, 9), st.integers(3, 60)), max_size=4),
    )
    def test_same_selection_aics_and_coefficients(
        self, family, n, max_order, include_drift, offset, seed, shorter
    ):
        y = family_series(family, n, offset, seed)
        model = fit_auto_ar(y, ForecasterSpec(max_order=max_order, include_drift=include_drift))
        assert len(model.aics) == min(max_order, n - 2) + 1
        self.check_fit(
            y, max_order, include_drift,
            model.order, np.array(model.aics), model.intercept, model.phi, model.sigma2,
        )
        # One call fits every prefix, those too short for the largest order too;
        # each row is checked as a fit of its own prefix.
        ends = np.array(sorted({t for t in shorter if t < n} | {n}))
        fits = _fit_ar_prefixes(y[None], ends, max_order, include_drift)
        assert fits.aics.shape == (1, len(ends), min(max_order, n - 2) + 1)
        for r, T in enumerate(ends):
            self.check_fit(
                y[:T], max_order, include_drift,
                int(fits.order[0, r]), fits.aics[0, r], fits.intercept[0, r], fits.phi[0, r], fits.sigma2[0, r],
            )

    @staticmethod
    def check_fit(y, max_order, include_drift, order, aics, intercept, phi, sigma2):
        """One selected fit of y; aics and phi may be padded past y's orders with +inf and 0."""
        ref = lstsq_candidates(y, max_order, include_drift)
        assert np.all(np.isinf(aics[len(ref):]))
        assert np.all(phi[order:] == 0.0)
        phi = phi[:order]
        # Both rules reject designs lstsq finds rank-deficient that are also
        # nearly dependent after column scaling, and accept designs lstsq
        # accepts that are well conditioned after it; the rest is not compared.
        clear = [
            r["m"] <= r["k"]
            or (r["rejected"] and r["ratio"] < 1e-6)
            or (not r["rejected"] and r["ratio"] >= 1e-4)
            for r in ref
        ]
        for p, (aic, r) in enumerate(zip(aics, ref)):
            if not clear[p]:
                continue
            assert math.isinf(aic) == r["rejected"], p
            if r["rejected"]:
                continue
            m, k, rss = r["m"], r["k"], r["rss"]
            ours = m * math.exp((aic - 2 * (k + 1)) / m)
            floor = 1e-13 * (1.0 + np.abs(r["X"]) @ np.abs(r["coef"]) + np.abs(y[p:])).max()
            rounding = 2.0 * math.sqrt(rss * m) * floor + m * floor**2
            r["band"] = 1e-11 * rss + rounding
            assert abs(ours - rss) <= r["band"], p
            if rounding <= 1e-12 * rss:
                assert aic == pytest.approx(m * math.log(rss / m) + 2 * (k + 1), abs=1e-9)
        if not all(clear):
            return

        def aic_of(r, rss):
            return r["m"] * math.log(max(rss, 1e-300) / r["m"]) + 2 * (r["k"] + 1)

        # The chosen order must be optimal for some RSS inside every band.
        valid = [r for r in ref if not r["rejected"]]
        best_upper = min(aic_of(r, r["rss"] + r["band"]) for r in valid)
        r = ref[order]
        assert aic_of(r, r["rss"] - r["band"]) <= best_upper
        want_intercept, want_phi = (r["coef"][0], r["coef"][1:]) if include_drift else (0.0, r["coef"])
        assert intercept == pytest.approx(want_intercept, abs=1e-9 * (1.0 + abs(want_intercept)))
        assert np.allclose(phi, want_phi, rtol=0.0, atol=1e-9)
        assert sigma2 * (r["m"] - r["k"]) == pytest.approx(r["rss"], abs=r["band"])


class TestNonFiniteFits:
    def test_overflowing_cross_products_raise(self):
        # Squares of values near 1e155 overflow, which leaves no finite
        # candidate. Under the test suite's error::RuntimeWarning filter
        # this also shows that the solve issues no numpy warning.
        values = 1e155 * simulate_ar1(60, 0.5, seed=1)
        with pytest.raises(ValueError, match="not finite"):
            fit_auto_ar(values, ForecasterSpec())


@st.composite
def scaled_spd_stacks(draw):
    """(N, k, k) unit-diagonal cross-products of random designs, with some
    columns unused (identity) and the solver's ridge on the diagonal."""
    k, N = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((N, 3 * k + 10, k))
    X += rng.uniform(-2, 2, size=(N, 1, k)) * X[..., :1]  # correlated columns
    X *= 10.0 ** rng.uniform(-3, 3, size=(N, 1, k))
    G = X.swapaxes(1, 2) @ X
    scale = 1.0 / np.sqrt(np.diagonal(G, axis1=1, axis2=2))
    A = G * scale[:, :, None] * scale[:, None, :]
    unused = rng.random((N, k)) < 0.3
    A[unused[:, :, None] | unused[:, None, :]] = 0.0
    A[:, np.arange(k), np.arange(k)] = 1.0 + forecaster._RIDGE
    return A


class TestSweepInverse:
    @settings(max_examples=200, deadline=None)
    @given(scaled_spd_stacks())
    def test_matches_lapack_inverse(self, A):
        inv = _sweep_inverse(A)
        want = np.linalg.inv(A)
        assert inv.shape == A.shape and inv.flags.c_contiguous
        assert (np.abs(inv - want).max(axis=(1, 2)) <= 1e-12 * np.abs(want).max(axis=(1, 2))).all()
        # elementwise over the stack: each matrix gets its lone inverse
        for a, row in zip(A, inv):
            assert np.array_equal(_sweep_inverse(a[None])[0], row)

    @pytest.mark.parametrize("include_drift", [True, False])
    def test_dependent_candidates_rejected_without_touching_the_stack(self, include_drift):
        # A constant start (columns equal to the intercept, or zero after the
        # shift) and a linear trend (lag 1 - lag 2 constant) make exactly
        # dependent candidates. Under the suite's error::RuntimeWarning
        # filter the fit issues no warning on them.
        rng = np.random.default_rng(4)
        n, ends = 48, np.array([12, 30, 48])
        constant_start = 5.0 + rng.standard_normal(n)
        constant_start[:30] = 5.0
        trend = 3.0 + 0.25 * np.arange(n)
        stack = np.stack([
            10.0 + simulate_ar1(n, 0.6, seed=1), constant_start, trend, 10.0 + simulate_ar1(n, -0.3, seed=2),
        ])
        fits = _fit_ar_prefixes(stack, ends, 5, include_drift)
        # The constant start, on the prefixes within it: with drift every lag
        # is zero after the shift; without, lags 1 and 2 are equal.
        constant_from = 1 if include_drift else 2
        assert np.isinf(fits.aics[1, :2, constant_from:]).all()
        assert np.isfinite(fits.aics[1, :2, :constant_from]).all()
        # The trend: lag 1 - lag 2 is the intercept's multiple, and without
        # an intercept lag 1 - 2 lag 2 + lag 3 = 0.
        trend_from = 2 if include_drift else 3
        assert np.isinf(fits.aics[2, :, trend_from:]).all()
        assert np.isfinite(fits.aics[[0, 3]]).all()
        for s in range(len(stack)):
            alone = _fit_ar_prefixes(stack[s : s + 1], ends, 5, include_drift)
            for name, stacked, single in zip(fits._fields, fits, alone):
                assert np.array_equal(stacked[s], single[0]), (name, s)


class TestStackedSolver:
    """A stack of equal-length series is fitted and forecast exactly as each series alone."""

    @settings(max_examples=80, deadline=None)
    @given(
        families=st.lists(st.sampled_from(["noise", "constant", "ar1", "trend"]), min_size=2, max_size=6),
        n=st.integers(3, 60),
        max_order=st.integers(0, 6),
        include_drift=st.booleans(),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
        shorter=st.lists(st.integers(3, 60), max_size=4),
        horizon=st.integers(1, 13),
        repeats=st.lists(st.integers(0, 4), max_size=4),
    )
    @example(
        families=["noise", "constant", "trend", "ar1"], n=40, max_order=5, include_drift=True,
        offset=100.0, seed=0, shorter=[10, 25], horizon=12, repeats=[2, 0],
    )
    def test_stack_matches_one_series_calls(
        self, families, n, max_order, include_drift, offset, seed, shorter, horizon, repeats
    ):
        stack = np.stack([family_series(f, n, offset, (seed + i) % 2**32) for i, f in enumerate(families)])
        ends = np.array(sorted({t for t in shorter if t < n} | {n}))
        # The rows: every end, then some of them again, out of order.
        rows = np.r_[ends, ends[[r % len(ends) for r in repeats]]].astype(np.intp)
        spec = ForecasterSpec(max_order=max_order, include_drift=include_drift)
        fits = _fit_ar_prefixes(stack, ends, max_order, include_drift)
        row_fits, paths = _prefix_forecasts(stack, rows, spec, 12, horizon)
        assert paths.shape == (len(families), len(rows), horizon)
        # Each row carries the fit of its own end, as a call on the distinct ends fits it.
        fit_row = np.searchsorted(ends, rows)
        for name, per_row, at_ends in zip(fits._fields, row_fits, fits):
            assert np.array_equal(per_row, at_ends[:, fit_row]), name
        assert np.array_equal(paths, paths[:, fit_row])  # rows of one end share its forecast
        for s in range(len(families)):
            alone = _fit_ar_prefixes(stack[s : s + 1], ends, max_order, include_drift)
            for name, stacked, single in zip(fits._fields, fits, alone):
                assert np.array_equal(stacked[s], single[0]), (name, families[s])
            _, single_paths = _prefix_forecasts(stack[s : s + 1], rows, spec, 12, horizon)
            assert np.array_equal(paths[s], single_paths[0]), families[s]

    def test_seasonal_naive_gathers_each_series(self):
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((3, 30))
        ends = np.array([12, 20, 30])
        fits, paths = _prefix_forecasts(stack, ends, ForecasterSpec("seasonal_naive"), 12, 14)
        assert fits is None
        for s in range(3):
            _, single = _prefix_forecasts(stack[s : s + 1], ends, ForecasterSpec("seasonal_naive"), 12, 14)
            assert np.array_equal(paths[s], single[0])
            for r, T in enumerate(ends):
                assert np.array_equal(paths[s, r], seasonal_naive_forecast(stack[s, :T], 14, period=12))
                assert np.array_equal(paths[s, r], stack[s, T - 12 + np.arange(14) % 12])


class TestSigmaH:
    def test_ar0_constant_sigma(self):
        model = FittedForecaster(
            phi=np.empty(0), intercept=0.0, sigma2=4.0, order=0, aics=(0.0,),
        )
        assert np.allclose(sigma_h(model, 5), 2.0)

    def test_ar1_closed_form(self):
        # var(h) = sigma2 * sum_{k<h} phi^{2k}
        model = FittedForecaster(
            phi=np.array([0.5]), intercept=0.0, sigma2=1.0, order=1, aics=(1.0, 0.0),
        )
        got = sigma_h(model, 4)
        expected = np.sqrt(np.cumsum(0.25 ** np.arange(4)))
        assert np.allclose(got, expected)

    def test_nondecreasing_on_stable_fits(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = simulate_ar1(80, float(rng.uniform(-0.9, 0.9)), seed=int(rng.integers(1 << 30)))
            model = fit_auto_ar(y, ForecasterSpec(max_order=3))
            roots = np.roots(np.r_[1.0, -model.phi]) if model.order else np.array([])
            if model.order and np.any(np.abs(roots) >= 1.0):
                continue
            s = sigma_h(model, 12)
            assert np.all(np.diff(s) >= -1e-12)


def _psi_loop_sigma(phi, order, sigma2, horizon):
    """The psi-weight recursion one model and one scalar at a time: the
    reference sigma_h_stacked's rows must equal bit for bit."""
    psi = np.empty(horizon)
    psi[0] = 1.0
    for k in range(1, horizon):
        acc = 0.0
        for j in range(1, min(k, order) + 1):
            acc += phi[j - 1] * psi[k - j]
        psi[k] = acc
    return np.sqrt(sigma2 * np.cumsum(psi * psi))


# An AR(1) whose psi overflows to inf at lag 2: stacked with higher orders,
# its padded lags meet that inf.
EXPLOSIVE = (1, [1e200, 0.0, 0.0, 0.0], 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(1e-3, 10.0)),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 16),
    st.booleans(),
)
@example([(3, [0.5, -0.2, 0.1, 0.0], 2.0), (0, [0.0] * 4, 1.0), (4, [1.0, 0.5, -0.3, 0.2], 0.5)], 12, True)
def test_sigma_h_stacked_rows_are_each_model_alone(rows, horizon, explosive):
    if explosive:
        rows = rows[:1] + [EXPLOSIVE] + rows[1:]
    phi = np.array([[c if j < p else 0.0 for j, c in enumerate(coefs)] for p, coefs, _ in rows])
    order = np.array([p for p, _, _ in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        got = sigma_h_stacked(phi, order, np.array([v for _, _, v in rows]), horizon)
        for row, (p, coefs, sigma2) in zip(got, rows):
            want = _psi_loop_sigma(coefs, p, sigma2, horizon)
            alone = sigma_h(FittedForecaster(np.array(coefs[:p]), 0.0, sigma2, p, (0.0,) * (p + 1)), horizon)
            assert row.tobytes() == want.tobytes() == alone.tobytes()
    if explosive and horizon > 2:
        assert np.isposinf(got[1, 2:]).all()


def test_a_model_copies_its_coefficients():
    phi = np.array([0.5, -0.2])
    model = FittedForecaster(phi, 0.0, 1.0, 2, (0.0,) * 3)
    assert phi.flags.writeable and not model.phi.flags.writeable
    assert not np.shares_memory(phi, model.phi)
    phi[0] = 9.0
    assert model.phi[0] == 0.5


def test_fitted_models_are_the_validated_models():
    stack = np.stack([family_series(f, 40, 5.0, i) for i, f in enumerate(["noise", "ar1", "constant", "noise"])])
    models = [fit_auto_ar(values, ForecasterSpec(max_order=4)) for values in stack]
    assert len({m.order for m in models}) > 1
    for m in models:
        built = FittedForecaster(m.phi.copy(), m.intercept, m.sigma2, m.order, m.aics)
        assert (m.phi.dtype, m.phi.shape, m.phi.tobytes()) == (built.phi.dtype, built.phi.shape, built.phi.tobytes())
        assert (m.intercept, m.sigma2, m.order, m.aics) == (built.intercept, built.sigma2, built.order, built.aics)
        assert [type(v) for v in (m.intercept, m.sigma2, m.order)] == [float, float, int]
        assert {type(a) for a in m.aics} == {float}
        assert not m.phi.flags.writeable and not np.shares_memory(m.phi, stack)


def test_a_model_has_one_coefficient_per_lag():
    with pytest.raises(ValueError, match="order-2 model needs 2 coefficients"):
        FittedForecaster(np.array([0.5]), 0.0, 1.0, 2, (0.0,) * 3)


def test_sigma_h_stacked_checks_shapes():
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        sigma_h_stacked(np.zeros((2, 1)), np.ones(2), np.ones(2), 0)
    with pytest.raises(ValueError, match=r"need \(S, P\) phi"):
        sigma_h_stacked(np.zeros((2, 1)), np.ones(3), np.ones(2), 4)


class TestSeasonalNaive:
    def test_h1_reaches_back_one_period(self):
        y = np.arange(24.0)
        fc = seasonal_naive_forecast(y, 1, period=12)
        assert fc[0] == y[-12]

    def test_h13_wraps_to_same_month(self):
        y = np.arange(24.0)
        fc = seasonal_naive_forecast(y, 13, period=12)
        assert fc[12] == y[-12]
        assert fc[0] == y[-12]

    def test_full_cycle_repeats(self):
        y = np.arange(24.0)
        fc = seasonal_naive_forecast(y, 12, period=12)
        assert np.array_equal(fc, y[-12:])

    def test_short_history_rejected(self):
        with pytest.raises(ValueError, match="full period"):
            seasonal_naive_forecast(np.arange(5.0), 3, period=12)

    def test_series_period_used(self):
        ts = TimeSeries(
            series_id="s",
            timestamps=np.arange(1, 25, dtype=np.int64),
            values=np.arange(24.0),
            period=12,
        )
        fc = seasonal_naive_forecast(ts, 3)
        assert fc[0] == ts.values[-12]


def _scalar_forecast(model, values, horizon):
    """forecast's former scalar loop, one model and one step at a time: the
    reference the prefix recursion's rows must equal bit for bit."""
    p = model.order
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


def _model(p, coefs, intercept):
    return FittedForecaster(np.array(coefs[:p]), intercept, 1.0, p, (0.0,) * (p + 1))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 0.0)),
        ),
        min_size=1,
        max_size=7,
    ),
    st.integers(0, 3),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
@example([(0, [0.0] * 4, -0.0), (2, [0.5, -0.25, 0.0, 0.0], 0.0), (4, [1.0, 0.5, -0.3, 0.2], -3.0)], 0, 12, 0)
def test_forecast_path_rows_are_the_scalar_loop(rows, extra, horizon, seed):
    # Mixed orders 0..4 and zero (of either sign) or negative intercepts, as
    # one stack of the prefix recursion from each history's end and in
    # blocks of 2: every row is the lone scalar loop's and forecast's.
    models = [_model(p, coefs, c) for p, coefs, c in rows]
    n = max(m.order for m in models) + extra
    histories = np.random.default_rng(seed).uniform(-1e3, 1e3, (len(models), n))

    def paths(idx):
        stack = [models[i] for i in idx]
        order = np.array([[m.order] for m in stack])
        intercept = np.array([[m.intercept] for m in stack])
        phi = np.zeros((len(stack), 1, max(m.order for m in stack)))  # zero-padded past each order
        for row, m in zip(phi, stack):
            row[0, : m.order] = m.phi
        return _forecast_paths(histories[idx], np.array([n]), order, intercept, phi, horizon)[:, 0]

    whole = paths(list(range(len(models))))
    with mock.patch.object(forecaster, "_STACK_BLOCK", 2):
        blocked = _in_blocks([n] * len(models), paths)
    for row, block_row, model, history in zip(whole, blocked, models, histories):
        want = _scalar_forecast(model, history, horizon)
        assert row.tobytes() == block_row.tobytes() == want.tobytes() == forecast(model, history, horizon).tobytes()


def test_forecast_checks_its_inputs():
    model = _model(2, [0.5, 0.1], 1.0)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        forecast(model, np.zeros(3), 0)
    with pytest.raises(ValueError, match=r"need a 1-D history, got shape \(2, 3\)"):
        forecast(model, np.zeros((2, 3)), 2)
    with pytest.raises(ValueError, match="history shorter than AR order: 1 < 2"):
        forecast(model, np.zeros(1), 2)
    assert forecast(_model(0, [], 0.0), np.zeros(0), 3).tolist() == [0.0, 0.0, 0.0]


def test_an_overflowing_path_stays_inf():
    # An order-1 row in a P = 3 stack. Once its path overflows, the lags
    # past its order are masked out, not multiplied by their zero padding:
    # the path stays inf, where 0 * inf would turn it into NaN, which a
    # residual matrix reads as padding. Under the suite's error::RuntimeWarning
    # filter this also shows that the overflow issues no numpy warning.
    values = np.array([[1.0, 2.0, 3.0, 1e307]])
    paths = forecaster._forecast_paths(
        values, np.array([4]), np.array([[1]]), np.array([[0.0]]), np.array([[[10.0, 0.0, 0.0]]]), 4
    )
    assert paths.tolist() == [[[10.0 * 1e307, math.inf, math.inf, math.inf]]]
