"""Interval constructions: split conformal, EnbPI, SPCI, Global-CP, CV, Gaussian."""

from __future__ import annotations

import collections
import inspect
import math
import random
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctsbench import conformal, forecaster, quantreg
from ctsbench.conformal import (
    EnsembleSpec,
    IntervalMatrix,
    ResidualMatrix,
    SpciSpec,
    build_residual_matrix,
    conformal_quantile,
    cv_conformal_intervals,
    enbpi_intervals,
    global_cp_intervals,
    mscp_intervals,
    parametric_intervals,
    spci_intervals,
)
from ctsbench.forecaster import (
    FittedForecaster,
    ForecasterSpec,
    _PrefixFits,
    fit_auto_ar,
    forecast,
    seasonal_naive_forecast,
    sigma_h,
)
from ctsbench.series import SeriesPanel, SplitSpec, TimeSeries


def make_series(values, series_id="s", period=1):
    return TimeSeries(
        series_id=series_id,
        timestamps=np.arange(1, len(values) + 1, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        period=period,
    )


def simulate_ar1(n, phi, sigma=1.0, seed=0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n + 1)
    for t in range(1, n + 1):
        y[t] = phi * y[t - 1] + sigma * rng.standard_normal()
    return y[1:]


def padded_signed_residuals(rng, rows=30, horizon=4):
    """Signed AR(1) residuals by origin and horizon, with column h NaN-padded
    in its last h - 1 rows as build_residual_matrix pads it."""
    m = np.stack([simulate_ar1(rows, 0.6, seed=int(rng.integers(2**32))) for _ in range(horizon)], axis=1)
    for h in range(horizon):
        m[rows - h :, h] = np.nan
    return ResidualMatrix(matrix=m, origins=tuple(range(rows)), signed=True)


def local_forecasts(panel, horizon):
    """Each series' AR forecast of its final `horizon` points from the rest."""
    out = {}
    for series in panel:
        head = series.values[:-horizon]
        out[series.series_id] = forecast(fit_auto_ar(head, ForecasterSpec()), head, horizon)
    return out


def oracle_quantile(scores, level):
    """The k-th smallest score by a plain sort, k = ceil(level * (n+1)); +inf when k > n."""
    ordered = sorted(float(s) for s in scores)
    k = math.ceil(level * (len(ordered) + 1))
    return math.inf if k > len(ordered) else ordered[k - 1]


class TestConformalQuantile:
    def test_four_scores_median_level(self):
        assert conformal_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0

    def test_small_sample_goes_infinite(self):
        assert conformal_quantile([1.0, 2.0], 0.9) == math.inf

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            n = int(rng.integers(1, 60))
            scores = rng.standard_normal(n)
            level = float(rng.uniform(0.01, 0.99))
            assert conformal_quantile(scores, level) == oracle_quantile(scores, level)

    @given(
        st.lists(
            st.one_of(
                st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, 1.0, 2.5])
            ),
            min_size=1,
            max_size=40,
        ).flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs))),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_order_statistic_identity(self, scores_and_permuted, level):
        scores, permuted = scores_and_permuted
        n = len(scores)
        k = math.ceil(level * (n + 1))
        q = conformal_quantile(scores, level)
        if k > n:
            assert q == math.inf
        else:
            # q is the k-th smallest score: fewer than k lie below it, at least k at or below
            assert q in scores
            assert sum(s < q for s in scores) < k <= sum(s <= q for s in scores)
        assert conformal_quantile(permuted, level) == q

    @given(
        st.lists(
            st.lists(
                st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, 1.0, 2.5])),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=5,
        ),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.randoms(use_true_random=False),
    )
    @example([[3.0]], 0.4, random.Random(0))  # n = 1, k = 1
    @example([[3.0], [1.0, 1.0, 2.0]], 0.9, random.Random(0))  # k > n in both columns
    @example([[2.0, 2.0, 1.0, 2.0, 5.0]], 0.5, random.Random(1))  # the radius is a tied score
    def test_radii_are_each_columns_conformal_quantile(self, columns, level, rnd):
        # Padding sits anywhere in a column: at its end in a residual
        # matrix, at its start in EnbPI's windows.
        rows = max(len(col) for col in columns) + 2
        matrix = np.full((rows, len(columns)), np.nan)
        for j, col in enumerate(columns):
            matrix[rnd.sample(range(rows), len(col)), j] = col
        want = [oracle_quantile(col, level) for col in columns]
        assert conformal._conformal_radii(matrix, level).tolist() == want

    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, 1.0, 2.5])),
                    min_size=1,
                    max_size=12,
                ),
                st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, math.nan])),
            ),
            min_size=1,
            max_size=5,
        ),
        st.randoms(use_true_random=False),
    )
    @example([([3.0], 0.4), ([1.0, 1.0, 2.0], 0.9)], random.Random(0))  # k <= n, then k > n
    @example([([3.0], 0.4), ([1.0, 2.0], 1.0)], random.Random(0))
    @example([([3.0], 0.0), ([1.0, 2.0], 0.5)], random.Random(0))
    @example([([3.0], math.nan)], random.Random(0))
    def test_radii_at_a_level_per_column(self, columns, rnd):
        # Each column's radius is its conformal quantile at that column's
        # level; one level outside (0, 1), NaN included, rejects the whole matrix.
        rows = max(len(col) for col, _ in columns) + 2
        matrix = np.full((rows, len(columns)), np.nan)
        for j, (col, _) in enumerate(columns):
            matrix[rnd.sample(range(rows), len(col)), j] = col
        levels = np.array([level for _, level in columns])
        if all(0.0 < level < 1.0 for _, level in columns):
            want = [oracle_quantile(col, level) for col, level in columns]
            assert conformal._conformal_radii(matrix, levels).tolist() == want
        else:
            with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
                conformal._conformal_radii(matrix, levels)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            conformal_quantile([], 0.9)
        with pytest.raises(ValueError):
            conformal_quantile([1.0, np.inf], 0.9)
        with pytest.raises(ValueError):
            conformal_quantile([1.0], 1.0)


class TestResidualMatrix:
    def test_column_drops_padding(self):
        m = np.array([[1.0, 2.0], [3.0, np.nan]])
        rm = ResidualMatrix(matrix=m, origins=(5, 6))
        assert rm.column(1).tolist() == [1.0, 3.0]
        assert rm.column(2).tolist() == [2.0]

    @pytest.mark.parametrize("signed, bad", [(True, math.inf), (True, -math.inf), (False, math.inf)])
    def test_infinite_entries_rejected(self, signed, bad):
        # NaN is the only padding: an infinite score may not leave the
        # calibration sample unseen and narrow the radius.
        with pytest.raises(ValueError, match="must be finite"):
            ResidualMatrix(matrix=np.array([[1.0, 2.0], [bad, np.nan]]), origins=(5, 6), signed=signed)

    def test_matrix_is_a_read_only_copy(self):
        m = np.array([[1.0, 2.0], [3.0, np.nan]])
        rm = ResidualMatrix(matrix=m, origins=(5, 6))
        assert m.flags.writeable and not rm.matrix.flags.writeable
        assert not np.shares_memory(m, rm.matrix)
        m[0, 0] = 9.0
        assert rm.matrix[0, 0] == 1.0

    def test_absolute_entries_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ResidualMatrix(matrix=np.array([[-1.0]]), origins=(3,))
        ResidualMatrix(matrix=np.array([[-1.0]]), origins=(3,), signed=True)

    def test_build_too_short_message(self):
        ts = make_series(np.arange(10.0))
        with pytest.raises(ValueError, match="need 11, have 10"):
            build_residual_matrix(ts, SplitSpec(5, 4, 2), ForecasterSpec(), 2)

    def test_build_constant_series_all_zero(self):
        ts = make_series(np.full(30, 5.0))
        rm = build_residual_matrix(ts, SplitSpec(20, 8, 2), ForecasterSpec(), 4)
        finite = rm.matrix[np.isfinite(rm.matrix)]
        assert np.allclose(finite, 0.0)

    def test_build_ragged_columns(self):
        ts = make_series(simulate_ar1(40, 0.5, seed=1))
        rm = build_residual_matrix(ts, SplitSpec(25, 10, 5), ForecasterSpec(), 6)
        assert rm.matrix.shape == (10, 6)
        # horizon h sees cal_len - h + 1 truths inside the calibration block
        for h in range(1, 7):
            assert len(rm.column(h)) == max(10 - h + 1, 0)

    def test_build_signed_matches_abs(self):
        ts = make_series(simulate_ar1(40, 0.5, seed=2))
        spec = SplitSpec(25, 10, 5)
        signed = build_residual_matrix(ts, spec, ForecasterSpec(), 3, signed=True)
        unsigned = build_residual_matrix(ts, spec, ForecasterSpec(), 3)
        assert np.allclose(
            np.abs(signed.matrix), unsigned.matrix, equal_nan=True
        )

    def test_build_seasonal_naive_matches_per_origin_forecasts(self):
        y = simulate_ar1(40, 0.5, seed=3)
        ts = make_series(y, period=4)
        rm = build_residual_matrix(
            ts, SplitSpec(20, 10, 5), ForecasterSpec(kind="seasonal_naive"), 3, signed=True
        )
        work = y[5:35]
        for r, t in enumerate(range(20, 30)):
            avail = min(3, 30 - t)
            fc = seasonal_naive_forecast(work[:t], 3, 4)[:avail]
            assert np.array_equal(rm.matrix[r, :avail], work[t : t + avail] - fc)

    def test_build_seasonal_naive_needs_a_period_of_training(self):
        # forecasts read only the training and calibration blocks
        ts = make_series(simulate_ar1(40, 0.5, seed=3), period=12)
        with pytest.raises(ValueError, match="full period: 8 < 12"):
            build_residual_matrix(ts, SplitSpec(8, 10, 5), ForecasterSpec(kind="seasonal_naive"), 3)

    # A horizon of 1 pads nothing; one of 13 outruns every calibration block.
    @pytest.mark.parametrize("horizon", [1, 5, 13])
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize(
        "split, spec",
        [
            (SplitSpec(25, 12, 4), ForecasterSpec()),
            (SplitSpec(30, 20, 6), ForecasterSpec(max_order=3, include_drift=False)),
            # prefixes shorter than max_order admit fewer candidate orders
            (SplitSpec(4, 10, 3), ForecasterSpec(max_order=5)),
        ],
    )
    def test_build_matches_per_origin_refits(self, signed, split, spec, horizon):
        for seed in range(3):
            y = 40.0 + simulate_ar1(split.total + 7, 0.7, seed=seed)
            rm = build_residual_matrix(make_series(y), split, spec, horizon, signed)
            work = y[7 : 7 + split.train_len + split.cal_len]
            expected = np.full((split.cal_len, horizon), np.nan)
            for r, t in enumerate(range(split.train_len, len(work))):
                model = fit_auto_ar(work[:t], spec)
                avail = min(horizon, len(work) - t)
                resid = work[t : t + avail] - forecast(model, work[:t], horizon)[:avail]
                expected[r, :avail] = resid if signed else np.abs(resid)
            assert rm.origins == tuple(range(split.train_len, len(work)))
            assert np.array_equal(np.isnan(rm.matrix), np.isnan(expected))
            assert np.allclose(rm.matrix, expected, rtol=0.0, atol=1e-10, equal_nan=True)


class TestOriginResiduals:
    @pytest.mark.parametrize(
        "spec", [ForecasterSpec(), ForecasterSpec(max_order=2, include_drift=False), ForecasterSpec("seasonal_naive")]
    )
    def test_stack_rows_are_lone_calls(self, spec):
        values = np.stack([40.0 + simulate_ar1(50, 0.3 + 0.2 * i, seed=i) for i in range(3)])
        values[2] = 7.0  # a constant series among them
        origins = np.arange(30, 50)
        stacked = conformal._origin_residuals(values, origins, spec, 1, 5)
        assert stacked.shape == (3, 20, 5)
        # NaN exactly where the truth lies past the end of the series
        assert np.array_equal(np.isnan(stacked), np.broadcast_to(origins[:, None] + np.arange(5) >= 50, stacked.shape))
        for s in range(3):
            alone = conformal._origin_residuals(values[s : s + 1], origins, spec, 1, 5)
            assert np.array_equal(stacked[s], alone[0], equal_nan=True)


class TestOverflowingForecasts:
    def test_residual_build_rejects_a_forecast_that_is_not_finite(self, monkeypatch):
        # Every fit is the AR(2) y[t] = 10 y[t-1] - 10 y[t-2], padded to
        # P = 3. On values near 5e307 both products overflow and inf - inf
        # makes every forecast NaN, which the residual matrix would read as
        # padding: the build raises instead of returning shortened columns.
        def overflowing(values, ends, max_order, include_drift):
            shape = (len(values), len(ends))
            phi = np.broadcast_to([10.0, -10.0, 0.0], shape + (3,))
            return _PrefixFits(np.full(shape, 2), np.zeros(shape), phi, np.ones(shape), np.zeros(shape + (4,)))

        monkeypatch.setattr(forecaster, "_fit_ar_prefixes", overflowing)
        split = SplitSpec(20, 10, 4)
        series = make_series(1e307 * (5.0 + 0.1 * simulate_ar1(split.total, 0.5, seed=1)))
        with pytest.raises(ValueError, match="prefix forecast is not finite"):
            build_residual_matrix(series, split, ForecasterSpec(), 4)


class TestMscp:
    def test_hand_radius(self):
        rm = ResidualMatrix(
            matrix=np.array([[2.0], [4.0], [6.0]]), origins=(1, 2, 3)
        )
        iv = mscp_intervals(np.array([10.0]), rm, 0.5)
        assert iv.lower[0, 0] == 6.0 and iv.upper[0, 0] == 14.0

    def test_tiny_column_gives_infinite_band(self):
        rm = ResidualMatrix(matrix=np.array([[1.0], [2.0]]), origins=(1, 2))
        iv = mscp_intervals(np.array([0.0]), rm, 0.1)
        assert iv.lower[0, 0] == -math.inf and iv.upper[0, 0] == math.inf

    def test_empty_column_names_horizon(self):
        rm = ResidualMatrix(
            matrix=np.array([[1.0, np.nan], [2.0, np.nan]]), origins=(1, 2)
        )
        with pytest.raises(ValueError, match="horizon 2"):
            mscp_intervals(np.array([0.0, 0.0]), rm, 0.5)

    def test_signed_matrix_rejected(self):
        rm = ResidualMatrix(matrix=np.array([[1.0]]), origins=(1,), signed=True)
        with pytest.raises(ValueError, match="absolute"):
            mscp_intervals(np.array([0.0]), rm, 0.5)

    def test_pipeline_coverage_band(self):
        # 150 AR(1) series, alpha=0.1: empirical coverage near the target
        rng = np.random.default_rng(100)
        hits = cells = 0
        for _ in range(150):
            y = simulate_ar1(60, 0.6, seed=int(rng.integers(1 << 30)))
            ts = make_series(y)
            rm = build_residual_matrix(ts, SplitSpec(40, 15, 5), ForecasterSpec(), 5)
            model = fit_auto_ar(y[:55], ForecasterSpec())
            iv = mscp_intervals(forecast(model, y[:55], 5), rm, 0.1)
            truth = y[55:]
            hits += int(np.sum((truth >= iv.lower[0]) & (truth <= iv.upper[0])))
            cells += 5
        assert 0.86 <= hits / cells <= 0.96


def reference_loo(values, members):
    """The leave-one-out residuals computed index by index."""
    n = len(values)
    fitted = np.full((len(members), n), np.nan)
    for b, (_, model) in enumerate(members):
        for i in range(model.order, n):
            yhat = model.intercept
            for j in range(model.order):
                yhat += model.phi[j] * values[i - 1 - j]
            fitted[b, i] = yhat
    residuals, fallbacks = [], 0
    for i in range(n):
        loo = [fitted[b, i] for b, (idx, _) in enumerate(members)
               if i not in set(idx) and np.isfinite(fitted[b, i])]
        if not loo:
            loo = [v for v in fitted[:, i] if np.isfinite(v)]
            if not loo:
                continue
            fallbacks += 1
        residuals.append(abs(values[i] - float(np.mean(loo))))
    return np.asarray(residuals), fallbacks, fitted


def reference_members(series, test_len, spec, forecaster):
    """The bootstrap members fitted one at a time: (index set, lone fit_auto_ar model)."""
    n_train = len(series) - test_len
    rng = np.random.default_rng(spec.seed)
    members = []
    for _ in range(spec.B):
        (idx,) = conformal._block_bootstrap(n_train, series.period, rng, 1)
        members.append((idx, fit_auto_ar(series.values[idx], forecaster)))
    return members


def padded_coefficients(models):
    """Orders, intercepts and coefficients zero-padded to the largest order."""
    P = max(model.order for model in models)
    phi = np.zeros((len(models), P))
    for b, model in enumerate(models):
        phi[b, : model.order] = model.phi
    return (
        np.array([model.order for model in models]),
        np.array([model.intercept for model in models]),
        phi,
    )


def reference_one_step(values, models):
    """One-step predictions of lone models from their padded coefficients."""
    n = len(values)
    orders, intercepts, phi = padded_coefficients(models)
    lags = np.zeros((n, phi.shape[1]))
    for j in range(phi.shape[1]):
        lags[j + 1 :, j] = values[: n - 1 - j]
    fitted = intercepts[:, None] + phi @ lags.T
    fitted[np.arange(n) < orders[:, None]] = np.nan
    return fitted


def reference_enbpi_per_member(series, test_len, spec, forecaster, alpha):
    """EnbPI with one lone fit per member and separate one-step passes over
    the training span and the whole series; the arithmetic of each value
    is that of enbpi_intervals, so the results must be equal."""
    values = series.values
    n_train = len(values) - test_len
    members = reference_members(series, test_len, spec, forecaster)
    models = [model for _, model in members]
    fitted = reference_one_step(values[:n_train], models)
    in_bag = np.zeros(fitted.shape, dtype=bool)
    for b, (idx, _) in enumerate(members):
        in_bag[b, idx] = True
    loo, fallbacks = conformal._loo_scores(values[:n_train], fitted, in_bag)
    loo = loo[~np.isnan(loo)]
    yhat = reference_one_step(values, models)[:, n_train:].mean(axis=0)
    window = list(loo[-spec.window_len :])
    radii = np.empty(test_len)
    for j in range(test_len):
        radii[j] = oracle_quantile(window, 1.0 - alpha)
        window.append(abs(values[n_train + j] - yhat[j]))
        if len(window) > spec.window_len:
            window.pop(0)
    return yhat - radii, yhat + radii, {"loo_fallbacks": int(fallbacks), "loo_count": len(loo)}


def reference_enbpi(series, test_len, spec, forecaster, alpha):
    """EnbPI with one-step predictions and the window updated step by step."""
    values = series.values
    n_train = len(values) - test_len
    members = reference_members(series, test_len, spec, forecaster)
    loo, fallbacks, _ = reference_loo(values[:n_train], members)
    window = list(loo[-spec.window_len:])
    lower, upper = np.empty(test_len), np.empty(test_len)
    for j in range(test_len):
        _, _, fitted = reference_loo(values[: n_train + j + 1], members)
        yhat = float(np.mean(fitted[:, n_train + j]))
        radius = oracle_quantile(window, 1.0 - alpha)
        lower[j], upper[j] = yhat - radius, yhat + radius
        window.append(abs(values[n_train + j] - yhat))
        if len(window) > spec.window_len:
            window.pop(0)
    return lower, upper, {"loo_fallbacks": fallbacks, "loo_count": len(loo)}


class TestEnbpi:
    @pytest.mark.parametrize("n, block_len", [(1, 1), (7, 3), (12, 12), (30, 12), (37, 5), (9, 40), (10, 0), (10, -3)])
    def test_bootstrap_indices_are_concatenated_blocks(self, n, block_len):
        # One rng.integers call draws every member's block starts, as one
        # call per member in turn would; each member is whole blocks cut at n.
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for members in (1, 4):
                got = conformal._block_bootstrap(n, block_len, rng, members)
                assert got.shape == (members, n)
                for row in got:
                    size = min(max(block_len, 1), n)
                    starts = ref_rng.integers(0, n - size + 1, size=math.ceil(n / size))
                    want = np.concatenate([np.arange(s, s + size) for s in starts])[:n]
                    assert row.dtype == want.dtype and np.array_equal(row, want)

    @pytest.mark.parametrize("k", [1, 2, 7, 12])
    @pytest.mark.parametrize("B", [2, 3, 20])
    def test_one_integers_call_draws_what_calls_per_member_draw(self, k, B):
        # The stacked draw relies on it: the generator, not the call, holds
        # the unused half of a 64-bit draw, so odd k loses nothing.
        for seed in range(5):
            for high in (1, 2, 13, 109):
                one = np.random.default_rng(seed).integers(0, high, size=(B, k))
                rng = np.random.default_rng(seed)
                each = np.stack([rng.integers(0, high, size=k) for _ in range(B)])
                assert np.array_equal(one, each)

    def test_loo_matches_index_loop(self):
        # Members of different orders, fitted on index sets of different sizes.
        rng = np.random.default_rng(21)
        values = 10.0 + simulate_ar1(40, 0.6, seed=21)
        for _ in range(10):
            members = []
            for _ in range(int(rng.integers(2, 7))):
                idx = rng.integers(0, 40, size=int(rng.integers(25, 45)))
                model = fit_auto_ar(values[idx], ForecasterSpec(max_order=int(rng.integers(0, 5))))
                members.append((frozenset(idx.tolist()), model))
            fitted = conformal._one_step_fitted(values, *padded_coefficients([m for _, m in members]))
            in_bag = np.zeros(fitted.shape, dtype=bool)
            for b, (idx, _) in enumerate(members):
                in_bag[b, list(idx)] = True
            got, fallbacks = conformal._loo_scores(values, fitted, in_bag)
            want, want_fallbacks, want_fitted = reference_loo(values, members)
            assert np.allclose(fitted, want_fitted, rtol=0.0, atol=1e-12, equal_nan=True)
            assert fallbacks == want_fallbacks
            assert np.allclose(got[~np.isnan(got)], want, rtol=0.0, atol=1e-12)

    # A window longer than the series must cost no more than the scores it holds.
    @pytest.mark.parametrize("window_len", [10, 100, 10**12])
    @pytest.mark.parametrize("period", [1, 4])
    def test_intervals_match_step_by_step_loop(self, window_len, period):
        for seed in range(3):
            y = 30.0 + simulate_ar1(70, 0.5, seed=seed)
            ts = make_series(y, period=period)
            spec = EnsembleSpec(B=6, window_len=window_len, seed=seed)
            iv = enbpi_intervals(ts, 8, spec, ForecasterSpec(), 0.2)
            lower, upper, diagnostics = reference_enbpi(ts, 8, spec, ForecasterSpec(), 0.2)
            assert iv.diagnostics == diagnostics
            assert np.allclose(iv.lower[0], lower, rtol=0.0, atol=1e-12)
            assert np.allclose(iv.upper[0], upper, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "forecaster", [ForecasterSpec(), ForecasterSpec(max_order=3, include_drift=False)]
    )
    @pytest.mark.parametrize("window_len", [5, 100])
    @pytest.mark.parametrize("period", [1, 4, 12])
    def test_stacked_ensemble_equals_per_member_fits(self, forecaster, window_len, period):
        # The one stacked solve gives every member bit for bit its lone fit,
        # and the one-step pass over the whole series its two separate passes.
        for seed in range(4):
            y = 20.0 + simulate_ar1(60 + 13 * seed, 0.4 + 0.1 * seed, seed=seed)
            ts = make_series(y, period=period)
            spec = EnsembleSpec(B=3 + 5 * seed, window_len=window_len, seed=seed)
            iv = enbpi_intervals(ts, 6 + seed, spec, forecaster, 0.1)
            lower, upper, diagnostics = reference_enbpi_per_member(ts, 6 + seed, spec, forecaster, 0.1)
            assert iv.diagnostics == diagnostics
            assert np.array_equal(iv.lower[0], lower)
            assert np.array_equal(iv.upper[0], upper)

    def test_one_stacked_fit_per_call(self, monkeypatch):
        calls = []
        fit_ar_prefixes = conformal._fit_ar_prefixes

        def counting(values, ends, *args):
            calls.append((values.shape, list(ends)))
            return fit_ar_prefixes(values, ends, *args)

        def refuse(*args):
            raise AssertionError("a member was fitted alone")

        monkeypatch.setattr(conformal, "_fit_ar_prefixes", counting)
        monkeypatch.setattr(conformal, "fit_auto_ar", refuse)
        monkeypatch.setattr("ctsbench.forecaster.fit_auto_ar", refuse)
        enbpi_intervals(make_series(simulate_ar1(80, 0.5, seed=11)), 6, EnsembleSpec(B=8), ForecasterSpec(), 0.1)
        assert calls == [((8, 74), [74])]

    def test_members_fit_in_blocks_of_the_stack_bound(self, monkeypatch):
        ts = make_series(simulate_ar1(80, 0.5, seed=11))
        spec = EnsembleSpec(B=8, window_len=20)
        whole = enbpi_intervals(ts, 6, spec, ForecasterSpec(), 0.1)
        rows = []
        fit_ar_prefixes = conformal._fit_ar_prefixes

        def counting(values, *args):
            rows.append(len(values))
            return fit_ar_prefixes(values, *args)

        monkeypatch.setattr(conformal, "_fit_ar_prefixes", counting)
        monkeypatch.setattr("ctsbench.forecaster._STACK_BLOCK", 3)
        blocked = enbpi_intervals(ts, 6, spec, ForecasterSpec(), 0.1)
        assert rows == [3, 3, 2]
        assert np.array_equal(blocked.lower, whole.lower)
        assert np.array_equal(blocked.upper, whole.upper)
        assert blocked.diagnostics == whole.diagnostics

    def test_stacked_call_needs_one_length_period_and_ensemble_size(self):
        a = make_series(simulate_ar1(80, 0.5, seed=11))
        b = make_series(simulate_ar1(80, 0.5, seed=12))
        spec = EnsembleSpec(B=4)
        for series, specs, match in (
            ([a, make_series(simulate_ar1(81, 0.5, seed=12))], [spec, spec], "one length and period"),
            ([a, make_series(b.values, period=4)], [spec, spec], "one length and period"),
            ([a, b], [spec, EnsembleSpec(B=5)], "one member count"),
            ([a, b], [spec, EnsembleSpec(B=4, window_len=7)], "one member count"),
            ([a, b], [spec], "2 series"),
        ):
            with pytest.raises(ValueError, match=match):
                conformal._enbpi_bounds(series, 6, specs, ForecasterSpec(), 0.1)

    def test_loo_hand_example(self):
        # order-0 members are constant predictors, so LOO means are explicit
        fitted = np.array([[10.0, 10.0, 10.0], [20.0, 20.0, 20.0]])
        in_bag = np.array([[True, True, False], [False, True, True]])
        residuals, fallbacks = conformal._loo_scores(np.array([1.0, 2.0, 3.0]), fitted, in_bag)
        # i=0: only member 2 excludes it -> |1-20|; i=1: nobody excludes it
        # -> fallback mean 15 -> |2-15|; i=2: member 1 -> |3-10|
        assert residuals.tolist() == [19.0, 13.0, 7.0]
        assert fallbacks == 1

    def test_interval_shape_and_determinism(self):
        y = simulate_ar1(80, 0.5, seed=11)
        ts = make_series(y)
        spec = EnsembleSpec(B=8, seed=3)
        a = enbpi_intervals(ts, 6, spec, ForecasterSpec(), 0.1)
        b = enbpi_intervals(ts, 6, spec, ForecasterSpec(), 0.1)
        assert a.shape == (1, 6)
        assert a == b
        assert "loo_fallbacks" in a.diagnostics and "loo_count" in a.diagnostics

    def test_different_seed_changes_members(self):
        y = simulate_ar1(80, 0.5, seed=11)
        ts = make_series(y)
        a = enbpi_intervals(ts, 6, EnsembleSpec(B=8, seed=3), ForecasterSpec(), 0.1)
        b = enbpi_intervals(ts, 6, EnsembleSpec(B=8, seed=4), ForecasterSpec(), 0.1)
        assert not np.allclose(a.lower, b.lower)

    def test_window_updates_with_realized_residuals(self):
        # a huge level shift in the test block must widen later intervals
        y = np.concatenate([simulate_ar1(70, 0.3, seed=5), np.full(10, 50.0)])
        ts = make_series(y)
        iv = enbpi_intervals(ts, 10, EnsembleSpec(B=8, seed=0, window_len=30), ForecasterSpec(), 0.1)
        w = iv.width[0]
        assert w[-1] > w[0]

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            enbpi_intervals(make_series(np.arange(6.0)), 2, EnsembleSpec(B=4), ForecasterSpec(), 0.1)

    def test_seasonal_naive_rejected(self):
        # the ensemble members are autoregressions; under seasonal naive they
        # would wrap a different forecaster from every other method
        ts = make_series(simulate_ar1(80, 0.5, seed=11), period=4)
        with pytest.raises(ValueError, match="autoregressive"):
            enbpi_intervals(ts, 6, EnsembleSpec(B=4), ForecasterSpec(kind="seasonal_naive"), 0.1)


class TestSpci:
    def test_history_too_short(self):
        with pytest.raises(ValueError, match="history too short"):
            conformal._spci_pairs(np.zeros((1, 10)), SpciSpec(lag_count=8), 0.1)

    def test_constant_history_falls_back(self):
        (q_lo,), (q_hi,), _, (fallback,), _ = conformal._spci_pairs(np.full((1, 30), 2.0), SpciSpec(lag_count=8), 0.1)
        assert fallback
        assert q_lo == pytest.approx(2.0) and q_hi == pytest.approx(2.0)

    @pytest.mark.parametrize("pattern", [[1.0, -1.0], [1.0, 2.0, -3.0]])
    def test_rank_deficient_lags_give_finite_interval(self, pattern):
        # periodic residuals make lag columns collinear without being
        # constant; the next residual is pattern[0], predicted exactly
        history = np.tile(pattern, 30 // len(pattern))
        (q_lo,), (q_hi,), _, (fallback,), _ = conformal._spci_pairs(history[None], SpciSpec(), 0.1)
        assert not fallback
        assert q_lo <= q_hi
        assert q_lo == pytest.approx(pattern[0], abs=1e-8)
        assert q_hi == pytest.approx(pattern[0], abs=1e-8)

    def test_lag_matrix_rows_are_consecutive_windows(self, monkeypatch):
        seen = {}
        real = conformal.fit_pinball_stacked

        def capture(X, y, taus, rows):
            # The real rows of the one design: those past rows[0] are padding.
            (k,) = rows
            (seen["X"],), (seen["y"],) = np.array(X)[:, :k], np.array(y)[:, :k]
            return real(X, y, taus, rows)

        monkeypatch.setattr(conformal, "fit_pinball_stacked", capture)
        e = simulate_ar1(40, 0.5, seed=3)
        conformal._spci_pairs(e[None], SpciSpec(lag_count=5), 0.1)
        loop = np.empty((35, 5))
        for r in range(35):
            loop[r] = e[r : r + 5]
        assert seen["X"].tobytes() == loop.tobytes()
        assert seen["y"].tobytes() == e[5:].tobytes()

    def test_beta_in_grid(self):
        e = simulate_ar1(60, 0.8, seed=21)
        *_, (beta,) = conformal._spci_pairs(e[None], SpciSpec(), 0.1)
        assert beta in np.linspace(0.0, 0.1, 11)

    def test_narrower_than_split_on_autocorrelated_residuals(self):
        # quantile regression on lagged residuals exploits the dependence
        # that the marginal split-conformal quantile ignores
        rng = np.random.default_rng(42)
        spci_w, mscp_w = [], []
        for _ in range(40):
            e = np.zeros(60)
            for t in range(1, 60):
                e[t] = 0.8 * e[t - 1] + rng.standard_normal()
            (q_lo,), (q_hi,), *_ = conformal._spci_pairs(e[None], SpciSpec(), 0.1)
            spci_w.append(q_hi - q_lo)
            mscp_w.append(2.0 * oracle_quantile(np.abs(e), 0.9))
        assert np.mean(spci_w) < np.mean(mscp_w)

    def test_intervals_require_signed(self):
        rm = ResidualMatrix(matrix=np.abs(np.random.default_rng(0).standard_normal((30, 2))), origins=tuple(range(30)))
        with pytest.raises(ValueError, match="signed"):
            spci_intervals(np.zeros(2), rm, SpciSpec(), 0.1)

    def test_intervals_shape_and_diagnostics(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((30, 3))
        rm = ResidualMatrix(matrix=m, origins=tuple(range(30)), signed=True)
        iv = spci_intervals(np.zeros(3), rm, SpciSpec(lag_count=4), 0.1)
        assert iv.shape == (1, 3)
        assert set(iv.diagnostics) == {"crossings", "fallbacks", "betas"}
        assert len(iv.diagnostics["betas"]) == 3

    def test_one_solver_call_per_row_bucket_for_a_stack(self, monkeypatch):
        # 12 series at 4 horizons give designs of 26, 25, 24 and 23 rows at
        # 4 lags. All 48 go to the solver in one call, which pads them to
        # the next multiple of 8 rows and solves each bucket, 32 and 24, once.
        calls, solves = [], []
        real, fit_stack = conformal.fit_pinball_stacked, quantreg._fit_stack

        def spy(X, y, taus, rows):
            calls.append(sorted(collections.Counter(rows.tolist()).items()))
            return real(X, y, taus, rows)

        def solve_spy(X, y, mask, taus, iters):
            solves.append(X.shape)
            return fit_stack(X, y, mask, taus, iters)

        monkeypatch.setattr(conformal, "fit_pinball_stacked", spy)
        monkeypatch.setattr(quantreg, "_fit_stack", solve_spy)
        rng = np.random.default_rng(5)
        signed = np.stack([padded_signed_residuals(rng).matrix for _ in range(12)])
        lower, upper, diagnostics = conformal._spci_bounds(np.zeros((12, 4)), signed, SpciSpec(lag_count=4), 0.1)
        assert lower.shape == upper.shape == (12, 4) and len(diagnostics) == 12
        assert calls == [[(23, 12), (24, 12), (25, 12), (26, 12)]]
        assert sorted(solves) == [(24, 24, 4), (24, 32, 4)]

    def test_levels_beyond_one_over_n_solved_once(self, monkeypatch):
        # A 36-point residual matrix gives horizon h a design of 28 - (h - 1)
        # rows at 8 lags: 17-24 rows pad to 24 and 25-28 to 32, two solves.
        # Each problem's levels below 1/n, and those above 1 - 1/n, share one
        # level per side: 169 distinct level problems over the 12 designs.
        # Newton first solves each problem's two extreme levels (its seeds)
        # alone, and a later Newton call never solves a seed level again.
        solved, newton = [], []
        solve_levels, frisch_newton = quantreg._solve_levels, quantreg._frisch_newton

        def levels_spy(U, ys, real, levels, iters):
            solved.append((ys, levels))
            newton.append([])
            return solve_levels(U, ys, real, levels, iters)

        def newton_spy(U, ys, real, taus, iters):
            newton[-1].append((ys, taus))
            return frisch_newton(U, ys, real, taus, iters)

        monkeypatch.setattr(quantreg, "_solve_levels", levels_spy)
        monkeypatch.setattr(quantreg, "_frisch_newton", newton_spy)
        residuals = padded_signed_residuals(np.random.default_rng(10), rows=36, horizon=12)
        spci_intervals(np.zeros(12), residuals, SpciSpec(), 0.1)
        assert len(solved) == 2
        assert sum(len(np.unique(row)) for _, levels in solved for row in levels) == 169
        for (ys, levels), calls in zip(solved, newton):
            seeds = levels[:, [0, -1]]
            assert calls[0][0] is ys and np.array_equal(calls[0][1], seeds)
            for later_ys, taus in calls[1:]:
                # Each row of a later call is one of this solve's problems.
                for row, lanes in zip(later_ys, taus):
                    (problem,) = np.flatnonzero((ys == row).all(axis=1))
                    assert not np.isin(lanes, seeds[problem]).any()

    def test_stack_gives_each_series_its_lone_intervals(self):
        # the last series' histories are constant: it falls back to empirical
        # quantiles inside the stack, while the others are fitted
        rng = np.random.default_rng(6)
        residuals = [padded_signed_residuals(rng) for _ in range(6)]
        pattern = residuals[0].matrix
        residuals.append(ResidualMatrix(np.where(np.isnan(pattern), np.nan, 2.0), residuals[0].origins, signed=True))
        fc = rng.standard_normal((7, 4))
        spec = SpciSpec(lag_count=4)
        lower, upper, diagnostics = conformal._spci_bounds(fc, np.stack([res.matrix for res in residuals]), spec, 0.1)
        assert conformal._row_faults(lower, upper) == [None] * 7
        for f, res, lo, hi, diag in zip(fc, residuals, lower, upper, diagnostics):
            alone = spci_intervals(f, res, spec, 0.1)
            assert lo.tobytes() == alone.lower.tobytes()
            assert hi.tobytes() == alone.upper.tobytes()
            assert diag == alone.diagnostics
        assert [diag["fallbacks"] for diag in diagnostics] == [0] * 6 + [4]

    def test_a_replaced_one_problem_fitter_sees_every_fit(self, monkeypatch):
        # perfbench traces quantreg at conformal.fit_pinball_linear: with that
        # name replaced, each solved (series, horizon) goes through it once,
        # and the intervals are those of the stacked solver
        rng = np.random.default_rng(8)
        signed = np.stack([padded_signed_residuals(rng).matrix for _ in range(5)])
        fc = rng.standard_normal((5, 4))
        spec = SpciSpec(lag_count=4)
        stacked = conformal._spci_bounds(fc, signed, spec, 0.1)
        designs = []
        real = conformal.fit_pinball_linear

        def spy(X, y, taus):
            designs.append(X.shape)
            return real(X, y, taus)

        monkeypatch.setattr(conformal, "fit_pinball_linear", spy)
        monkeypatch.setattr(conformal, "fit_pinball_stacked", None)
        traced = conformal._spci_bounds(fc, signed, spec, 0.1)
        assert len(designs) == 5 * 4
        assert all(len(shape) == 2 for shape in designs)
        (lower, upper, diagnostics), (traced_lower, traced_upper, traced_diagnostics) = stacked, traced
        assert conformal._row_faults(lower, upper) == [None] * 5
        assert lower.tobytes() == traced_lower.tobytes()
        assert upper.tobytes() == traced_upper.tobytes()
        assert diagnostics == traced_diagnostics

    def test_stack_needs_equal_column_lengths(self):
        rng = np.random.default_rng(7)
        # One stack, but the second series' first origin is padding too.
        signed = np.stack([padded_signed_residuals(rng).matrix for _ in range(2)])
        signed[1, 0] = np.nan
        with pytest.raises(ValueError, match="horizon 1 residual columns differ in length"):
            conformal._spci_bounds(np.zeros((2, 4)), signed, SpciSpec(lag_count=4), 0.1)

    def test_stack_rejects_an_infinite_residual(self):
        # The residual matrix's own check and message: NaN is the only padding.
        signed = np.stack([padded_signed_residuals(np.random.default_rng(7)).matrix])
        signed[0, 3, 1] = -np.inf
        with pytest.raises(ValueError, match="residual matrix entries must be finite; NaN marks padding"):
            conformal._spci_bounds(np.zeros((1, 4)), signed, SpciSpec(lag_count=4), 0.1)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([-50, -20, 0, 20, 50]))
    def test_pair_scales_with_the_history(self, seed, k):
        # the constant-lag test is scale-free and scaling by a power of two
        # is exact, so the whole fit scales exactly
        e = simulate_ar1(40, 0.7, seed=seed)
        (lo,), (hi,), *diag = conformal._spci_pairs(e[None], SpciSpec(), 0.1)
        (scaled_lo,), (scaled_hi,), *scaled_diag = conformal._spci_pairs(2.0**k * e[None], SpciSpec(), 0.1)
        assert (scaled_lo, scaled_hi) == (2.0**k * lo, 2.0**k * hi)
        assert [d.tolist() for d in scaled_diag] == [d.tolist() for d in diag]

    def test_tiny_history_is_fitted_not_replaced_by_empirical_quantiles(self):
        e = simulate_ar1(40, 0.7, seed=1)
        (lo,), (hi,), *_ = conformal._spci_pairs(e[None], SpciSpec(), 0.1)
        (lo_s,), (hi_s,), _, (fallback,), _ = conformal._spci_pairs(1e-14 * e[None], SpciSpec(), 0.1)
        assert not fallback
        assert lo_s == pytest.approx(1e-14 * lo, rel=1e-9)
        assert hi_s == pytest.approx(1e-14 * hi, rel=1e-9)


class TestGlobalCp:
    def test_single_series_rejected(self):
        panel = SeriesPanel((make_series(np.arange(30.0)),))
        with pytest.raises(ValueError, match="requires a cohort"):
            global_cp_intervals(panel, 0.5, local_forecasts(panel, 3), 0.1, 3)

    @pytest.mark.parametrize("cohort_split", [0.0, 1.0, 1.5, math.nan])
    def test_cohort_split_must_be_a_fraction(self, cohort_split):
        panel = SeriesPanel(tuple(make_series(np.arange(30.0), series_id=f"s{i}") for i in range(4)))
        with pytest.raises(ValueError, match=rf"cohort_split must be in \(0, 1\), got {cohort_split}"):
            global_cp_intervals(panel, cohort_split, {sid: np.zeros(3) for sid in panel.ids}, 0.1, 3)

    def test_h1_equals_split_conformal(self):
        # with one horizon the pooled construction reduces to plain split
        # conformal over per-series holdout residuals
        rng = np.random.default_rng(14)
        series = tuple(
            make_series(simulate_ar1(40, 0.5, seed=int(rng.integers(1 << 30))), series_id=f"s{i:02d}")
            for i in range(8)
        )
        panel = SeriesPanel(series)
        fcs = local_forecasts(panel, 1)
        res = global_cp_intervals(panel, 0.5, fcs, 0.1, 1)
        assert res.calibration_ids == panel.ids[:4]
        assert res.evaluation_ids == panel.ids[4:]
        pooled = [abs(panel[sid].values[-1] - fcs[sid][0]) for sid in res.calibration_ids]
        radius = oracle_quantile(pooled, 0.9)
        assert res.radii[0] == radius
        for sid in res.evaluation_ids:
            iv = res.intervals[sid]
            assert iv.lower[0, 0] == fcs[sid][0] - radius
            assert iv.upper[0, 0] == fcs[sid][0] + radius

    def test_shared_radii_across_evaluation_series(self):
        rng = np.random.default_rng(15)
        series = tuple(
            make_series(simulate_ar1(48, 0.4, seed=int(rng.integers(1 << 30))), series_id=f"s{i:02d}")
            for i in range(10)
        )
        panel = SeriesPanel(series)
        res = global_cp_intervals(panel, 0.5, local_forecasts(panel, 6), 0.1, 6)
        for sid in res.evaluation_ids:
            w = res.intervals[sid].width[0]
            assert np.allclose(w, 2.0 * res.radii)

    @pytest.mark.parametrize(
        "bad, match",
        [(lambda f: f.pop("s03"), "no forecast for series 's03'"),
         (lambda f: f.update(s01=np.zeros(5)), r"shape \(5,\), expected \(6,\)")],
    )
    def test_every_series_needs_a_horizon_length_forecast(self, bad, match):
        panel = SeriesPanel(tuple(
            make_series(simulate_ar1(30, 0.4, seed=i), series_id=f"s{i:02d}") for i in range(4)
        ))
        fcs = local_forecasts(panel, 6)
        bad(fcs)
        with pytest.raises(ValueError, match=match):
            global_cp_intervals(panel, 0.5, fcs, 0.1, 6)

    def test_an_invalid_evaluation_interval_raises(self):
        panel = SeriesPanel(tuple(
            make_series(simulate_ar1(30, 0.4, seed=i), series_id=f"s{i:02d}") for i in range(4)
        ))
        fcs = local_forecasts(panel, 3)
        fcs["s03"] = np.array([0.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="interval bound is NaN"):
            global_cp_intervals(panel, 0.5, fcs, 0.1, 3)


class TestCvConformal:
    def test_empirical_median_of_three(self):
        assert float(np.quantile([2.0, 4.0, 6.0], 0.5)) == 4.0

    def test_radii_match_backtest_quantiles(self):
        y = simulate_ar1(60, 0.5, seed=30)
        ts = make_series(y)
        yhat = forecast(fit_auto_ar(ts, ForecasterSpec()), ts, 4)
        iv = cv_conformal_intervals({"s": yhat}, [ts], 3, ForecasterSpec(), 0.1)["s"]
        resid = np.abs(conformal._origin_residuals(ts.values[None], np.array([48, 52, 56]), ForecasterSpec(), ts.period, 4))
        for h in range(1, 5):
            radius = float(np.quantile(resid[0, :, h - 1], 0.9))
            assert iv.lower[0, h - 1] == pytest.approx(yhat[h - 1] - radius)
            assert iv.upper[0, h - 1] == pytest.approx(yhat[h - 1] + radius)

    def test_radii_are_per_column_quantiles_bit_for_bit(self):
        for seed in range(5):
            ts = make_series(simulate_ar1(60, 0.5, seed=seed))
            yhat = np.random.default_rng(seed).standard_normal(6)
            cutoffs = np.array([36, 42, 48, 54])
            resid = np.abs(conformal._origin_residuals(ts.values[None], cutoffs, ForecasterSpec(), ts.period, 6))
            radii = np.array([np.quantile(resid[0, :, h - 1], 0.85) for h in range(1, 7)])
            iv = cv_conformal_intervals({"s": yhat}, [ts], 4, ForecasterSpec(), 0.15)["s"]
            assert np.array_equal(iv.lower[0], yhat - radii)
            assert np.array_equal(iv.upper[0], yhat + radii)

    def test_single_window_matches_manual_holdout(self):
        y = simulate_ar1(40, 0.5, seed=31)
        ts = make_series(y)
        cutoff = 35
        resid = conformal._origin_residuals(ts.values[None], np.array([cutoff]), ForecasterSpec(), ts.period, 5)
        head = ts.head(cutoff)
        yhat = forecast(fit_auto_ar(head, ForecasterSpec()), head, 5)
        assert np.allclose(resid[0, 0], y[cutoff:] - yhat)
        iv = cv_conformal_intervals({"s": yhat}, [ts], 1, ForecasterSpec(), 0.1)["s"]
        assert np.array_equal(iv.lower[0], yhat - np.abs(resid[0, 0]))
        assert np.array_equal(iv.upper[0], yhat + np.abs(resid[0, 0]))

    def test_an_invalid_interval_raises(self):
        # Unlike a series too short for its backtest, which is returned as
        # its message, an invalid interval stops the call.
        series = [make_series(simulate_ar1(40, 0.5, seed=i), f"s{i}") for i in range(3)]
        forecasts = {ts.series_id: np.zeros(4) for ts in series}
        forecasts["s1"] = np.array([0.0, 0.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="interval bound is NaN"):
            cv_conformal_intervals(forecasts, series, 2, ForecasterSpec(), 0.1)

    def test_too_many_windows_rejected(self):
        ts = make_series(np.arange(10.0))
        out = cv_conformal_intervals({"s": np.zeros(4)}, [ts], 3, ForecasterSpec(), 0.1)
        assert out == {"s": "series 's' admits no 3-window backtest at horizon 4"}

    @pytest.mark.parametrize(
        "forecaster",
        [ForecasterSpec(), ForecasterSpec(max_order=3, include_drift=False), ForecasterSpec("seasonal_naive")],
    )
    def test_pooled_series_get_their_one_series_intervals(self, monkeypatch, forecaster):
        # Two length groups, both larger than the block, a constant and a
        # trend inside them, and one series too short for its backtest; the
        # series arrive in shuffled order.
        monkeypatch.setattr("ctsbench.forecaster._STACK_BLOCK", 2)
        series = [make_series(simulate_ar1(40, 0.6, seed=i), f"long{i}", period=4) for i in range(4)]
        series += [make_series(simulate_ar1(33, 0.3, seed=i), f"mid{i}", period=4) for i in range(3)]
        series += [
            make_series(np.full(40, 2.0), "flat", period=4),
            make_series(1.0 + 0.5 * np.arange(33.0), "trend", period=4),
            make_series(simulate_ar1(14, 0.6, seed=9), "short", period=4),
        ]
        rng = np.random.default_rng(8)
        forecasts = {ts.series_id: rng.standard_normal(4) for ts in series}
        shuffled = [series[i] for i in rng.permutation(len(series))]
        pooled = cv_conformal_intervals(forecasts, shuffled, 3, forecaster, 0.2)
        assert pooled.keys() == forecasts.keys()
        for ts in series:
            sid = ts.series_id
            alone = cv_conformal_intervals({sid: forecasts[sid]}, [ts], 3, forecaster, 0.2)
            assert pooled[sid] == alone[sid], sid
        assert pooled["short"] == "series 'short' admits no 3-window backtest at horizon 4"
        assert all(isinstance(pooled[ts.series_id], IntervalMatrix) for ts in series[:-1])

    def test_an_error_stays_with_its_series(self, monkeypatch):
        # A stacked solve that fails is redone series by series, so that
        # the failure skips only the series that caused it.
        monkeypatch.setattr("ctsbench.forecaster._STACK_BLOCK", 2)
        prefix_forecasts = conformal._prefix_forecasts

        def failing(values, *args):
            if np.any(values[:, 0] == 99.0):
                raise np.linalg.LinAlgError("Singular matrix")
            return prefix_forecasts(values, *args)

        monkeypatch.setattr(conformal, "_prefix_forecasts", failing)
        series = [make_series(simulate_ar1(30, 0.5, seed=i), f"s{i}") for i in range(3)]
        bad = simulate_ar1(30, 0.5, seed=3)
        bad[0] = 99.0
        series.append(make_series(bad, "bad"))
        forecasts = {ts.series_id: np.zeros(3) for ts in series}
        pooled = cv_conformal_intervals(forecasts, series, 2, ForecasterSpec(), 0.2)
        assert pooled["bad"] == "Singular matrix"
        for ts in series[:3]:
            alone = cv_conformal_intervals({ts.series_id: np.zeros(3)}, [ts], 2, ForecasterSpec(), 0.2)
            assert pooled[ts.series_id] == alone[ts.series_id]

    def test_missing_forecast_rejected(self):
        ts = make_series(simulate_ar1(30, 0.5, seed=1))
        with pytest.raises(ValueError, match="no forecast for series 's'"):
            cv_conformal_intervals({}, [ts], 2, ForecasterSpec(), 0.1)


class TestParametric:
    def test_width_is_two_z_sigma(self):
        y = simulate_ar1(50, 0.5, seed=40)
        model = fit_auto_ar(y, ForecasterSpec())
        iv = parametric_intervals(model, forecast(model, y, 6), 0.1)
        z = NormalDist().inv_cdf(0.95)
        assert np.allclose(iv.width[0], 2.0 * z * sigma_h(model, 6))

    def test_centered_on_forecast(self):
        y = simulate_ar1(50, 0.5, seed=41)
        model = fit_auto_ar(y, ForecasterSpec())
        yhat = forecast(model, y, 4)
        iv = parametric_intervals(model, yhat, 0.2)
        assert iv.shape == (1, 4)
        assert np.allclose((iv.lower[0] + iv.upper[0]) / 2.0, yhat)


    def test_stacked_rows_are_each_model_alone(self):
        models, fcs = [], []
        for seed, phi in ((42, []), (43, [0.6]), (44, [0.5, -0.3, 0.2]), (45, [0.4, 0.1, -0.1, 0.05, 0.2])):
            y = simulate_ar1(60, 0.6, seed=seed)
            model = FittedForecaster(np.array(phi), 0.1, 1.5, len(phi), (0.0,) * (len(phi) + 1))
            models.append(model)
            fcs.append(forecast(model, y, 7))
        models.append(fit_auto_ar(simulate_ar1(60, 0.6, seed=46), ForecasterSpec()))
        fcs.append(forecast(models[-1], simulate_ar1(60, 0.6, seed=46), 7))
        # An AR(1) whose psi and so whose width overflow: a valid, infinite interval.
        models.insert(2, FittedForecaster(np.array([1e200]), 0.0, 1.0, 1, (0.0, 0.0)))
        fcs.insert(2, np.zeros(7))
        # An AR(2) whose psi reaches inf - inf: NaN bounds, so its message.
        models.append(FittedForecaster(np.array([1e200, -1e200]), 0.0, 1.0, 2, (0.0,) * 3))
        fcs.append(np.zeros(7))
        phi = np.zeros((len(models), max(m.order for m in models)))
        for row, m in zip(phi, models):
            row[: m.order] = m.phi
        order, sigma2 = np.array([m.order for m in models]), np.array([m.sigma2 for m in models])
        with np.errstate(over="ignore", invalid="ignore"):
            lower, upper = conformal._parametric_bounds(phi, order, sigma2, np.stack(fcs), 0.1)
            faults = conformal._row_faults(lower, upper)
            for lo, hi, model, fc in zip(lower[:-1], upper[:-1], models, fcs):
                alone = parametric_intervals(model, fc, 0.1)
                assert lo.tobytes() == alone.lower.tobytes()
                assert hi.tobytes() == alone.upper.tobytes()
            with pytest.raises(ValueError, match="interval bound is NaN"):
                parametric_intervals(models[-1], fcs[-1], 0.1)
        assert np.isposinf(upper[2, 2:] - lower[2, 2:]).all()
        assert faults == [None] * (len(models) - 1) + ["interval bound is NaN"]

    def test_stacked_shapes_are_checked(self):
        phi, order, sigma2 = np.array([[0.5]]), np.array([1]), np.array([1.0])
        with pytest.raises(ValueError, match="one forecast row per model"):
            conformal._parametric_bounds(phi, order, sigma2, np.zeros((2, 3)), 0.1)
        with pytest.raises(ValueError, match="alpha"):
            conformal._parametric_bounds(phi, order, sigma2, np.zeros((1, 3)), 1.0)


class TestIntervalMatrix:
    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            IntervalMatrix(lower=np.array([[1.0]]), upper=np.array([[0.0]]))

    def test_bound_shapes_must_match(self):
        with pytest.raises(ValueError, match=r"bound shape mismatch: \(2, 3\) vs \(3, 3\)"):
            IntervalMatrix(lower=np.zeros((2, 3)), upper=np.zeros((3, 3)))

    @pytest.mark.parametrize("lower, upper", [((1, 2, 3), (1, 2, 3)), ((1, 2, 3), (2, 3)), ((2, 3), (1, 1, 2, 3))])
    def test_bounds_must_be_2d(self, lower, upper):
        # (origins, horizons): a stack of more dimensions is refused, not
        # given a shape of three numbers; 1-D bounds are one origin's row.
        with pytest.raises(ValueError, match=r"^bounds must be 2-D \(origins, horizons\), got shapes"):
            IntervalMatrix(lower=np.zeros(lower), upper=np.ones(upper))
        assert IntervalMatrix(lower=np.zeros(3), upper=np.ones(3)).shape == (1, 3)

    def test_width(self):
        iv = IntervalMatrix(lower=np.array([[0.0, 1.0]]), upper=np.array([[2.0, 4.0]]))
        assert iv.width.tolist() == [[2.0, 3.0]]

    def test_bounds_are_read_only_copies(self):
        lower, upper = np.array([[0.0, 1.0]]), np.array([2.0, 4.0])
        iv = IntervalMatrix(lower=lower, upper=upper)
        assert iv.shape == (1, 2)
        assert lower.flags.writeable and upper.flags.writeable
        assert not iv.lower.flags.writeable and not iv.upper.flags.writeable
        assert not np.shares_memory(iv.lower, lower) and not np.shares_memory(iv.upper, upper)

    @given(
        st.lists(
            st.tuples(*[st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-math.inf, math.inf, math.nan]))] * 2),
            min_size=1,
            max_size=6,
        )
    )
    @example([(math.inf, 5.0)])
    @example([(1.0, 2.0), (3.0, -math.inf)])
    @example([(math.inf, math.inf)])
    @example([(-math.inf, -math.inf), (1.0, 2.0)])
    @example([(math.nan, 5.0)])
    @example([(1.0, 2.0), (-math.inf, math.nan)])
    @example([(math.nan, math.nan)])
    def test_constructs_exactly_when_no_cell_is_inverted(self, cells):
        lower = np.array([[lo for lo, _ in cells]])
        upper = np.array([[hi for _, hi in cells]])
        if any(math.isnan(lo) or math.isnan(hi) for lo, hi in cells):
            with pytest.raises(ValueError, match="NaN"):
                IntervalMatrix(lower=lower, upper=upper)
            return
        if any(lo > hi for lo, hi in cells):
            with pytest.raises(ValueError, match="exceeds"):
                IntervalMatrix(lower=lower, upper=upper)
            return
        if any(lo == math.inf or hi == -math.inf for lo, hi in cells):
            with pytest.raises(ValueError, match="pinned"):
                IntervalMatrix(lower=lower, upper=upper)
            return
        iv = IntervalMatrix(lower=lower, upper=upper)
        assert np.all(iv.width >= 0.0)  # and so no width is nan


def test_row_faults_are_each_row_alone():
    # Rows 1-4 hold a NaN bound, a crossed cell, and cells pinned at +inf
    # and at -inf; the others are valid, one of them infinitely wide. Each
    # row's fault is the message IntervalMatrix raises for that row alone,
    # which bench reports as the row's skip.
    inf, nan = math.inf, math.nan
    lower = np.array([[0.0, 1.0], [nan, 0.0], [0.0, 2.0], [inf, 0.0], [0.0, -inf], [-inf, -inf], [3.0, 3.0]])
    upper = np.array([[1.0, 2.0], [1.0, 1.0], [1.0, 1.0], [inf, 1.0], [1.0, -inf], [inf, inf], [3.0, 3.0]])
    faults = conformal._row_faults(lower, upper)
    assert faults[1:5] == [
        "interval bound is NaN",
        "lower bound exceeds upper bound",
        "interval pinned at an infinite bound",
        "interval pinned at an infinite bound",
    ]
    for s, fault in enumerate(faults):
        try:
            alone = IntervalMatrix(lower=lower[s], upper=upper[s])
        except ValueError as e:
            assert fault == str(e)
            continue
        assert fault is None
        assert alone.lower.tobytes() == lower[s].tobytes() and alone.upper.tobytes() == upper[s].tobytes()
    assert [s for s, fault in enumerate(faults) if fault is None] == [0, 5, 6]


def test_every_public_construction_is_exported():
    # A public function or class of the module is package API: none exists
    # only for its own tests.
    import ctsbench

    defined = {
        name
        for name, obj in vars(conformal).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == conformal.__name__
    }
    assert "spci_intervals" in defined
    assert defined <= set(ctsbench.__all__), sorted(defined - set(ctsbench.__all__))
