"""Online coverage controllers: ACI update and the multi-step quantile tracker."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ctsbench.online import (
    AciState,
    AcmcpState,
    CoverageEvent,
    aci_interval,
    aci_step,
    acmcp_init,
    acmcp_interval,
    acmcp_step,
)


def tracker(q=10.0, eta=1.0, alpha=0.1, k_i=0.0, c_sat=20.0, h=1, **kw):
    return AcmcpState(h=h, q=q, eta=eta, alpha=alpha, k_i=k_i, c_sat=c_sat, **kw)


class TestAciStep:
    def test_miss_shrinks_alpha(self):
        state = AciState(alpha_t=0.1, gamma=0.005, target=0.1)
        assert aci_step(state, 1).alpha_t == pytest.approx(0.0955)

    def test_cover_grows_alpha(self):
        state = AciState(alpha_t=0.1, gamma=0.005, target=0.1)
        assert aci_step(state, 0).alpha_t == pytest.approx(0.1005)

    def test_err_validated(self):
        state = AciState(alpha_t=0.1, gamma=0.01, target=0.1)
        with pytest.raises(ValueError):
            aci_step(state, 2)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            AciState(alpha_t=0.1, gamma=0.0, target=0.1)
        with pytest.raises(ValueError):
            AciState(alpha_t=0.1, gamma=0.01, target=1.0)


class TestAciInterval:
    def test_degenerate_low_alpha_whole_line(self):
        state = AciState(alpha_t=-0.02, gamma=0.01, target=0.1)
        lo, hi = aci_interval(state, 5.0, [1.0, 2.0])
        assert lo == -math.inf and hi == math.inf

    def test_degenerate_high_alpha_point(self):
        state = AciState(alpha_t=1.3, gamma=0.01, target=0.1)
        assert aci_interval(state, 5.0, [1.0, 2.0]) == (5.0, 5.0)

    def test_normal_regime_uses_conformal_quantile(self):
        state = AciState(alpha_t=0.5, gamma=0.01, target=0.1)
        lo, hi = aci_interval(state, 0.0, [1.0, 2.0, 3.0, 4.0])
        # k = ceil(0.5 * 5) = 3rd order statistic
        assert (lo, hi) == (-3.0, 3.0)

    def test_empty_pool_rejected(self):
        state = AciState(alpha_t=0.1, gamma=0.01, target=0.1)
        with pytest.raises(ValueError):
            aci_interval(state, 0.0, [])

    def test_long_run_error_rate(self):
        # deterministic telescoping bound plus a sanity band
        rng = np.random.default_rng(51)
        state = AciState(alpha_t=0.1, gamma=0.01, target=0.1)
        pool = list(np.abs(rng.standard_normal(30)))
        errs = []
        for _ in range(3000):
            lo, hi = aci_interval(state, 0.0, np.asarray(pool))
            s = abs(rng.standard_normal())
            err = 0 if lo <= s <= hi else 1
            errs.append(err)
            state = aci_step(state, err)
            pool.append(s)
            if len(pool) > 300:
                pool.pop(0)
        mean_err = float(np.mean(errs))
        bound = (max(0.1, 0.9) + 0.01) / (0.01 * 3000)
        assert abs(mean_err - 0.1) <= bound
        assert 0.05 <= mean_err <= 0.15

    def test_oscillation_recovers_after_shift(self):
        # after a variance jump the adaptive level pushes the radius back up
        rng = np.random.default_rng(52)
        state = AciState(alpha_t=0.1, gamma=0.02, target=0.1)
        pool = list(np.abs(rng.standard_normal(50)))
        errs_late = []
        for t in range(2000):
            scale = 1.0 if t < 1000 else 4.0
            lo, hi = aci_interval(state, 0.0, np.asarray(pool[-200:]))
            s = scale * abs(rng.standard_normal())
            err = 0 if lo <= s <= hi else 1
            if t >= 1500:
                errs_late.append(err)
            state = aci_step(state, err)
            pool.append(s)
        assert abs(np.mean(errs_late) - 0.1) < 0.06


class TestCoverageEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageEvent(origin=0, horizon=0, err=0, score=1.0)
        with pytest.raises(ValueError):
            CoverageEvent(origin=0, horizon=1, err=2, score=1.0)
        with pytest.raises(ValueError):
            CoverageEvent(origin=0, horizon=1, err=0, score=math.inf)


class TestAcmcpStep:
    def test_miss_grows_quantile(self):
        state = tracker(q=10.0, eta=1.0, alpha=0.1, k_i=0.0)
        new = acmcp_step(state, CoverageEvent(origin=0, horizon=1, err=1, score=3.0))
        assert new.q == pytest.approx(10.9)

    def test_cover_shrinks_quantile(self):
        state = tracker(q=10.0, eta=1.0, alpha=0.1, k_i=0.0)
        new = acmcp_step(state, CoverageEvent(origin=0, horizon=1, err=0, score=3.0))
        assert new.q == pytest.approx(9.9)

    def test_miss_streak_grows_proportionally(self):
        # five straight misses at eta=1, alpha=0.1 add exactly 4.5 without
        # the integral term, and at least that much with it
        state = tracker(q=0.0, eta=1.0, alpha=0.1, k_i=0.0)
        for t in range(5):
            state = acmcp_step(state, CoverageEvent(origin=t, horizon=1, err=1, score=5.0))
        assert state.q == pytest.approx(4.5)
        state = tracker(q=0.0, eta=1.0, alpha=0.1, k_i=2.0)
        for t in range(5):
            state = acmcp_step(state, CoverageEvent(origin=t, horizon=1, err=1, score=5.0))
        assert state.q > 4.5

    def test_integral_term_bounded_by_k_i(self):
        state = tracker(q=0.0, eta=1.0, alpha=0.1, k_i=3.0, c_sat=0.5)
        prev = state
        for t in range(50):
            new = acmcp_step(prev, CoverageEvent(origin=t, horizon=1, err=1, score=5.0))
            delta = new.q - prev.q - prev.eta * (1 - prev.alpha)
            assert abs(delta) <= 3.0 + 1e-12
            prev = new

    def test_horizon_mismatch_rejected(self):
        state = tracker(h=2)
        with pytest.raises(ValueError, match="horizon"):
            acmcp_step(state, CoverageEvent(origin=0, horizon=1, err=0, score=1.0))

    def test_window_trimmed(self):
        state = tracker(window_len=4)
        for t in range(10):
            state = acmcp_step(state, CoverageEvent(origin=t, horizon=1, err=0, score=float(t)))
        assert state.score_window == (6.0, 7.0, 8.0, 9.0)

    def test_h1_never_fits_score_model(self):
        state = tracker(h=1, window_len=50)
        for t in range(30):
            state = acmcp_step(state, CoverageEvent(origin=t, horizon=1, err=0, score=float(t % 3)))
        assert state.theta == ()
        assert state.e_prev == 0.0

    def test_iid_closed_loop_tracks_target(self):
        rng = np.random.default_rng(50)
        state = acmcp_init(2, np.abs(rng.standard_normal(12)), 0.1)
        errs = []
        theta_mag = 0.0
        for t in range(2000):
            radius = max(state.q, 0.0)
            s = abs(rng.standard_normal())
            err = 0 if s <= radius else 1
            errs.append(err)
            state = acmcp_step(state, CoverageEvent(origin=t, horizon=2, err=err, score=s))
            if state.theta:
                theta_mag = max(theta_mag, max(abs(v) for v in state.theta))
        assert 0.85 <= 1.0 - np.mean(errs) <= 0.95
        # ridge shrinkage keeps the score model small on exchangeable data
        assert theta_mag < 0.5


class TestAcmcpInterval:
    def test_symmetric(self):
        assert acmcp_interval(tracker(q=5.0), 100.0) == (95.0, 105.0)

    def test_negative_q_degenerates_to_point(self):
        assert acmcp_interval(tracker(q=-2.0), 100.0) == (100.0, 100.0)


class TestAcmcpInit:
    def test_quantile_seed_and_scales(self):
        warm = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        state = acmcp_init(1, warm, 0.1)
        assert state.q == pytest.approx(float(np.quantile(warm, 0.9)))
        iqr = float(np.quantile(warm, 0.75) - np.quantile(warm, 0.25))
        assert state.eta == pytest.approx(0.5 * iqr)
        assert state.k_i == pytest.approx(iqr)

    def test_constant_warm_scores_floored(self):
        state = acmcp_init(1, np.full(6, 2.0), 0.1)
        assert state.eta > 0.0

    def test_needs_two_scores(self):
        with pytest.raises(ValueError):
            acmcp_init(1, np.array([1.0]), 0.1)
