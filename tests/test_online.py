"""Online coverage controllers: ACI update and the multi-step quantile tracker."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctsbench import online
from ctsbench.online import (
    WINDOW_LEN,
    AciState,
    AcmcpState,
    aci_interval,
    aci_step,
    acmcp_init,
    acmcp_init_stacked,
    acmcp_interval,
    acmcp_run,
    acmcp_run_stacked,
    acmcp_step,
)


def tracker(q=10.0, eta=1.0, alpha=0.1, k_i=0.0, h=1, **kw):
    return AcmcpState(h=h, q=q, eta=eta, alpha=alpha, k_i=k_i, **kw)


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

    def test_level_rounding_to_one_whole_line(self):
        # 0.1 plus eight covers and twelve misses at gamma 0.01 ends at ~4e-17,
        # where 1 - alpha_t rounds to 1: certain coverage, not an error
        alpha_t = 0.1
        for d in [0.001] * 8 + [-0.009] * 12:
            alpha_t = alpha_t + d
        assert 0.0 < alpha_t and 1.0 - alpha_t == 1.0
        state = AciState(alpha_t=alpha_t, gamma=0.01, target=0.1)
        assert aci_interval(state, 5.0, [1.0, 2.0]) == (-math.inf, math.inf)

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

    # The degenerate levels take no score from the pool, but still check it.
    @pytest.mark.parametrize("alpha_t", [-0.02, 0.1, 1.3])
    def test_non_finite_pool_rejected_at_every_level(self, alpha_t):
        state = AciState(alpha_t=alpha_t, gamma=0.01, target=0.1)
        for pool in ([1.0, math.inf], [math.nan, 2.0]):
            with pytest.raises(ValueError, match="finite scores"):
                aci_interval(state, 0.0, pool)

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


class TestAcmcpStep:
    def test_miss_grows_quantile(self):
        state = tracker(q=10.0, eta=1.0, alpha=0.1, k_i=0.0)
        assert acmcp_step(state, 13.0).q == pytest.approx(10.9)

    def test_cover_shrinks_quantile(self):
        state = tracker(q=10.0, eta=1.0, alpha=0.1, k_i=0.0)
        assert acmcp_step(state, 3.0).q == pytest.approx(9.9)

    def test_score_at_radius_covers(self):
        # err = score > max(q, 0): a score on the radius is covered, and a
        # negative q issues radius 0, so any positive score misses
        assert acmcp_step(tracker(q=10.0), 10.0).q == pytest.approx(9.9)
        assert acmcp_step(tracker(q=-2.0), 0.5).q == pytest.approx(-1.1)

    def test_miss_streak_grows_proportionally(self):
        # five straight misses at eta=1, alpha=0.1 add exactly 4.5 without
        # the integral term, and at least that much with it
        state = tracker(q=0.0, eta=1.0, alpha=0.1, k_i=0.0)
        for _ in range(5):
            state = acmcp_step(state, 50.0)
        assert state.q == pytest.approx(4.5)
        state = tracker(q=0.0, eta=1.0, alpha=0.1, k_i=2.0)
        for _ in range(5):
            state = acmcp_step(state, 50.0)
        assert state.q > 4.5

    def test_integral_term_bounded_by_k_i(self):
        # every score misses; the integral term approaches but never exceeds k_i
        prev = tracker(q=0.0, eta=1.0, alpha=0.1, k_i=3.0)
        for _ in range(100):
            new = acmcp_step(prev, 1e4)
            delta = new.q - prev.q - prev.eta * (1 - prev.alpha)
            assert 0.0 < delta <= 3.0 + 1e-12
            prev = new
        assert delta > 0.9 * 3.0

    def test_window_trimmed(self):
        state = tracker()
        for t in range(WINDOW_LEN + 10):
            state = acmcp_step(state, float(t))
        assert state.score_window == tuple(float(t) for t in range(10, WINDOW_LEN + 10))

    def test_h1_never_fits_score_model(self):
        state = tracker(h=1)
        for t in range(30):
            state = acmcp_step(state, float(t % 3))
        assert state.theta == ()
        assert state.e_prev == 0.0

    def test_nonfinite_score_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                acmcp_step(tracker(), bad)
            with pytest.raises(ValueError, match="finite"):
                acmcp_run(tracker(), [1.0, bad, 2.0])

    def test_iid_closed_loop_tracks_target(self):
        rng = np.random.default_rng(50)
        state = acmcp_init(2, np.abs(rng.standard_normal(12)), 0.1)
        errs = []
        theta_mag = 0.0
        for _ in range(2000):
            s = abs(rng.standard_normal())
            errs.append(1 if s > max(state.q, 0.0) else 0)
            state = acmcp_step(state, s)
            if state.theta:
                theta_mag = max(theta_mag, max(abs(v) for v in state.theta))
        assert 0.85 <= 1.0 - np.mean(errs) <= 0.95
        # ridge shrinkage keeps the score model small on exchangeable data
        assert theta_mag < 0.5


# The per-step tracker as it was before acmcp_run: one ridge refit per score.
# It is the reference the batched stream update must reproduce.
def _reference_fit(window: np.ndarray, h: int) -> tuple[float, ...]:
    lags = min(h - 1, len(window) // 6)
    if lags <= 0:
        return ()
    centered = window - window.mean()
    rows = len(centered) - lags
    if rows < lags + 2:
        return ()
    X = np.empty((rows, lags))
    for j in range(1, lags + 1):
        X[:, j - 1] = centered[lags - j : lags - j + rows]
    y = centered[lags:]
    gram = X.T @ X
    penalty = float(np.trace(gram)) / lags
    if not np.isfinite(penalty) or penalty <= 0.0:
        return ()
    coef = np.linalg.solve(gram + penalty * np.eye(lags), X.T @ y)
    return tuple(float(c) for c in coef)


def _reference_steps(state: AcmcpState, scores) -> list[AcmcpState]:
    out = []
    for score in scores:
        err = 1 if score > max(state.q, 0.0) else 0
        err_sum = state.err_sum + (err - state.alpha)
        saturation = state.k_i * math.tanh(err_sum / 20.0)
        window = (state.score_window + (float(score),))[-50:]
        arr = np.asarray(window)
        theta = _reference_fit(arr, state.h)
        e_hat = 0.0
        if theta:
            centered = arr - arr.mean()
            e_hat = float(np.dot(theta, centered[::-1][: len(theta)]))
        q = state.q + state.eta * (err - state.alpha) + saturation + (e_hat - state.e_prev)
        state = replace(
            state, q=q, err_sum=err_sum, theta=theta, e_prev=e_hat, score_window=window
        )
        out.append(state)
    return out


_score = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def _tracker_streams(draw):
    """A tracker and a 6..120-score stream: drawn, autocorrelated, or constant."""
    h = draw(st.integers(1, 12))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.2, 0.5]))
    warm = draw(st.lists(_score, min_size=2, max_size=12))
    kind = draw(st.sampled_from(["drawn", "ar", "constant"]))
    if kind == "drawn":
        stream = draw(st.lists(_score, min_size=6, max_size=120))
    elif kind == "constant":
        stream = [draw(_score)] * draw(st.integers(6, 120))
    else:
        # |AR(1)| scores, the overlap pattern of multi-step residuals
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([0.01, 1.0, 30.0]))
        x, stream = 0.0, []
        for _ in range(draw(st.integers(6, 120))):
            x = 0.8 * x + rng.standard_normal()
            stream.append(scale * abs(x))
    return acmcp_init(h, warm, alpha), stream


_TIE = 1.1499170164666577
_TIE_CASE = (AcmcpState(h=3, q=_TIE, eta=5e-07, alpha=0.5, k_i=1e-06, score_window=(_TIE, _TIE)), [_TIE] * 24)
# A positive warm-up range so small that half of it rounds to 0.
_UNDERFLOW_WARM = [0.0, 5e-324]
_NEAR_CONSTANT_STATE = AcmcpState(
    h=3, q=11.667187499999999, eta=3.0703125, alpha=0.05, k_i=6.140625, score_window=(0.0, 12.28125)
)


class TestAcmcpRun:
    def test_empty_stream_keeps_state(self):
        state = acmcp_init(3, [1.0, 2.0, 3.0, 4.0], 0.1)
        assert acmcp_run(state, []) is state

    def test_two_dimensional_scores_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            acmcp_run(tracker(), np.ones((2, 3)))

    def test_split_stream_matches_whole(self):
        rng = np.random.default_rng(7)
        scores = np.abs(rng.standard_normal(90)).cumsum() % 5.0
        state = acmcp_init(6, scores[:8], 0.1)
        whole = acmcp_run(state, scores[8:])
        parts = acmcp_run(acmcp_run(state, scores[8:40]), scores[40:])
        assert parts.q == pytest.approx(whole.q, abs=1e-12)
        assert parts.score_window == whole.score_window
        assert parts.err_sum == whole.err_sum

    @settings(max_examples=60, deadline=None)
    @given(_tracker_streams())
    # A constant stream ties score and q exactly: a centring mean that rounds
    # unlike a lone window's flips the miss indicator and moves q by eta.
    @example(_TIE_CASE)
    @example((acmcp_init(1, _UNDERFLOW_WARM, 0.1), [0.0, 5e-324, 1.0, 0.0, 2.0, 5e-324]))
    # A nearly constant window centres to rounding-sized scores: a mean
    # summed newest first rounds unlike a lone window's and moves theta.
    @example((_NEAR_CONSTANT_STATE, [12.278436986233125] * 49))
    def test_matches_per_step_reference(self, case):
        state, stream = case
        expected = _reference_steps(state, stream)
        for j, ref in enumerate(expected, start=1):
            got = acmcp_run(state, stream[:j])
            assert abs(got.q - ref.q) <= 1e-12
            assert abs(got.e_prev - ref.e_prev) <= 1e-12
        assert got.err_sum == ref.err_sum
        assert got.score_window == ref.score_window
        assert len(got.theta) == len(ref.theta)
        assert np.allclose(got.theta, ref.theta, rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("warm", [_UNDERFLOW_WARM, [0.0, 0.0, 5e-324, 5e-324]])
    def test_underflowing_range_floored(self, warm):
        state = acmcp_init(1, warm, 0.1)
        assert state.eta == 5e-7 and state.k_i == 1e-6

    def test_needs_two_scores(self):
        with pytest.raises(ValueError):
            acmcp_init(1, np.array([1.0]), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_warm_up_score_rejected(self, bad):
        # As acmcp_step rejects a non-finite score, init rejects one in the
        # warm-up instead of returning a tracker whose q, eta and k_i are NaN.
        with pytest.raises(ValueError, match="warm-up scores must be finite"):
            acmcp_init(1, [bad, 1.0], 0.1)
        with pytest.raises(ValueError, match="warm-up scores must be finite"):
            acmcp_init_stacked(1, [[1.0, 2.0], [bad, 1.0]], 0.1)


_STATE_FLOATS = ("q", "eta", "k_i", "err_sum", "e_prev", "theta", "score_window")


def _state_bytes(state: AcmcpState) -> tuple[bytes, ...]:
    return tuple(np.array(getattr(state, name), dtype=np.float64).tobytes() for name in _STATE_FLOATS)


@st.composite
def _tracker_stacks(draw):
    """h, alpha, and 1..8 rows of 2..60 warm-up and 6..60 stream scores:
    |AR(1)| rows, rows whose warm-up is constant or has a collapsed IQR
    (the np.std / 1e-6 floor), and all-zero rows."""
    h = draw(st.integers(1, 12))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.5]))
    w, m = draw(st.integers(2, 60)), draw(st.integers(6, 60))
    kinds = draw(st.lists(st.sampled_from(["ar", "constant_warm", "spiked_warm", "zeros"]), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        x, row = 0.0, np.empty(w + m)
        for t in range(w + m):
            x = 0.8 * x + rng.standard_normal()
            row[t] = abs(x)
        if kind == "zeros":
            row[:] = 0.0
        elif kind != "ar":
            row[:w] = row[0]
            if kind == "spiked_warm":
                row[w - 1] += 5.0
        rows.append(row)
    stack = np.stack(rows)
    return h, alpha, stack[:, :w], stack[:, w:]


class TestAcmcpStacked:
    @settings(max_examples=60, deadline=None)
    @given(_tracker_stacks())
    def test_each_row_is_its_lone_tracker(self, case):
        # windows trim once warm-up and stream pass WINDOW_LEN
        h, alpha, warm, stream = case
        stacked = acmcp_run_stacked(acmcp_init_stacked(h, warm, alpha), stream)
        assert len(stacked) == len(warm)
        for got, w_row, s_row in zip(stacked, warm, stream):
            alone = acmcp_run(acmcp_init(h, w_row, alpha), s_row)
            assert _state_bytes(got) == _state_bytes(alone)

    def test_floored_rows_in_a_stack(self):
        rng = np.random.default_rng(3)
        warm = np.stack([np.abs(rng.standard_normal(8)), np.zeros(8), np.full(8, 0.1), np.r_[np.ones(7), 9.0]])
        states = acmcp_init_stacked(4, warm, 0.1)
        assert [s.k_i for s in states[1:3]] == [1e-6, 1e-6]
        assert states[3].k_i == float(np.std(warm[3])) > 1e-6
        for state, row in zip(states, warm):
            assert _state_bytes(state) == _state_bytes(acmcp_init(4, row, 0.1))

    def test_unequal_horizons_each_get_their_lone_state(self):
        states = [acmcp_init(2, np.arange(8.0), 0.1), acmcp_init(3, np.arange(8.0), 0.1)]
        stream = np.abs(np.random.default_rng(1).standard_normal((2, 5)))
        for got, state, row in zip(acmcp_run_stacked(states, stream), states, stream):
            assert _state_bytes(got) == _state_bytes(acmcp_run(state, row))

    def test_unequal_windows_each_get_their_lone_state(self):
        states = [acmcp_init(2, np.arange(8.0), 0.1), acmcp_init(2, np.arange(9.0), 0.1)]
        stream = np.abs(np.random.default_rng(2).standard_normal((2, 5)))
        for got, state, row in zip(acmcp_run_stacked(states, stream), states, stream):
            assert _state_bytes(got) == _state_bytes(acmcp_run(state, row))

    def test_lengths_cut_each_row_and_ignore_its_padding(self):
        # Entries past a row's length are never read, NaN included; a row
        # of length 0 keeps its state, the very object.
        states = acmcp_init_stacked([1, 4, 4], np.c_[np.ones((3, 6)), [np.nan, 7.0, np.nan]], 0.1, [6, 7, 6])
        assert _state_bytes(states[1]) == _state_bytes(acmcp_init(4, np.r_[np.ones(6), 7.0], 0.1))
        stream = np.array([[1.0, 2.0, np.nan], [3.0, np.inf, np.nan], [4.0, 5.0, 6.0]])
        got = acmcp_run_stacked(states, stream, [2, 0, 3])
        assert got[1] is states[1]
        assert _state_bytes(got[0]) == _state_bytes(acmcp_run(states[0], [1.0, 2.0]))
        assert _state_bytes(got[2]) == _state_bytes(acmcp_run(states[2], [4.0, 5.0, 6.0]))

    def test_lengths_checked(self):
        states = acmcp_init_stacked(2, np.ones((2, 8)), 0.1)
        with pytest.raises(ValueError, match="row lengths"):
            acmcp_run_stacked(states, np.ones((2, 5)), [1, 6])
        with pytest.raises(ValueError, match="row lengths"):
            acmcp_init_stacked(2, np.ones((2, 8)), 0.1, [8])
        with pytest.raises(ValueError, match="finite"):
            acmcp_run_stacked(states, [[1.0, np.nan], [1.0, 1.0]], [2, 1])
        with pytest.raises(ValueError, match="need >= 2 warm-up scores, have 1"):
            acmcp_init_stacked(2, np.ones((2, 8)), 0.1, [8, 1])

    def test_one_row_per_tracker(self):
        states = acmcp_init_stacked(2, np.ones((2, 8)), 0.1)
        with pytest.raises(ValueError, match="one row per tracker"):
            acmcp_run_stacked(states, np.ones((3, 5)))
        with pytest.raises(ValueError, match="one row per tracker"):
            acmcp_init_stacked(2, np.ones(8), 0.1)


@st.composite
def _mixed_stacks(draw):
    """2..10 trackers of horizons 1..12, each with its own 2..60 warm-up
    scores (or the state of one of the three examples of
    test_matches_per_step_reference) and its own 0..60-score stream: |AR(1)|,
    constant or drawn. Rows are NaN-padded past their lengths."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.05, 0.1, 0.5]))
    examples = [_TIE_CASE, (acmcp_init(1, _UNDERFLOW_WARM, 0.1), [0.0, 5e-324, 1.0, 0.0, 2.0, 5e-324])]
    examples.append((_NEAR_CONSTANT_STATE, [12.278436986233125] * 49))
    states, streams = [], []
    for kind in draw(st.lists(st.sampled_from(["ar", "constant", "drawn", "example"]), min_size=2, max_size=10)):
        if kind == "example":
            state, stream = examples[draw(st.integers(0, 2))]
            states.append(state)
            streams.append(np.asarray(stream[: draw(st.integers(0, len(stream)))], dtype=np.float64))
            continue
        w, m = draw(st.integers(2, 60)), draw(st.integers(0, 60))
        x, row = 0.0, np.empty(w + m)
        for t in range(w + m):
            x = 0.8 * x + rng.standard_normal()
            row[t] = abs(x)
        if kind == "constant":
            row[:] = row[0]
        elif kind == "drawn":
            row = np.array(draw(st.lists(_score, min_size=w + m, max_size=w + m)))
        states.append(acmcp_init(draw(st.integers(1, 12)), row[:w], alpha))
        streams.append(row[w:])
    return states, streams


class TestAcmcpMixedStack:
    @settings(max_examples=60, deadline=None)
    @given(_mixed_stacks())
    @example(([_TIE_CASE[0], acmcp_init(12, np.arange(1.0, 40.0), 0.1)], [np.array(_TIE_CASE[1]), np.ones(30)]))
    def test_each_tracker_is_its_lone_run(self, case):
        # Trackers of any horizon, window and stream length in one stack:
        # each ends bit for bit in the state its lone acmcp_run gives it.
        states, streams = case
        lengths = [len(row) for row in streams]
        padded = np.full((len(streams), max(lengths)), np.nan)
        for row, stream in zip(padded, streams):
            row[: len(stream)] = stream
        for got, state, stream in zip(acmcp_run_stacked(states, padded, lengths), states, streams):
            assert _state_bytes(got) == _state_bytes(acmcp_run(state, stream))

    def test_stacked_init_of_mixed_horizons_and_warm_ups(self):
        rng = np.random.default_rng(5)
        warm = np.abs(rng.standard_normal((4, 12)))
        warm[1, 3:] = warm[1, 2]  # a collapsed IQR: the np.std floor
        hs, lengths = [1, 5, 12, 3], [12, 9, 2, 7]
        padded = np.where(np.arange(12) < np.array(lengths)[:, None], warm, np.nan)
        states = acmcp_init_stacked(hs, padded, 0.2, lengths)
        for state, h, row, n in zip(states, hs, warm, lengths):
            assert _state_bytes(state) == _state_bytes(acmcp_init(h, row[:n], 0.2))

    def test_a_tiny_cell_budget_gives_the_same_states(self, monkeypatch):
        # Chunked solves and window-sum gathers do each stream's arithmetic
        # as one solve does.
        rng = np.random.default_rng(6)
        warm, stream = np.abs(rng.standard_normal((9, 10))), np.abs(rng.standard_normal((9, 70)))
        states = acmcp_init_stacked(np.arange(1, 10), warm, 0.1)
        whole = acmcp_run_stacked(states, stream)
        monkeypatch.setattr(online, "_CELL_BUDGET", 7)
        for got, want in zip(acmcp_run_stacked(states, stream), whole):
            assert _state_bytes(got) == _state_bytes(want)
