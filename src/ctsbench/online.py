"""Streaming coverage controllers.

Two feedback rules that adapt interval size from realized coverage errors:
the miscoverage-level update of Gibbs & Candes (adaptive conformal
inference), whose one radius rule, `_aci_radii`, serves bench's ACI and
`aci_interval`, its one-column case; and a per-horizon quantile tracker
with saturated integral action plus a short autoregressive score forecast
for multi-step errors (after Angelopoulos, Candes & Tibshirani's conformal
PID control). The tracker runs whole score streams (`acmcp_run`): its
score model reads the scores alone, never q or the coverage errors, so
every step's prediction comes from one batched ridge solve before a scalar
loop over q. The trackers of many streams of one horizon and one length
run as a stack (`acmcp_init_stacked`, `acmcp_run_stacked`): every
stream's steps share their window sizes and lag counts, hence the shapes
of the batched solve, and each stream gets the state it gets alone.
`acmcp_init` and `acmcp_run` are the one-stream case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .conformal import _conformal_radii


@dataclass(frozen=True)
class AciState:
    """Adaptive miscoverage level.

    alpha_t may leave [0, 1]; the interval rule handles both degenerate
    regimes explicitly instead of clamping, which preserves the long-run
    coverage guarantee of the linear update. The state keeps no error
    history: a caller that needs the errors counts them as it steps.
    """

    alpha_t: float
    gamma: float
    target: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")


def aci_step(state: AciState, err: int) -> AciState:
    """One update: alpha_{t+1} = alpha_t + gamma * (target - err)."""
    if err not in (0, 1):
        raise ValueError(f"err must be 0 or 1, got {err}")
    return replace(state, alpha_t=state.alpha_t + state.gamma * (state.target - err))


def _aci_radii(scores: np.ndarray, alpha_t: Sequence[float] | np.ndarray) -> np.ndarray:
    """The radius of each column of a NaN-padded score matrix, none empty, at
    its own adaptive level 1 - alpha_t: the conformal quantile
    (`_conformal_radii`) inside (0, 1), 0 at a level <= 0, +inf at one >= 1."""
    if np.isnan(scores).all(axis=0).any():
        raise ValueError("aci_interval requires a nonempty score pool")
    level = 1.0 - np.asarray(alpha_t, dtype=np.float64)
    inside = (0.0 < level) & (level < 1.0)
    radii = _conformal_radii(scores, np.where(inside, level, 0.5))  # 0.5 stands in where the mask rules
    return np.where(inside, radii, np.where(level <= 0.0, 0.0, np.inf))


def aci_interval(
    state: AciState, forecast: float, scores: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Symmetric interval at the current adaptive level: `_aci_radii` of a
    nonempty, finite score pool. alpha_t <= 0 (or so small that 1 - alpha_t
    rounds to 1) demands certain coverage, giving the whole line; alpha_t >= 1
    tolerates certain miscoverage, giving the point forecast alone."""
    pool = np.asarray(scores, dtype=np.float64).ravel()
    if not np.all(np.isfinite(pool)):
        raise ValueError("aci_interval requires finite scores")
    radius = float(_aci_radii(pool[:, None], [state.alpha_t])[0])
    return forecast - radius, forecast + radius


WINDOW_LEN = 50  # scores the score model is fitted on
C_SAT = 20.0  # saturation scale of the integral term


@dataclass(frozen=True)
class AcmcpState:
    """Quantile tracker for one forecast horizon.

    q is the current radius estimate; err_sum accumulates coverage error
    relative to the target and feeds the saturated integral term
    k_i * tanh(err_sum / C_SAT); theta holds the coefficients of the
    latest ridge score model on up to h-1 recent centered scores (empty
    for h = 1, truncated below h-1 when the window is short); e_prev is
    the score model's previous prediction, kept so q carries the current
    prediction rather than accumulating its history; score_window holds
    the last WINDOW_LEN scores, the sample the model is fitted on.
    """

    h: int
    q: float
    eta: float
    alpha: float
    k_i: float
    err_sum: float = 0.0
    theta: tuple[float, ...] = ()
    e_prev: float = 0.0
    score_window: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"h must be >= 1, got {self.h}")
        if self.eta <= 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k_i < 0.0:
            raise ValueError(f"k_i must be >= 0, got {self.k_i}")


def _score_model(scores: np.ndarray, first: int, h: int) -> tuple[np.ndarray, list[tuple[float, ...]]]:
    """Prediction e_hat after each of scores[:, first:], one row per stream
    of the (S, L) stack, and each stream's last theta.

    After the score at index t the model is a ridge fit of the centered
    score on its recent predecessors, over the last WINDOW_LEN scores up to
    t, and e_hat is its prediction from the latest of them. The memory is
    h-1 steps, but the fitted lag count is capped at len(window) // 6 so a
    short window cannot overfit; surplus memory contributes nothing until
    the window has grown to support it. The ridge penalty equals the mean
    diagonal of the Gram matrix, which shrinks coefficients by roughly half
    at full correlation; unshrunk least squares on these short windows
    chases noise and widens the coverage error it is meant to cancel.

    All steps of all streams are fitted at once, their windows zero-padded
    after centering and their designs to the largest lag count. Padding
    adds nothing to the cross products; a padded lag gets a unit diagonal
    and a zero right-hand side, hence a zero coefficient; a step without a
    model gets the identity. A step's window size and lag count depend only
    on h and L, so every stream gets the shapes, and the values, it gets alone.
    """
    ends = np.arange(first + 1, scores.shape[1] + 1)
    n = np.minimum(ends, WINDOW_LEN)
    k = np.minimum(h - 1, n // 6)
    K = int(k.max())
    # back[s, t, p]: stream s's window at step t, newest score first, centered,
    # zero past its start. Each run of steps with one window size sums only
    # its own scores, oldest first in a C-order copy: that is a lone window's
    # order, and numpy's pairwise sum groups by position and length, so
    # summing newest first or the zero padding too would round the mean
    # differently. On a nearly constant window the centered scores are
    # rounding-sized and that last bit of the mean moves theta.
    p = np.arange(int(n.max()))
    inside = p < n[:, None]
    window = np.ascontiguousarray(scores[:, np.maximum(ends[:, None] - 1 - p, 0)])
    back = np.where(inside, window, 0.0)
    total = np.empty(back.shape[:2])
    runs = np.flatnonzero(np.diff(n, prepend=0)).tolist() + [len(n)]
    for a, b in zip(runs, runs[1:]):
        total[:, a:b] = np.ascontiguousarray(back[:, a:b, n[a] - 1 :: -1]).sum(axis=2)
    back = np.where(inside, back - (total / n)[..., None], 0.0)
    # Design row b of step t is (c_b, c_b+1, ..., c_b+k): the target, then lags 1..k.
    j = np.arange(K + 1)
    used = (np.arange(len(p) - K)[:, None] < (n - k)[:, None, None]) & (j <= k[:, None, None])
    design = np.where(used, np.lib.stride_tricks.sliding_window_view(back, K + 1, axis=2), 0.0)
    cross = design.swapaxes(2, 3) @ design
    gram, rhs = cross[..., 1:, 1:], cross[..., 1:, 0]
    penalty = np.trace(gram, axis1=2, axis2=3) / np.maximum(k, 1)
    ok = np.isfinite(penalty) & (penalty > 0.0)  # false without lags
    lag = (j[:-1] < k[:, None]) & ok[..., None]
    diagonal = np.where(lag, penalty[..., None], 1.0)
    system = np.where(ok[..., None, None], gram, 0.0) + diagonal[..., None] * np.eye(K)
    coef = np.linalg.solve(system, np.where(ok[..., None], rhs, 0.0)[..., None])[..., 0]
    thetas = [tuple(c[: k[-1]]) if fitted else () for c, fitted in zip(coef[:, -1].tolist(), ok[:, -1].tolist())]
    return (coef * np.where(lag, back[..., :K], 0.0)).sum(axis=2), thetas


def acmcp_run_stacked(
    states: Sequence[AcmcpState], scores: Sequence[Sequence[float]] | np.ndarray
) -> list[AcmcpState]:
    """`acmcp_run` of many trackers at once: row i of the (S, m) scores is
    the stream of states[i]. The trackers must share h and the length of
    their score windows; each ends in the state `acmcp_run` gives it alone.
    """
    stream = np.asarray(scores, dtype=np.float64)
    if stream.ndim != 2 or len(stream) != len(states):
        raise ValueError(f"scores must be one row per tracker ({len(states)}), got shape {stream.shape}")
    if not states:
        return []
    h, w = states[0].h, len(states[0].score_window)
    if any(s.h != h or len(s.score_window) != w for s in states):
        raise ValueError("stacked trackers must share h and the length of their score windows")
    if not np.all(np.isfinite(stream)):
        raise ValueError("scores must be finite")
    if stream.shape[1] == 0:
        return list(states)
    full = np.concatenate((np.array([s.score_window for s in states], dtype=np.float64), stream), axis=1)
    e_hats, thetas = _score_model(full, w, h)
    out = []
    for state, row, e_row, theta, kept in zip(
        states, stream.tolist(), e_hats.tolist(), thetas, full[:, -WINDOW_LEN:].tolist()
    ):
        q, err_sum, e_prev = state.q, state.err_sum, state.e_prev
        for score, e_hat in zip(row, e_row):
            err = 1 if score > max(q, 0.0) else 0
            err_sum = err_sum + (err - state.alpha)
            saturation = state.k_i * math.tanh(err_sum / C_SAT)
            q = q + state.eta * (err - state.alpha) + saturation + (e_hat - e_prev)
            e_prev = e_hat
        out.append(replace(state, q=q, err_sum=err_sum, theta=theta, e_prev=e_prev, score_window=tuple(kept)))
    return out


def acmcp_run(state: AcmcpState, scores: Sequence[float] | np.ndarray) -> AcmcpState:
    """Advance the tracker through a stream of realized scores.

    Each score is a miss (err = 1) iff it exceeds the radius max(q, 0)
    issued before it. Then err_sum' = err_sum + (err - alpha) and
    q' = q + eta*(err - alpha) + k_i*tanh(err_sum'/C_SAT) + (e_hat - e_prev),
    where e_hat is the score model's prediction once the score is in its
    window (zero for h = 1). Stepping by the prediction's increment keeps
    exactly the current prediction inside q; adding e_hat itself would
    accumulate the whole prediction history and let q drift.
    """
    stream = np.asarray(scores, dtype=np.float64)
    if stream.ndim != 1:
        raise ValueError(f"scores must be one-dimensional, got shape {stream.shape}")
    return acmcp_run_stacked([state], stream[None])[0]


def acmcp_step(state: AcmcpState, score: float) -> AcmcpState:
    """Advance the tracker by one realized score: `acmcp_run` on one score."""
    return acmcp_run(state, [score])


def acmcp_interval(state: AcmcpState, forecast: float) -> tuple[float, float]:
    """Symmetric interval with radius max(q, 0)."""
    radius = max(state.q, 0.0)
    return forecast - radius, forecast + radius


def acmcp_init_stacked(
    h: int, warm_scores: Sequence[Sequence[float]] | np.ndarray, alpha: float
) -> list[AcmcpState]:
    """`acmcp_init` of many trackers at once, one per row of the (S, m)
    warm-up scores; each gets the state `acmcp_init` gives it alone."""
    scores = np.asarray(warm_scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"warm-up scores must be one row per tracker, got shape {scores.shape}")
    if scores.shape[1] < 2:
        raise ValueError(f"need >= 2 warm-up scores, have {scores.shape[1]}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("warm-up scores must be finite")
    upper, lower, q0 = np.quantile(scores, [0.75, 0.25, 1.0 - alpha], axis=1).tolist()
    states = []
    for row, hi, lo, q in zip(scores, upper, lower, q0):
        scale = hi - lo
        # Floored also where a positive range is too small to halve.
        if not 0.5 * scale > 0.0:
            scale = max(float(np.std(row)), 1e-6)
        window = tuple(row[-WINDOW_LEN:].tolist())
        states.append(AcmcpState(h=h, q=q, eta=0.5 * scale, alpha=alpha, k_i=scale, score_window=window))
    return states


def acmcp_init(h: int, warm_scores: Sequence[float] | np.ndarray, alpha: float) -> AcmcpState:
    """Seed a tracker from warm-up scores.

    q starts at the empirical (1-alpha) quantile of the warm-up scores;
    eta and k_i are half the warm-up interquartile range and the full
    range respectively (floored by the standard deviation when half the
    IQR is not positive); the score window keeps the last WINDOW_LEN warm-up scores.
    A warm-up score that is not finite raises ValueError, as in acmcp_run.
    """
    scores = np.asarray(warm_scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"warm-up scores must be one-dimensional, got shape {scores.shape}")
    return acmcp_init_stacked(h, scores[None], alpha)[0]
