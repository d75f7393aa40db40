"""Streaming coverage controllers.

Two feedback rules that adapt interval size from realized coverage errors:
the miscoverage-level update of Gibbs & Candes (adaptive conformal
inference), whose one radius rule, `_aci_radii`, serves bench's ACI and
`aci_interval`, its one-column case; and a per-horizon quantile tracker
with saturated integral action plus a short autoregressive score forecast
for multi-step errors (after Angelopoulos, Candes & Tibshirani's conformal
PID control). The tracker runs whole score streams (`acmcp_run`): its
score model reads the scores alone, never q or the coverage errors, so
every step's prediction comes from one batched ridge solve before the
recursion over q. Many trackers, of any horizon, window length and stream
length, run as one stack (`acmcp_init_stacked`, `acmcp_run_stacked`): the
centring sum of every window of every tracker is taken once per window
size, the trackers that share h, window length and stream length share
one batched solve, and then every tracker steps in one lockstep recursion
over arrays; each gets the state it gets alone. `acmcp_init` and
`acmcp_run` are the one-tracker case.
"""

from __future__ import annotations

import functools
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
# Cells of the (streams, steps, window rows, lags + 1) design stack of one
# ridge solve, and scores of one window-sum gather; more are cut in chunks.
# 2**18 is the least power of 2 that holds the largest score-model group of
# the 240-series acceptance panel's 64-series blocks (h = 6: 21 steps of 26
# rows by 6 columns, 209,664 cells) in one solve; perfbench's suite panel
# peaks at 39,312. One 64-series block of 300 points at cal_len = 200
# (4.3M cells at h = 12) peaked at 65 MiB under tracemalloc in one solve,
# and peaks at 15.7 MiB in chunks.
_CELL_BUDGET = 2**18


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


def _lengths(scores: np.ndarray, lengths: Sequence[int] | np.ndarray | None, what: str) -> np.ndarray:
    """The number of scores in each row of a (T, M) stack: row i is its first
    lengths[i] entries (all M by default), and they must be finite."""
    T, M = scores.shape
    if lengths is None:
        n, kept = np.full(T, M), scores
    else:
        n = np.asarray(lengths)
        if n.shape != (T,) or not ((0 <= n) & (n <= M)).all():
            raise ValueError(f"lengths must be {T} row lengths in [0, {M}], got {lengths}")
        kept = scores[np.arange(M) < n[:, None]]
    if not np.all(np.isfinite(kept)):
        raise ValueError(f"{what} must be finite")
    return n


def _window_sums(history: np.ndarray, first: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """sums[i, t]: the sum of row i's score-model window after its step t,
    for t < steps[i], where row i of history holds its first[i] window
    scores right-aligned before column W (history's width less the most
    steps), then its steps[i] stream scores: every row's step t ends at
    column W + t.

    Each window size is one `.sum` over a C-order gather of every window of
    that size (cut in chunks of at most _CELL_BUDGET scores), oldest score
    first, as a lone window is summed: numpy's
    pairwise sum groups by position and length, so summing newest first or
    over zero padding too would round the mean differently. On a nearly
    constant window the centered scores are rounding-sized, and that last
    bit of the mean moves theta.
    """
    T, C = history.shape
    M = int(steps.max())
    W, t = C - M, np.arange(M)
    # A window past its stream's end gets size 0: its sum is never read.
    size = np.where(t < steps[:, None], np.minimum(first[:, None] + t + 1, WINDOW_LEN), 0).ravel()
    order = np.argsort(size, kind="stable")
    n = size[order]
    start = (np.arange(T)[:, None] * C + W + 1 + t).ravel()[order] - n
    flat, p, start = history.ravel(), np.arange(WINDOW_LEN), start[:, None]
    cuts = np.concatenate(([0], np.flatnonzero(np.diff(n)) + 1, [len(n)])).tolist()
    parts = []
    for a, b, width in zip(cuts, cuts[1:], n[cuts[:-1]].tolist()):
        per = max(1, _CELL_BUDGET // max(width, 1))  # one gather unless it passes the budget
        parts += [flat[start[c : min(c + per, b)] + p[:width]].sum(axis=1) for c in range(a, b, per)]
    sums = np.empty(len(n))
    sums[order] = np.concatenate(parts)
    return sums.reshape(T, -1)


@functools.lru_cache(maxsize=256)
def _design(first: int, length: int, h: int) -> tuple[np.ndarray, ...] | None:
    """What `_score_model` reads of streams of `length` scores stepped from
    index `first` at horizon h, none of it from the scores (read-only, and
    None when no step has a lag): each step's window size n and lag count
    k; the mask of used design cells and their index into a stream; the
    mask of fitted lags.

    Design row b of step t is (c_b, c_b+1, ..., c_b+k), where c_p is the
    centered score p places before the newest of the step's window: the
    target, then lags 1..k. Cells past it are zero.
    """
    ends = np.arange(first + 1, length + 1)
    n = np.minimum(ends, WINDOW_LEN)
    k = np.minimum(h - 1, n // 6)
    K = int(k.max())
    if K == 0:
        return None
    j = np.arange(K + 1)
    place = np.arange(int(n.max()) - K)[:, None] + j
    used = (place[:, 0] < (n - k)[:, None])[..., None] & (j <= k[:, None, None])
    index = np.maximum(ends[:, None, None] - 1 - place, 0)
    plan = (n, k, used, index, j[:-1] < k[:, None])
    for part in plan:
        part.flags.writeable = False
    return plan


def _score_model(
    scores: np.ndarray, first: int, h: int, sums: np.ndarray
) -> tuple[np.ndarray, list[tuple[float, ...]]]:
    """Prediction e_hat after each of scores[:, first:], one row per stream
    of the (S, L) stack, and each stream's last theta; sums[s, t] is the sum
    of stream s's window after its step t (`_window_sums`).

    After the score at index t the model is a ridge fit of the centered
    score on its recent predecessors, over the last WINDOW_LEN scores up to
    t, and e_hat is its prediction from the latest of them. The memory is
    h-1 steps, but the fitted lag count is capped at len(window) // 6 so a
    short window cannot overfit; surplus memory contributes nothing until
    the window has grown to support it. The ridge penalty equals the mean
    diagonal of the Gram matrix, which shrinks coefficients by roughly half
    at full correlation; unshrunk least squares on these short windows
    chases noise and widens the coverage error it is meant to cancel.

    All steps of all streams are fitted at once, in chunks of streams of
    at most _CELL_BUDGET design cells, their windows zero-padded after
    centering and their designs to the largest lag count. Padding adds
    nothing to the cross products; a padded lag gets a unit diagonal and a
    zero right-hand side, hence a zero coefficient; a step without a model
    gets the identity. A step's window size and lag count depend only on h
    and L, so every stream gets the shapes, and the values, it gets alone.
    Without any lag (h = 1, or windows under 6 scores) every e_hat is 0.
    """
    plan = _design(first, scores.shape[1], h)
    if plan is None:
        return np.zeros((len(scores), scores.shape[1] - first)), [()] * len(scores)
    n, k, used, index, lag = plan
    K, per = lag.shape[1], max(1, _CELL_BUDGET // used.size)
    e_hats, thetas = [], []
    for a in range(0, len(scores), per):
        mean = sums[a : a + per] / n
        design = np.where(used, scores[a : a + per, index] - mean[..., None, None], 0.0)
        cross = design.swapaxes(2, 3) @ design
        gram, rhs = cross[..., 1:, 1:], cross[..., 1:, 0]
        penalty = np.trace(gram, axis1=2, axis2=3) / np.maximum(k, 1)
        ok = np.isfinite(penalty) & (penalty > 0.0)  # false without lags
        fitted = lag & ok[..., None]
        diagonal = np.where(fitted, penalty[..., None], 1.0)
        system = np.where(ok[..., None, None], gram, 0.0) + diagonal[..., None] * np.eye(K)
        coef = np.linalg.solve(system, np.where(ok[..., None], rhs, 0.0)[..., None])[..., 0]
        thetas += [tuple(c[: k[-1]]) if f else () for c, f in zip(coef[:, -1].tolist(), ok[:, -1].tolist())]
        e_hats.append((coef * np.where(fitted, design[:, :, 0, :K], 0.0)).sum(axis=2))
    return np.concatenate(e_hats), thetas


def _track(
    q: np.ndarray, err_sum: np.ndarray, e_prev: np.ndarray, scores: np.ndarray, e_hats: np.ndarray,
    steps: np.ndarray, eta: np.ndarray, alpha: np.ndarray, k_i: np.ndarray,
) -> None:
    """Step every tracker of a stack through its row of scores and of
    predictions in lockstep, updating q, err_sum and e_prev in place; row
    i holds steps[i] steps, and the rows are sorted by steps, longest
    first, so the trackers still live at a step are a prefix. Each tanh is
    math.tanh, as a lone tracker's is: np.tanh rounds differently. A lone
    tracker steps in Python floats, where a numpy call per step would cost
    more than the step."""
    if len(q) == 1:
        q_i, sum_i, prev, eta_i, alpha_i, k = (float(x[0]) for x in (q, err_sum, e_prev, eta, alpha, k_i))
        for score, e_hat in zip(scores[0, : steps[0]].tolist(), e_hats[0].tolist()):
            miss = (1 if score > max(q_i, 0.0) else 0) - alpha_i
            sum_i = sum_i + miss
            q_i = q_i + eta_i * miss + k * math.tanh(sum_i / C_SAT) + (e_hat - prev)
            prev = e_hat
        q[0], err_sum[0], e_prev[0] = q_i, sum_i, prev
        return
    live_counts = (steps > np.arange(e_hats.shape[1])[:, None]).sum(axis=1).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats overflow to inf, and inf - inf is NaN
        for t, live in enumerate(live_counts):
            miss = (scores[:live, t] > np.maximum(q[:live], 0.0)) - alpha[:live]
            err_sum[:live] += miss
            saturation = k_i[:live] * np.array(list(map(math.tanh, (err_sum[:live] / C_SAT).tolist())))
            step = q[:live]
            # ((q + eta * miss) + saturation) + (e_hat - e_prev), added in the lone order
            step += eta[:live] * miss
            step += saturation
            step += e_hats[:live, t] - e_prev[:live]
            e_prev[:live] = e_hats[:live, t]


def acmcp_run_stacked(
    states: Sequence[AcmcpState],
    scores: Sequence[Sequence[float]] | np.ndarray,
    lengths: Sequence[int] | np.ndarray | None = None,
) -> list[AcmcpState]:
    """`acmcp_run` of many trackers at once: row i of the (T, M) scores is
    the stream of states[i], its first lengths[i] entries (all M by
    default; entries past them are ignored). The trackers may differ in h,
    in the length of their score windows and in their stream lengths;
    each ends in the state `acmcp_run` gives it alone.

    The score models of the trackers that share h, window length and
    stream length are fitted in one batched solve (`_score_model`), after
    every window's centring sum is taken once per window size
    (`_window_sums`); then every tracker steps in one lockstep recursion
    (`_track`) and each final state is built once.
    """
    stream = np.asarray(scores, dtype=np.float64)
    if stream.ndim != 2 or len(stream) != len(states):
        raise ValueError(f"scores must be one row per tracker ({len(states)}), got shape {stream.shape}")
    steps = _lengths(stream, lengths, "scores")
    if not states or not steps.any():
        return list(states)
    # Longest stream first: the trackers still live at a step are a prefix (`_track`).
    order = np.argsort(-steps, kind="stable").tolist()
    ranked = [states[i] for i in order]
    steps, stream = steps[order], stream[order]
    first = np.array([len(s.score_window) for s in ranked])
    W = int(first.max())
    # Each tracker's window right-aligned before its stream: step t ends at column W + t of every row.
    windows = np.array([(0.0,) * (W - len(s.score_window)) + s.score_window for s in ranked], dtype=np.float64)
    history = np.concatenate((windows.reshape(len(ranked), W), stream[:, : steps[0]]), axis=1)
    sums = _window_sums(history, first, steps)
    e_hats = np.zeros(sums.shape)
    thetas: list[tuple[float, ...]] = [()] * len(ranked)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, key in enumerate(zip([s.h for s in ranked], first.tolist(), steps.tolist())):
        groups.setdefault(key, []).append(i)
    for (h, w, m), rows in groups.items():
        if m:
            e_hats[rows, :m], fitted = _score_model(history[rows, W - w : W + m], w, h, sums[rows, :m])
            for i, theta in zip(rows, fitted):
                thetas[i] = theta
    values = np.array([(s.q, s.err_sum, s.e_prev, s.eta, s.alpha, s.k_i) for s in ranked])
    q, err_sum, e_prev, eta, alpha, k_i = values.T
    _track(q, err_sum, e_prev, stream, e_hats, steps, eta, alpha, k_i)
    out = list(states)
    for i, state, q_i, err_sum_i, e_prev_i, theta, row, w, m in zip(
        order, ranked, q.tolist(), err_sum.tolist(), e_prev.tolist(), thetas, history.tolist(), first.tolist(),
        steps.tolist(),
    ):
        if m:
            window = tuple(row[max(W - w, W + m - WINDOW_LEN) : W + m])
            out[i] = AcmcpState(state.h, q_i, state.eta, state.alpha, state.k_i, err_sum_i, theta, e_prev_i, window)
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
    h: int | Sequence[int] | np.ndarray,
    warm_scores: Sequence[Sequence[float]] | np.ndarray,
    alpha: float,
    lengths: Sequence[int] | np.ndarray | None = None,
) -> list[AcmcpState]:
    """`acmcp_init` of many trackers at once, one per row of the (T, M)
    warm-up scores, its first lengths[i] entries (all M by default), at
    horizon h (one for all, or one per row); each gets the state
    `acmcp_init` gives it alone."""
    scores = np.asarray(warm_scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"warm-up scores must be one row per tracker, got shape {scores.shape}")
    n = _lengths(scores, lengths, "warm-up scores")
    if len(n) and n.min() < 2:
        raise ValueError(f"need >= 2 warm-up scores, have {n.min()}")
    levels = np.empty((len(n), 3))
    for size in np.unique(n).tolist():
        rows = np.flatnonzero(n == size)
        levels[rows] = np.quantile(scores[rows, :size], [0.75, 0.25, 1.0 - alpha], axis=1).T
    states = []
    for i, (h_i, row, size, (hi, lo, q)) in enumerate(
        zip(np.broadcast_to(h, n.shape).tolist(), scores.tolist(), n.tolist(), levels.tolist())
    ):
        scale = hi - lo
        # Floored also where a positive range is too small to halve.
        if not 0.5 * scale > 0.0:
            scale = max(float(np.std(scores[i, :size])), 1e-6)
        window = tuple(row[max(0, size - WINDOW_LEN) : size])
        states.append(AcmcpState(h=h_i, q=q, eta=0.5 * scale, alpha=alpha, k_i=scale, score_window=window))
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
