"""Streaming coverage controllers.

Two feedback rules that adapt interval size from realized coverage errors:
the miscoverage-level update of Gibbs & Candes (adaptive conformal
inference) and a per-horizon quantile tracker with saturated integral
action plus a short autoregressive score forecast for multi-step errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .conformal import conformal_quantile


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
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")


def aci_step(state: AciState, err: int) -> AciState:
    """One update: alpha_{t+1} = alpha_t + gamma * (target - err)."""
    if err not in (0, 1):
        raise ValueError(f"err must be 0 or 1, got {err}")
    return replace(state, alpha_t=state.alpha_t + state.gamma * (state.target - err))


def aci_interval(
    state: AciState, forecast: float, scores: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Symmetric interval at the current adaptive level.

    alpha_t <= 0 demands certain coverage, giving the whole line; alpha_t
    >= 1 tolerates certain miscoverage, giving the point forecast alone.
    """
    if len(scores) == 0:
        raise ValueError("aci_interval requires a nonempty score pool")
    if state.alpha_t <= 0.0:
        return -math.inf, math.inf
    if state.alpha_t >= 1.0:
        return forecast, forecast
    radius = conformal_quantile(scores, 1.0 - state.alpha_t)
    return forecast - radius, forecast + radius


@dataclass(frozen=True)
class CoverageEvent:
    """Realized outcome of one issued interval."""

    origin: int
    horizon: int
    err: int
    score: float

    def __post_init__(self) -> None:
        if self.err not in (0, 1):
            raise ValueError(f"err must be 0 or 1, got {self.err}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")


@dataclass(frozen=True)
class AcmcpState:
    """Quantile tracker for one forecast horizon.

    q is the current radius estimate; err_sum accumulates coverage error
    relative to the target and feeds the saturated integral term
    k_i * tanh(err_sum / c_sat); theta holds the coefficients of the
    least-squares score model on up to h-1 recent centered scores (empty
    for h = 1, truncated below h-1 when the window is short); e_prev is
    the score model's previous prediction, kept so q carries the current
    prediction rather than accumulating its history; score_window is the
    sliding sample the model is refit on.
    """

    h: int
    q: float
    eta: float
    alpha: float
    k_i: float
    c_sat: float
    err_sum: float = 0.0
    theta: tuple[float, ...] = ()
    e_prev: float = 0.0
    score_window: tuple[float, ...] = ()
    window_len: int = 50

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"h must be >= 1, got {self.h}")
        if self.eta <= 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k_i < 0.0:
            raise ValueError(f"k_i must be >= 0, got {self.k_i}")
        if self.c_sat <= 0.0:
            raise ValueError(f"c_sat must be > 0, got {self.c_sat}")
        if self.window_len < 2:
            raise ValueError(f"window_len must be >= 2, got {self.window_len}")


def _fit_score_model(window: np.ndarray, h: int) -> tuple[float, ...]:
    """Ridge fit of the centered score on its recent predecessors.

    The memory is h-1 steps, but the fitted lag count is capped at
    len(window) // 6 so a short window cannot overfit; surplus memory
    contributes nothing until the window has grown to support it. The
    ridge penalty equals the mean diagonal of the Gram matrix, which
    shrinks coefficients by roughly half at full correlation; unshrunk
    least squares on these short windows chases noise and widens the
    coverage error it is meant to cancel.
    """
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


def acmcp_step(state: AcmcpState, event: CoverageEvent) -> AcmcpState:
    """Advance the tracker with one realized coverage outcome.

    q' = q + eta*(err - alpha) + k_i*tanh(err_sum'/c_sat) + (e_hat - e_prev),
    where e_hat is the score model's prediction of the next centered score
    from its latest predecessors (zero for h = 1). Stepping by the
    prediction's increment keeps exactly the current prediction inside q;
    adding e_hat itself would accumulate the whole prediction history and
    let q drift. The realized score enters the sliding window and the
    model is refit before predicting.
    """
    if event.horizon != state.h:
        raise ValueError(f"event horizon {event.horizon} != tracked horizon {state.h}")
    err_sum = state.err_sum + (event.err - state.alpha)
    saturation = state.k_i * math.tanh(err_sum / state.c_sat)
    window = (state.score_window + (float(event.score),))[-state.window_len :]
    arr = np.asarray(window)
    theta = _fit_score_model(arr, state.h)
    e_hat = 0.0
    if theta:
        centered = arr - arr.mean()
        e_hat = float(np.dot(theta, centered[::-1][: len(theta)]))
    q = state.q + state.eta * (event.err - state.alpha) + saturation + (e_hat - state.e_prev)
    return replace(
        state, q=q, err_sum=err_sum, theta=theta, e_prev=e_hat, score_window=window
    )


def acmcp_interval(state: AcmcpState, forecast: float) -> tuple[float, float]:
    """Symmetric interval with radius max(q, 0)."""
    radius = max(state.q, 0.0)
    return forecast - radius, forecast + radius


def acmcp_init(h: int, warm_scores: Sequence[float] | np.ndarray, alpha: float) -> AcmcpState:
    """Seed a tracker from warm-up scores.

    q starts at the empirical (1-alpha) quantile of the warm-up scores;
    eta and k_i are half the warm-up interquartile range and the full
    range respectively (floored by the standard deviation when the IQR
    collapses); c_sat is 20 and the score window keeps the default length.
    """
    scores = np.asarray(warm_scores, dtype=np.float64)
    if len(scores) < 2:
        raise ValueError(f"need >= 2 warm-up scores, have {len(scores)}")
    scale = float(np.quantile(scores, 0.75) - np.quantile(scores, 0.25))
    if scale <= 0.0:
        scale = max(float(np.std(scores)), 1e-6)
    q0 = float(np.quantile(scores, 1.0 - alpha))
    return AcmcpState(
        h=h,
        q=q0,
        eta=0.5 * scale,
        alpha=alpha,
        k_i=scale,
        c_sat=20.0,
        score_window=tuple(float(s) for s in scores[-AcmcpState.window_len :]),
    )
