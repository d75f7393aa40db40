"""How far SPCI's pinball fits are from the exact optimum.

For a seed-chosen sample of the (X, y, fit) designs captured from
`fit_pinball_linear` calls, the gap is the fit's total pinball loss over
all its levels divided by the exact optimum's, minus one. The optimum of
each level is the linear programme min tau*1'u + (1-tau)*1'v subject to
[1 X] b + u - v = y, u, v >= 0, solved by scipy's HiGHS. scipy is used
here only, as an oracle.
"""

from __future__ import annotations

import numpy as np

SAMPLE = 12


def pinball(resid: np.ndarray, tau: float) -> float:
    return float(np.sum(np.maximum(tau * resid, (tau - 1.0) * resid)))


def exact_pinball(X: np.ndarray, y: np.ndarray, tau: float) -> float:
    from scipy.optimize import linprog

    n = len(y)
    A = np.column_stack([np.ones(n), X])
    p = A.shape[1]
    cost = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    eq = np.hstack([A, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    res = linprog(cost, A_eq=eq, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed on a {n}x{p} design: {res.message}")
    return float(res.fun)


def loss_gaps(designs, seed: int, sample: int = SAMPLE) -> list[float]:
    """Relative excess pinball loss of a seeded sample of captured fits."""
    if not designs:
        return []
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(designs), size=min(sample, len(designs)), replace=False)
    gaps = []
    for i in sorted(picks.tolist()):
        X, y, fit = designs[i]
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        fitted = exact = 0.0
        for k, tau in enumerate(fit.taus):
            fitted += pinball(y - (fit.intercepts[k] + X @ fit.coefs[k]), tau)
            exact += exact_pinball(X, y, tau)
        gaps.append(fitted / exact - 1.0)
    return gaps
