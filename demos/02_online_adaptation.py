"""Online coverage control under distribution shift.

A fixed split-conformal radius goes stale the moment the score
distribution moves. The first part streams scores whose scale doubles
mid-stream and compares the realized miss rate of a frozen radius against
the adaptive level update, which re-centers the miss rate on its target.
The second part runs the multi-step quantile tracker on an autocorrelated
score stream and shows its radius settling near the right quantile.
"""

from __future__ import annotations

import argparse

import numpy as np

from ctsbench import (
    AciState,
    aci_interval,
    aci_step,
    acmcp_init,
    acmcp_interval,
    acmcp_step,
    conformal_quantile,
)


def aci_part(alpha: float, gamma: float, seed: int) -> None:
    rng = np.random.default_rng(seed)
    warm = np.abs(rng.standard_normal(100))
    frozen_radius = conformal_quantile(warm, 1.0 - alpha)

    state = AciState(alpha_t=alpha, gamma=gamma, target=alpha)
    pool = list(warm)
    static_miss, adaptive_miss = [], []
    T = 4000
    for t in range(T):
        scale = 2.0 if t >= T // 2 else 1.0
        s = scale * abs(rng.standard_normal())
        static_miss.append(s > frozen_radius)
        _, radius = aci_interval(state, 0.0, np.asarray(pool[-300:]))
        err = 0 if s <= radius else 1
        adaptive_miss.append(err)
        state = aci_step(state, err)
        pool.append(s)

    half = T // 2
    print(f"--- adaptive level update (target miss rate {alpha}) ---")
    print(f"scores: |N(0,1)| for t < {half}, then the scale doubles")
    print()
    print("segment            frozen radius   adaptive")
    for name, lo, hi in (("before shift", 0, half), ("after shift", half, T)):
        print(
            f"{name:<18} {np.mean(static_miss[lo:hi]):13.4f}"
            f"   {np.mean(adaptive_miss[lo:hi]):8.4f}"
        )
    print(f"whole stream       {np.mean(static_miss):13.4f}   {np.mean(adaptive_miss):8.4f}")
    print(f"final adaptive level alpha_t = {state.alpha_t:.4f} (started at {alpha})")
    print()


def acmcp_part(alpha: float, seed: int) -> None:
    rng = np.random.default_rng(seed)
    h = 3
    # AR(1) in the scores: multi-step residuals overlap, so consecutive
    # scores are correlated and an i.i.d. quantile is the wrong target.
    scores = np.empty(600)
    x = 0.0
    for t in range(len(scores)):
        x = 0.7 * x + rng.standard_normal()
        scores[t] = abs(x) + 0.5

    state = acmcp_init(h, scores[:20], alpha)
    q_path, errs = [], []
    for t in range(20, len(scores)):
        errs.append(1 if scores[t] > max(state.q, 0.0) else 0)
        state = acmcp_step(state, scores[t])
        q_path.append(state.q)

    print(f"--- multi-step quantile tracker (horizon {h}, target miss {alpha}) ---")
    print("radius snapshots while streaming autocorrelated scores:")
    for t in (0, 99, 299, len(q_path) - 1):
        print(f"  step {t + 1:3d}: q = {q_path[t]:.3f}")
    print(f"closed-loop coverage: {1 - np.mean(errs):.4f}")
    print(f"oracle (1-alpha) score quantile:  {np.quantile(scores, 1 - alpha):.3f}")
    lo, hi = acmcp_interval(state, 50.0)
    print(f"next interval around forecast 50.0: [{lo:.3f}, {hi:.3f}]")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--gamma", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    aci_part(args.alpha, args.gamma, args.seed)
    acmcp_part(args.alpha, args.seed)


if __name__ == "__main__":
    main()
