"""Split conformal prediction on a single series, step by step.

Fits an AR model on the training block, collects rolling-origin residuals
over the calibration block, turns each horizon's residual sample into a
radius with the finite-sample quantile, and checks the resulting intervals
against the held-out tail. A second pass repeats the experiment over many
independent series to show the promised coverage rate emerging.
"""

from __future__ import annotations

import argparse

import numpy as np

from ctsbench import (
    ForecasterSpec,
    SplitSpec,
    SyntheticSpec,
    build_residual_matrix,
    conformal_quantile,
    fit_auto_ar,
    forecast,
    generate_synthetic,
    mscp_intervals,
)


def evaluate_one(series, horizon, cal_len, alpha, verbose=False):
    n = len(series)
    sspec = SplitSpec(n - cal_len - horizon, cal_len, horizon)
    residuals = build_residual_matrix(series, sspec, ForecasterSpec(), horizon)

    traincal = series.values[: n - horizon]
    model = fit_auto_ar(traincal, ForecasterSpec())
    fc = forecast(model, traincal, horizon)
    iv = mscp_intervals(fc, residuals, alpha)

    truth = series.values[n - horizon :]
    hits = (truth >= iv.lower[0]) & (truth <= iv.upper[0])
    if verbose:
        print(f"series {series.series_id}: {n} points, AR order {model.order}")
        print(f"split: train={sspec.train_len} cal={cal_len} test={horizon}")
        print(f"calibration residual rows: {len(residuals.origins)}")
        print()
        print(" h  radius  forecast  truth    interval           hit")
        for h in range(horizon):
            col = residuals.column(h + 1)
            radius = conformal_quantile(col, 1.0 - alpha)
            print(
                f"{h + 1:2d}  {radius:6.3f}  {fc[h]:8.3f}  {truth[h]:6.3f}"
                f"   [{iv.lower[0, h]:7.3f}, {iv.upper[0, h]:7.3f}]  {'y' if hits[h] else 'N'}"
            )
        print()
    return hits


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--horizon", type=int, default=12)
    ap.add_argument("--cal-len", type=int, default=36)
    ap.add_argument("--reps", type=int, default=100, help="series for the rate check")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    panel = generate_synthetic(
        SyntheticSpec(generator="ar1", n_series=args.reps, length=120, seed=args.seed)
    )

    print("=== one series in detail ===")
    evaluate_one(panel[panel.ids[0]], args.horizon, args.cal_len, args.alpha, verbose=True)

    print(f"=== coverage over {args.reps} independent series ===")
    all_hits = np.vstack(
        [
            evaluate_one(panel[sid], args.horizon, args.cal_len, args.alpha)
            for sid in panel.ids
        ]
    )
    rate = float(np.mean(all_hits))
    by_h = all_hits.mean(axis=0)
    print(f"pooled marginal coverage at alpha={args.alpha}: {rate:.4f}")
    print("by horizon:", "  ".join(f"{c:.2f}" for c in by_h))
    print(f"(nominal target {1 - args.alpha:.2f}; the finite-sample guarantee is")
    print(" exact for exchangeable scores, so one-step intervals sit closest to")
    print(" it, while overlapping multi-step residuals make later horizons drift)")


if __name__ == "__main__":
    main()
