"""Compare every interval method on one panel and test the ranking.

Runs the full benchmark in-process on a small synthetic panel, prints the
per-method summary, then asks whether the observed quality differences
are statistically meaningful: a Friedman test on per-series interval
scores, followed by the Conover post-hoc that groups methods into cliques
no wider than the critical difference.
"""

from __future__ import annotations

import argparse

import numpy as np

from ctsbench import BenchConfig, SyntheticSpec, generate_synthetic, run_benchmark


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-series", type=int, default=24)
    ap.add_argument("--seed", type=int, default=6)
    args = ap.parse_args()

    panel = generate_synthetic(
        SyntheticSpec(generator="ar1", n_series=args.n_series, length=96, seed=args.seed)
    )
    # global_cp is omitted: it scores only the evaluation half of a cohort,
    # and ranking needs every method on every series
    methods = ("mscp", "enbpi", "spci", "cv_cp", "aci", "acmcp", "parametric")
    config = BenchConfig(horizon=6, cal_len=30, methods=methods, seed=args.seed)
    report = run_benchmark(config, panel=panel)

    print(f"{args.n_series} series, horizon 6, alpha {config.alpha}")
    print()
    print("method        n   coverage   width   winkler   joint")
    for m, s in report.summaries.items():
        print(
            f"{m:<11} {s.n_series:3d}   {s.coverage:8.4f}  {s.width:6.2f}"
            f"  {s.winkler:8.2f}  {s.joint_coverage:6.4f}"
        )
    if report.skips:
        print(f"({len(report.skips)} series/method skips)")
    print()

    fr = report.friedman
    if fr is None:
        print("rank test skipped: too few series scored by every method")
        return
    print("Friedman test on per-series interval scores:")
    print(f"  chi2 = {fr.statistic:.3f}, df = {fr.df}, p = {fr.p_value:.2e}")
    if fr.p_value >= 0.05:
        print("  no evidence the methods differ; stopping before the post-hoc")
        return

    print()
    print("Conover post-hoc, average rank per method (lower is better):")
    order = np.argsort(report.avg_ranks)
    for i in order:
        print(f"  {report.avg_ranks[i]:5.2f}  {report.rank_methods[i]}")
    ph = report.posthoc
    print(f"  critical difference in rank sums: {ph.cd:.3f}")
    print("  cliques of statistically indistinguishable methods:")
    for clique in ph.cliques:
        names = ", ".join(report.rank_methods[i] for i in clique)
        print(f"    {{{names}}}")


if __name__ == "__main__":
    main()
