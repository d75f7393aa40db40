"""Command line entry points: `ctsbench run` and `ctsbench synth`.

Exit codes: 0 success, 2 bad input data or configuration, 3 nothing
evaluable, 4 output could not be written.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bench import (
    BenchOutputError,
    GENERATORS,
    METHODS,
    NothingEvaluableError,
    SyntheticSpec,
    build_config,
    emit_reports,
    generate_synthetic,
    parse_config_text,
    run_benchmark,
    write_panel_csv,
)
from .series import PanelError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctsbench",
        description="Conformal prediction-interval benchmark for multi-horizon forecasts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate interval methods on a panel CSV")
    run.add_argument("--data", help="panel CSV with header unique_id,ds,y")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--alpha", type=float, help="miscoverage level (default 0.1)")
    run.add_argument("--horizon", type=int, help="forecast horizon (default 12)")
    run.add_argument(
        "--methods", help=f"comma-separated subset of {','.join(METHODS)}"
    )
    run.add_argument("--seed", type=int, help="global RNG seed")
    run.add_argument("--out", help="output directory (default bench_out)")
    run.add_argument(
        "--parallelism", type=int,
        help="accepted for compatibility (>= 1); series are evaluated serially",
    )

    synth = sub.add_parser("synth", help="write a synthetic panel CSV")
    synth.add_argument("--generator", choices=GENERATORS, default="ar1")
    synth.add_argument("--n", type=int, default=200, help="number of series")
    synth.add_argument("--len", type=int, default=120, dest="length", help="series length")
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--out", required=True, help="destination CSV path")
    synth.add_argument("--period", type=int, default=12)
    synth.add_argument("--phi", type=float, default=0.8)
    synth.add_argument("--sigma", type=float, default=1.0)
    synth.add_argument("--amplitude", type=float, default=5.0)
    synth.add_argument("--shift-magnitude", type=float, default=10.0)
    return parser


def _fmt(value: float) -> str:
    return f"{value:.4f}" if math.isfinite(value) else "n/a"


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        file_values = None
        if args.config:
            file_values = parse_config_text(Path(args.config).read_text())
        config = build_config(
            file_values,
            data=args.data,
            alpha=args.alpha,
            horizon=args.horizon,
            methods=args.methods,
            seed=args.seed,
            out=args.out,
            parallelism=args.parallelism,
        )
    except (OSError, ValueError) as e:
        print(f"ctsbench: configuration error: {e}", file=sys.stderr)
        return 2
    try:
        report = run_benchmark(config)
    except PanelError as e:
        print(f"ctsbench: data error: {e}", file=sys.stderr)
        return 2
    except NothingEvaluableError as e:
        print(f"ctsbench: nothing to evaluate: {e}", file=sys.stderr)
        return 3
    out_dir = config.out_dir or "bench_out"
    try:
        paths = emit_reports(report, out_dir)
    except BenchOutputError as e:
        print(f"ctsbench: output error: {e}", file=sys.stderr)
        return 4
    for method in config.methods:
        summary = report.summaries.get(method)
        if summary is None:
            print(f"{method:<12} skipped on every series")
            continue
        print(
            f"{method:<12} coverage={summary.coverage:.4f} "
            f"width={_fmt(summary.width)} winkler={_fmt(summary.winkler)} "
            f"(n={summary.n_series})"
        )
    if report.friedman is not None:
        verdict = "rejected" if report.friedman.p_value < 0.05 else "not rejected"
        print(
            f"friedman chi2={report.friedman.statistic:.4f} "
            f"p={report.friedman.p_value:.6f} ({verdict} at 0.05)"
        )
    print(f"reports written to {out_dir} ({', '.join(sorted(paths))})")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    try:
        spec = SyntheticSpec(
            generator=args.generator,
            n_series=args.n,
            length=args.length,
            period=args.period,
            phi=args.phi,
            sigma=args.sigma,
            amplitude=args.amplitude,
            shift_magnitude=args.shift_magnitude,
            seed=args.seed,
        )
    except ValueError as e:
        print(f"ctsbench: configuration error: {e}", file=sys.stderr)
        return 2
    panel = generate_synthetic(spec)
    try:
        write_panel_csv(panel, args.out)
    except BenchOutputError as e:
        print(f"ctsbench: output error: {e}", file=sys.stderr)
        return 4
    print(f"wrote {len(panel)} series to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_synth(args)


if __name__ == "__main__":
    sys.exit(main())
