"""Run one ctsbench benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; ctsbench is imported from its
`src/`. With --trace 0 the run repeats the workload, untraced, for about
--seconds and reports the end-to-end metrics as medians over the
repetitions. With --trace 1 it alternates untraced and traced repetitions
and reports the per-layer metrics (medians over traced repetitions) and
the tracing overhead. Every run checks ctsbench's outputs and reports no
metrics when a check fails.

End-to-end times are in seconds at reference speed: each measured time is
multiplied by REFERENCE_S over the time a fixed reference computation took
just before and after it (`reference_seconds`). On a shared machine whose
speed drifts, this keeps a run's figures comparable with another run's.
The measured times are printed beside them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; an `{"env": ...}` line before it
records the machine and versions. Exit codes: 0 checks passed, 1 a check
failed, 2 no ctsbench source in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so that a workload's thread
# pool never runs more threads than there are cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
IMPORT_RUNS = 9
MIN_REPS = 3

REFERENCE_ITERS = 10000
REFERENCE_S = 0.2  # what reference_seconds() counts as reference speed

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "series_per_s": "series/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    **{f"layer.{layer}.self_s": "s" for layer in spans.LAYERS},
    "series.parse_panel.s": "s",
    "series.parse_panel.rows_per_s": "rows/s",
    "forecaster.fit_auto_ar.calls": "count",
    "forecaster.fit_auto_ar.self_s": "s",
    "forecaster.forecast.calls": "count",
    "forecaster.forecast.self_s": "s",
    "conformal.build_residual_matrix.calls": "count",
    "conformal.build_residual_matrix.self_s": "s",
    "conformal.enbpi_intervals.self_s": "s",
    "conformal.enbpi.loo_fallback_share": "ratio",
    "conformal.spci_intervals.self_s": "s",
    "conformal.spci.crossings": "count",
    "conformal.spci.fallbacks": "count",
    "conformal.global_cp_intervals.self_s": "s",
    "conformal.cv_conformal_intervals.self_s": "s",
    "conformal.mscp_intervals.self_s": "s",
    "conformal.parametric_intervals.self_s": "s",
    "quantreg.fit_pinball_linear.calls": "count",
    "quantreg.fit_pinball_linear.self_s": "s",
    "quantreg.iterations": "count",
    "quantreg.loss_gap_p50": "ratio",
    "quantreg.loss_gap_p90": "ratio",
    "online.acmcp_step.calls": "count",
    "online.acmcp_step.self_s": "s",
    "online.acmcp_init.self_s": "s",
    "online.aci_step.calls": "count",
    "online.aci_interval.self_s": "s",
    "metrics.series_metrics.calls": "count",
    "metrics.series_metrics.self_s": "s",
    "metrics.aggregate.self_s": "s",
    "stattest.rank_scores.self_s": "s",
    "stattest.friedman_test.self_s": "s",
    "stattest.conover_posthoc.self_s": "s",
    "stattest.rows": "count",
    "bench.run_benchmark.self_s": "s",
    "bench.emit_reports.s": "s",
    "bench.report_bytes": "B",
    "bench.pool.busy_share": "ratio",
    "bench.skips.too_short": "count",
    "bench.skips.calibration_cohort": "count",
    "bench.skips.method_error": "count",
    "fail_share": "ratio",
    "trace.overhead_share": "ratio",
}


class CheckFailed(Exception):
    """ctsbench produced an output the benchmark does not accept."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def import_seconds(clock: Clock) -> list[tuple[float, float]]:
    """(measured, at reference speed) time of `import ctsbench` in fresh
    interpreters, after one warm-up import."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import ctsbench; print(time.perf_counter() - t); print(ctsbench.__file__)"
    )
    times = []
    for i in range(IMPORT_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, where = proc.stdout.split()
        check(Path(where).resolve().is_relative_to(SRC.resolve()), f"imported {where}")
        scale = clock.scale()
        if i:
            times.append((float(seconds), float(seconds) * scale))
    return times


def _blas_threads() -> str:
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cores": cores,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


def reference_seconds() -> float:
    """Time a fixed computation that mixes small numpy products with a
    Python loop, the two kinds of work ctsbench's hot paths do.

    The machine's speed can drift by tens of percent over seconds to
    minutes when other tenants load it; see the module docstring.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.normal(size=(28, 9))
    y = rng.normal(size=28)
    taus = np.linspace(0.05, 0.95, 22)
    W = np.zeros((22, 9))
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERS):
        R = y[:, None] - A @ W.T
        G = np.where(R > 0.0, -taus, 1.0 - taus)
        W -= 1e-3 * (A.T @ G).T
        acc = 0.0
        for j in range(60):
            acc += j * 0.5
    return time.perf_counter() - start


class Clock:
    """Scales measured times to reference speed by timing the reference
    computation between measurements."""

    def __init__(self):
        self.last = reference_seconds()

    def scale(self) -> float:
        """Factor for the measurement made since the previous call."""
        now = reference_seconds()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return factor


@dataclass
class Runs:
    warm: object
    reps: list = field(default_factory=list)
    rep_scale: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    traced_scale: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    designs: list | None = None
    peak_rss_mb: float = 0.0


def measure(args, wl, out: Path, clock: Clock) -> Runs:
    """Repeat the workload for about args.seconds (at least MIN_REPS untraced
    repetitions, or one untraced and one traced when tracing), after one
    untimed warm-up repetition that the output checks also use."""
    runs = Runs(warm=wl.run(out))
    clock.scale()
    min_rounds = 1 if args.trace else MIN_REPS
    start = time.perf_counter()
    while True:
        runs.reps.append(wl.run(out))
        runs.rep_scale.append(clock.scale())
        if args.trace:
            tracer = spans.Tracer(capture_designs=runs.designs is None)
            with tracer:
                runs.traced.append(wl.run(out))
            runs.traced_scale.append(clock.scale())
            runs.layers.append(spans.layer_metrics(tracer))
            if runs.designs is None:
                runs.designs = tracer.designs
        elapsed = time.perf_counter() - start
        if len(runs.reps) >= min_rounds and elapsed * (1 + 1 / len(runs.reps)) > args.seconds:
            break
    runs.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        check(not spans.installed_wrappers(), f"wrappers left: {spans.installed_wrappers()}")
    return runs


def check_outputs(wl, reps, out: Path, cores: int) -> None:
    import workloads

    first = reps[0]
    for i, rep in enumerate(reps[1:], start=1):
        check(rep.payload == first.payload, f"repetition {i} differs from repetition 0")
    too_short = sorted(
        sid for sid, _, reason in first.summary["skips"]
        if workloads.skip_bucket(reason) == "too_short"
    )
    expected = sorted(sid for sid in wl.short_ids for _ in wl.methods)
    check(too_short == expected, f"too-short skips {too_short[:6]}... != planted {expected[:6]}...")
    par = wl.run(out, parallelism=max(2, cores))
    check(par.payload == first.payload, "output at parallelism > 1 differs from parallelism 1")
    if wl.name == "suite":
        floor = workloads.coverage_floor()
        low = {m: c for m, c in floor.items() if c < workloads.COVERAGE_FLOOR}
        check(not low, f"acceptance-panel coverage below {workloads.COVERAGE_FLOOR}: {low}")


def end_to_end(runs: Runs, setup: list[tuple[float, float]], scaled: bool = True) -> dict[str, float]:
    """Medians over repetitions, at reference speed or as measured."""
    med = statistics.median
    scales = runs.rep_scale if scaled else [1.0] * len(runs.reps)
    walls = [r.wall_s * f for r, f in zip(runs.reps, scales)]
    return {
        "wall_s": med(walls),
        "cpu_s": med(r.cpu_s * f for r, f in zip(runs.reps, scales)),
        "series_per_s": med(r.n_evaluated / w for r, w in zip(runs.reps, walls)),
        "setup_s": med(t[1] if scaled else t[0] for t in setup),
        "peak_rss_mb": runs.peak_rss_mb,
    }


def per_layer(args, wl, runs: Runs) -> dict[str, float]:
    import lossgap
    import numpy as np

    out = {k: statistics.median(run[k] for run in runs.layers) for k in runs.layers[0]}
    first = runs.reps[0]
    buckets = first.buckets()
    for name, count in buckets.items():
        out[f"bench.skips.{name}"] = count
    out["fail_share"] = (buckets["too_short"] + buckets["method_error"]) / wl.attempted(first)
    gaps = lossgap.loss_gaps(runs.designs, args.seed)
    out["quantreg.loss_gap_p50"] = float(np.percentile(gaps, 50)) if gaps else 0.0
    out["quantreg.loss_gap_p90"] = float(np.percentile(gaps, 90)) if gaps else 0.0
    plain = statistics.median(r.wall_s * f for r, f in zip(runs.reps, runs.rep_scale))
    traced = statistics.median(r.wall_s * f for r, f in zip(runs.traced, runs.traced_scale))
    out["trace.overhead_share"] = (traced - plain) / plain
    return out


def run(args, work: Path, cores: int) -> int:
    import workloads

    print(json.dumps({"env": environment(cores)}), flush=True)
    clock = Clock()
    setup = [] if args.trace else import_seconds(clock)
    wl = workloads.make_workload(args.workload, args.seed, work)
    out = work / "out"
    attempted = failed = 0
    try:
        runs = measure(args, wl, out, clock)
        for rep in runs.reps + runs.traced:
            attempted += wl.attempted(rep)
            failed += rep.buckets()["method_error"]
        check_outputs(wl, [runs.warm] + runs.reps + runs.traced, out, cores)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        values, units = per_layer(args, wl, runs), PER_LAYER
    else:
        values, units = end_to_end(runs, setup), END_TO_END
    print(f"{wl.name}: {wl.n_series} series, seed {args.seed}, repetition walls (s): "
          f"untraced {[round(r.wall_s, 3) for r in runs.reps]}, "
          f"traced {[round(r.wall_s, 3) for r in runs.traced]}")
    measured = {} if args.trace else end_to_end(runs, setup, scaled=False)
    for name, unit in units.items():
        note = f"  (measured {measured[name]:.6g})" if name in measured else ""
        print(f"  {name:<42} {values[name]:>14.6g} {unit}{note}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ctsbench" / "__init__.py").is_file():
        print(f"perfbench: no ctsbench source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctsbench
    import workloads

    if not Path(ctsbench.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: ctsbench imported from {ctsbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    cores = len(os.sched_getaffinity(0))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work, cores)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
