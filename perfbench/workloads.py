"""Benchmark workloads: seeded inputs and one repetition of each.

Each workload turns its seed into a panel (or a panel CSV) and runs
ctsbench on it through a public entry point: `run_benchmark` plus
`emit_reports` in-process, or `ctsbench.cli.main(["run", ...])`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from ctsbench import bench, cli
from ctsbench.series import SeriesPanel

CLI_METHODS = ("global_cp", "parametric", "cv_cp")

# The acceptance suite (tests/test_acceptance.py): (generator, series, seed)
# per family, run with BenchConfig(seed=20).
ACCEPTANCE_FAMILIES = (("ar1", 100, 11), ("seasonal_ar", 80, 12), ("shift", 60, 13))
ACCEPTANCE_CONFIG_SEED = 20
# Criterion 7 of the acceptance suite: these methods keep coverage >= 0.88.
FLOOR_METHODS = ("mscp", "aci", "acmcp", "global_cp", "parametric")
COVERAGE_FLOOR = 0.88

# Panels are sized so that one repetition takes a few seconds and a run
# holds several: the suite workload keeps 1/SUITE_SHARE of every acceptance
# family.
SUITE_SHARE = 20
CLI_SERIES = 600
CLI_LENGTH = 96
CLI_SHORT_EVERY = 50  # one series in 50 is too short to evaluate
CLI_SHORT_LENGTH = 40

SKIP_BUCKETS = ("too_short", "calibration_cohort", "method_error")


def skip_bucket(reason: str) -> str:
    """Category of a BenchmarkReport skip reason; anything unknown is a method error."""
    if reason.startswith("series too short:"):
        return "too_short"
    if reason == "spent as pooled calibration cohort":
        return "calibration_cohort"
    return "method_error"


def synthetic_panel(families, length: int) -> SeriesPanel:
    """Panel of ctsbench synthetic families with ids `<generator>_sNNNN`."""
    out = []
    for generator, n, seed in families:
        spec = bench.SyntheticSpec(generator=generator, n_series=n, length=length, seed=seed)
        for ts in bench.generate_synthetic(spec):
            out.append(dataclasses.replace(ts, series_id=f"{generator}_{ts.series_id}"))
    return SeriesPanel(tuple(out))


def suite_panel(seed: int) -> SeriesPanel:
    """Seed 0 gives the first series of each family of the acceptance panel."""
    families = [
        (g, n // SUITE_SHARE, s + 3 * seed) for g, n, s in ACCEPTANCE_FAMILIES
    ]
    return synthetic_panel(families, 120)


def cli_panel_csv(seed: int) -> tuple[str, list[str]]:
    """Monthly panel CSV text and the ids of the series planted too short.

    Series mix AR(1) noise, a yearly cycle and a level shift with
    per-series parameters; stamps are YYYY-MM-01 from a per-series start.
    """
    rng = np.random.default_rng([seed, 3000])
    n, length = CLI_SERIES, CLI_LENGTH
    burn = 50
    phi = rng.uniform(0.2, 0.9, n)
    eps = rng.normal(0.0, 1.0, (burn + length, n))
    x = np.empty_like(eps)
    x[0] = eps[0]
    for t in range(1, burn + length):
        x[t] = phi * x[t - 1] + eps[t]
    t = np.arange(length)[:, None]
    cycle = rng.uniform(0.0, 6.0, n) * np.sin(2.0 * np.pi * (t + rng.integers(0, 12, n)) / 12.0)
    shift = np.where(t >= rng.integers(length // 4, length, n), rng.normal(0.0, 5.0, n), 0.0)
    values = 50.0 + x[burn:] + cycle + shift
    start = rng.integers(1990 * 12, 2010 * 12, n)
    short = set(rng.choice(n, size=n // CLI_SHORT_EVERY, replace=False).tolist())
    lines = ["unique_id,ds,y"]
    for i, (row, first) in enumerate(zip(values.T.tolist(), start.tolist())):
        sid = f"m{i:05d}"
        keep = CLI_SHORT_LENGTH if i in short else length
        for k in range(length - keep, length):
            stamp = first + k
            lines.append(f"{sid},{stamp // 12:04d}-{stamp % 12 + 1:02d}-01,{row[k]!r}")
    return "\n".join(lines) + "\n", sorted(f"m{i:05d}" for i in short)


@dataclasses.dataclass
class Rep:
    """Outcome of one repetition."""

    wall_s: float
    cpu_s: float
    payload: bytes  # summary.json without metadata, then metrics.csv
    summary: dict
    n_evaluated: int

    def buckets(self) -> dict[str, int]:
        counts = dict.fromkeys(SKIP_BUCKETS, 0)
        for _, _, reason in self.summary["skips"]:
            counts[skip_bucket(reason)] += 1
        return counts


def _read_reports(out_dir: Path) -> tuple[bytes, dict]:
    """Parse all four artifacts; return the deterministic payload and summary."""
    metrics = (out_dir / "metrics.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(metrics.decode())))
    if rows[0] != ["series", "method", "coverage", "width", "winkler"] or len(rows) < 2:
        raise ValueError("metrics.csv has no header or no records")
    summary = json.loads((out_dir / "summary.json").read_text())
    for svg in ("coverage.svg", "cd.svg"):
        ET.fromstring((out_dir / svg).read_text())
    stable = {k: v for k, v in summary.items() if k != "metadata"}
    payload = json.dumps(stable, sort_keys=True).encode() + b"\n" + metrics
    return payload, summary


@dataclasses.dataclass
class Workload:
    name: str
    methods: tuple[str, ...]
    config_seed: int
    panel: SeriesPanel | None = None
    csv_path: Path | None = None
    short_ids: tuple[str, ...] = ()

    @property
    def n_series(self) -> int:
        return len(self.panel) if self.panel is not None else CLI_SERIES

    def attempted(self, rep: Rep) -> int:
        """(series, method) evaluations asked for, less the by-design cohort."""
        return self.n_series * len(self.methods) - rep.buckets()["calibration_cohort"]

    def run(self, out_dir: Path, parallelism: int = 1) -> Rep:
        """One repetition, timed from the call into ctsbench until the reports exist."""
        if self.panel is not None:
            config = bench.BenchConfig(
                seed=self.config_seed, methods=self.methods, parallelism=parallelism
            )
            t0, c0 = time.perf_counter(), time.process_time()
            report = bench.run_benchmark(config, panel=self.panel)
            bench.emit_reports(report, str(out_dir))
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        else:
            argv = [
                "run", "--data", str(self.csv_path), "--methods", ",".join(self.methods),
                "--seed", str(self.config_seed), "--parallelism", str(parallelism),
                "--out", str(out_dir),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                t0, c0 = time.perf_counter(), time.process_time()
                code = cli.main(argv)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if code != 0:
                raise RuntimeError(f"ctsbench run exited with {code}")
        payload, summary = _read_reports(out_dir)
        return Rep(wall, cpu, payload, summary, summary["metadata"]["n_series_evaluated"])


WORKLOADS = ("suite", "cli_wide")


def make_workload(name: str, seed: int, work_dir: Path) -> Workload:
    """Build a workload's inputs from its seed; the CSV goes under work_dir."""
    if name == "suite":
        return Workload(name, bench.METHODS, ACCEPTANCE_CONFIG_SEED + seed, panel=suite_panel(seed))
    if name == "cli_wide":
        text, short = cli_panel_csv(seed)
        path = work_dir / "panel.csv"
        path.write_text(text)
        return Workload(name, CLI_METHODS, 40 + seed, csv_path=path, short_ids=tuple(short))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def coverage_floor() -> dict[str, float]:
    """Coverage of the criterion-7 methods on the full, frozen acceptance panel."""
    panel = synthetic_panel(ACCEPTANCE_FAMILIES, 120)
    config = bench.BenchConfig(seed=ACCEPTANCE_CONFIG_SEED, methods=FLOOR_METHODS)
    report = bench.run_benchmark(config, panel=panel)
    return {m: report.summaries[m].coverage for m in FLOOR_METHODS}
