"""Acceptance gate: nine end-to-end checks with one printed verdict line each.

Run with plain pytest; verdict lines bypass output capture so the terminal
always shows the per-criterion outcome:

    [criterion 3] PASS winkler-identities: ...

The heavy fixtures (the 240-series benchmark suite and the determinism
replays) are session-scoped and shared across criteria.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import time

import numpy as np
import pytest

from ctsbench import forecaster
from ctsbench.bench import (
    BenchConfig,
    SyntheticSpec,
    emit_reports,
    generate_synthetic,
    run_benchmark,
    summary_payload,
)
from ctsbench.conformal import conformal_quantile, global_cp_intervals
from ctsbench.forecaster import ForecasterSpec, fit_auto_ar, forecast
from ctsbench.metrics import winkler
from ctsbench.online import AciState, aci_interval, aci_step
from ctsbench.series import SeriesPanel
from ctsbench.special import chi_sq_cdf, student_t_cdf, student_t_quantile
from ctsbench.stattest import conover_posthoc, friedman_test, rank_scores

GOLDEN = pathlib.Path(__file__).parent / "data" / "conover_golden.json"

# frozen suite composition: three generator families, deterministic seeds
SUITE_PARTS = (("ar1", 100, 11), ("seasonal_ar", 80, 12), ("shift", 60, 13))
SUITE_CONFIG = BenchConfig(seed=20, parallelism=8)


def verdict(capsys, criterion: int, name: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


def build_suite_panel() -> SeriesPanel:
    series = []
    for generator, n, seed in SUITE_PARTS:
        spec = SyntheticSpec(generator=generator, n_series=n, length=120, seed=seed)
        for ts in generate_synthetic(spec):
            series.append(dataclasses.replace(ts, series_id=f"{generator}_{ts.series_id}"))
    return SeriesPanel(tuple(series))


@pytest.fixture(scope="session")
def suite_run():
    t0 = time.perf_counter()
    report = run_benchmark(SUITE_CONFIG, panel=build_suite_panel())
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def determinism_runs(tmp_path_factory):
    panel = generate_synthetic(SyntheticSpec(generator="ar1", n_series=30, seed=40))
    outs = []
    # Blocks of 2 against 64 series per stacked solve give a second evaluation order.
    with pytest.MonkeyPatch.context() as mp:
        for tag, block in (("a", 64), ("b", 64), ("c", 2)):
            mp.setattr(forecaster, "_STACK_BLOCK", block)
            report = run_benchmark(BenchConfig(seed=5), panel=panel)
            out = tmp_path_factory.mktemp(f"det_{tag}")
            emit_reports(report, str(out))
            outs.append((report, out))
    return outs


def test_criterion_1_split_cp_exactness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    hits = 0
    reps = 1000
    for _ in range(reps):
        cal = np.abs(rng.standard_normal(50))
        test = abs(rng.standard_normal())
        hits += test <= conformal_quantile(cal, 0.9)
    coverage = hits / reps
    elapsed = time.perf_counter() - t0
    ok = 0.90 <= coverage <= 0.93 and elapsed < 10.0
    verdict(
        capsys, 1, "split-cp-exactness",
        ok, f"coverage={coverage:.4f} target window [0.90, 0.93], {elapsed:.2f}s",
    )


def test_criterion_2_quantile_oracle(capsys):
    rng = np.random.default_rng(8)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 80))
        scores = rng.standard_normal(n)
        level = float(rng.uniform(0.01, 0.99))
        got = conformal_quantile(scores, level)
        k = math.ceil(level * (n + 1))
        want = math.inf if k > n else float(np.sort(scores)[k - 1])
        if got != want:
            mismatches += 1
    verdict(
        capsys, 2, "quantile-oracle",
        mismatches == 0, f"{10_000 - mismatches}/10000 instances agree exactly",
    )


def test_criterion_3_winkler_identities(capsys):
    rng = np.random.default_rng(12)
    worst_slope = 0.0
    identity_violations = 0
    for _ in range(10_000):
        lo = float(rng.standard_normal())
        hi = lo + float(np.abs(rng.standard_normal())) + 1e-6
        y = float(rng.standard_normal() * 3.0)
        alpha = float(rng.uniform(0.02, 0.5))
        s = winkler((lo, hi), y, alpha)
        w = hi - lo
        covered = lo <= y <= hi
        if s < w - 1e-12 or (covered != (abs(s - w) < 1e-12)):
            identity_violations += 1
        if not covered:
            # the breach penalty is exactly linear with slope 2/alpha
            eps = 1e-3
            y2 = y - eps if y < lo else y + eps
            slope = (winkler((lo, hi), y2, alpha) - s) / eps
            worst_slope = max(worst_slope, abs(slope - 2.0 / alpha))
    ok = identity_violations == 0 and worst_slope <= 1e-9
    verdict(
        capsys, 3, "winkler-identities",
        ok, f"violations={identity_violations}, worst slope error={worst_slope:.2e}",
    )


def test_criterion_4_aci_long_run_bound(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    gamma, target, T = 0.01, 0.1, 20_000
    state = AciState(alpha_t=0.1, gamma=gamma, target=target)
    pool = list(np.abs(rng.standard_normal(50)))
    scales = (1.0, 3.0, 0.5, 2.0)
    errs = []
    for t in range(T):
        scale = scales[min(t // 5000, 3)]
        lo, hi = aci_interval(state, 0.0, np.asarray(pool[-500:]))
        s = scale * abs(rng.standard_normal())
        err = 0 if lo <= s <= hi else 1
        errs.append(err)
        state = aci_step(state, err)
        pool.append(s)
    mean_err = float(np.mean(errs))
    bound = (max(0.1, 0.9) + gamma) / (gamma * T)
    elapsed = time.perf_counter() - t0
    ok = abs(mean_err - target) <= bound and 0.08 <= mean_err <= 0.12 and elapsed < 5.0
    verdict(
        capsys, 4, "aci-long-run-bound",
        ok,
        f"mean err={mean_err:.5f}, |err-0.1|={abs(mean_err - target):.5f} "
        f"<= bound={bound:.5f}, 3 shifts, {elapsed:.2f}s",
    )


def test_criterion_5_global_cp_joint_validity(capsys):
    panel = generate_synthetic(
        SyntheticSpec(generator="ar1", n_series=300, length=72, seed=31)
    )
    H = 12
    forecasts = {}
    for series in panel:
        head = series.values[:-H]
        forecasts[series.series_id] = forecast(fit_auto_ar(head, ForecasterSpec()), head, H)
    res = global_cp_intervals(panel, 0.5, forecasts, 0.1, H)
    joints = []
    for sid in res.evaluation_ids:
        truth = panel[sid].values[-H:]
        iv = res.intervals[sid]
        joints.append(bool(np.all((truth >= iv.lower[0]) & (truth <= iv.upper[0]))))
    joint = float(np.mean(joints))
    verdict(
        capsys, 5, "global-cp-joint-validity",
        joint >= 0.87,
        f"joint trajectory coverage={joint:.4f} over {len(joints)} series (>= 0.87)",
    )


def test_criterion_6_friedman_conover_oracle(capsys):
    scores = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    fr = friedman_test(rank_scores(scores))
    hand_ok = (
        abs(fr.statistic - 8.0) < 1e-12
        and fr.df == 2
        and abs(fr.p_value - math.exp(-4.0)) <= 1e-6
    )
    g = json.loads(GOLDEN.read_text())
    table = rank_scores(np.array(g["table"]))
    ph = conover_posthoc(table, alpha=g["alpha"])
    golden_ok = (
        table.rank_sums.tolist() == g["rank_sums"]
        and ph.significant.tolist() == g["significant"]
        and abs(ph.cd - g["cd"]) <= 1e-7
    )
    verdict(
        capsys, 6, "friedman-conover-oracle",
        hand_ok and golden_ok,
        f"hand example chi2={fr.statistic:.1f} p={fr.p_value:.6f}, "
        f"golden 10x3 table reproduced (cd diff {abs(ph.cd - g['cd']):.1e})",
    )


def test_criterion_7_directional_reproduction(capsys, suite_run):
    report, _ = suite_run
    cov = {m: s.coverage for m, s in report.summaries.items()}
    required = ("mscp", "aci", "acmcp", "global_cp", "parametric")
    meets = {m: cov[m] >= 0.88 for m in required}
    cv_below = cov["cv_cp"] < 0.90
    ok = all(meets.values()) and cv_below
    documented = ", ".join(
        f"{m}={cov[m]:.4f} ({'<' if cov[m] < 0.90 else '>='} 0.90)"
        for m in ("enbpi", "spci")
    )
    verdict(
        capsys, 7, "directional-reproduction",
        ok,
        f"{report.metadata['n_series']} series; "
        + ", ".join(f"{m}={cov[m]:.4f}" for m in required)
        + f" (all >= 0.88); cv_cp={cov['cv_cp']:.4f} (< 0.90); documented: {documented}",
    )


def test_criterion_8_special_functions(capsys):
    chi_err = abs(chi_sq_cdf(8.0, 2) - (1.0 - math.exp(-4.0)))
    worst = 0.0
    for df in (1, 2, 3, 5, 8, 12, 20, 50, 200):
        for p in np.linspace(0.005, 0.995, 45):
            q = student_t_quantile(float(p), df)
            worst = max(worst, abs(student_t_cdf(q, df) - p))
    ok = chi_err <= 1e-10 and worst <= 1e-7
    verdict(
        capsys, 8, "special-functions",
        ok,
        f"chi2(8, df=2) error={chi_err:.1e} (<= 1e-10), "
        f"t-quantile round-trip worst={worst:.1e} (<= 1e-7)",
    )


def test_criterion_9_determinism_and_runtime(capsys, suite_run, determinism_runs):
    _, suite_wall = suite_run
    (rep_a, out_a), (rep_b, out_b), (rep_c, out_c) = determinism_runs
    bytes_a = (out_a / "metrics.csv").read_bytes()
    same_seed = bytes_a == (out_b / "metrics.csv").read_bytes()
    block_invariant = bytes_a == (out_c / "metrics.csv").read_bytes()
    payloads = []
    for rep in (rep_a, rep_b, rep_c):
        p = summary_payload(rep)
        p.pop("metadata")
        payloads.append(json.dumps(p, sort_keys=True))
    summaries_equal = payloads[0] == payloads[1] == payloads[2]
    ok = same_seed and block_invariant and summaries_equal and suite_wall < 300.0
    verdict(
        capsys, 9, "determinism-and-runtime",
        ok,
        f"same-seed bytes equal={same_seed}, stack blocks 64 vs 2 equal={block_invariant}, "
        f"summaries equal={summaries_equal}, full suite wall={suite_wall:.1f}s (< 300s)",
    )
