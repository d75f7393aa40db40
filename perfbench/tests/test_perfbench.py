"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from ctsbench import bench
from ctsbench.series import SeriesPanel

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, thread=0, parent=None):
    return spans.Span(name, start, end, thread, parent)


def test_self_time_of_nested_spans_on_one_thread():
    outer = span("bench.run_benchmark", 0.0, 10.0)
    mid = span("conformal.spci_intervals", 2.0, 6.0, parent=outer)
    inner = span("quantreg.fit_pinball_linear", 3.0, 4.0, parent=mid)
    sibling = span("metrics.series_metrics", 7.0, 8.0, parent=outer)
    got = spans.self_times([outer, mid, inner, sibling])
    assert got == pytest.approx([10.0 - 4.0 - 1.0, 4.0 - 1.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_on_other_threads():
    outer = span("bench.run_benchmark", 0.0, 10.0, thread=0)
    a = span("forecaster.fit_auto_ar", 1.0, 6.0, thread=1, parent=outer)
    b = span("forecaster.fit_auto_ar", 4.0, 8.0, thread=2, parent=outer)
    late = span("forecaster.forecast", 9.0, 12.0, thread=1, parent=outer)  # clipped at 10
    got = spans.self_times([outer, a, b, late])
    assert got[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert got[1:] == pytest.approx([5.0, 4.0, 3.0])
    # worker time: thread 1 busy 5 + 3, thread 2 busy 4, over 10 s x 2 threads
    assert spans.busy_share([outer, a, b, late]) == pytest.approx(12.0 / 20.0)


def test_tracer_parents_pool_workers_under_the_calling_span():
    tracer = spans.Tracer()
    leaf = tracer._wrap(lambda: None, "forecaster.forecast")

    def top():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        leaf()

    tracer._wrap(top, "bench.run_benchmark")()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["bench.run_benchmark"]
    assert [s.parent for s in by_name["forecaster.forecast"]] == [root, root]
    assert len({s.thread for s in by_name["forecaster.forecast"]}) == 2


@pytest.mark.parametrize(
    "reason, bucket",
    [
        ("series too short: 40 observations for train -8, cal 36, test 12", "too_short"),
        ("spent as pooled calibration cohort", "calibration_cohort"),
        ("residual history too short: need >= 18, have 12", "method_error"),
        ("something nobody has seen before", "method_error"),
        ("", "method_error"),
    ],
)
def test_skip_bucket(reason, bucket):
    assert workloads.skip_bucket(reason) == bucket


def test_skip_buckets_match_ctsbench_reason_strings():
    spec = bench.SyntheticSpec(n_series=4, length=120, seed=3)
    panel = list(bench.generate_synthetic(spec))
    (short,) = bench.generate_synthetic(bench.SyntheticSpec(n_series=1, length=30, seed=4))
    panel.append(dataclasses.replace(short, series_id="zz_short"))
    config = bench.BenchConfig(methods=("global_cp", "parametric"))
    report = bench.run_benchmark(config, panel=SeriesPanel(tuple(panel)))
    got = [workloads.skip_bucket(reason) for _, _, reason in report.skips]
    assert got.count("too_short") == 2
    assert got.count("calibration_cohort") == 2
    assert got.count("method_error") == 0


def _panel_fingerprint(panel):
    return [(s.series_id, s.values.tobytes()) for s in panel]


def test_suite_panel_repeats_for_a_seed_and_changes_with_it():
    make = workloads.suite_panel
    assert _panel_fingerprint(make(3)) == _panel_fingerprint(make(3))
    assert _panel_fingerprint(make(3)) != _panel_fingerprint(make(4))


def test_cli_csv_repeats_for_a_seed_and_changes_with_it():
    text, short = workloads.cli_panel_csv(5)
    assert (text, short) == workloads.cli_panel_csv(5)
    assert text != workloads.cli_panel_csv(6)[0]
    assert len(short) == workloads.CLI_SERIES // workloads.CLI_SHORT_EVERY
    assert text.splitlines()[1].split(",")[1].endswith("-01")


def test_suite_seed_zero_is_the_head_of_the_acceptance_panel():
    full = {s.series_id: s for s in workloads.synthetic_panel(workloads.ACCEPTANCE_FAMILIES, 120)}
    for s in workloads.suite_panel(0):
        assert np.array_equal(s.values, full[s.series_id].values)


def _wrap_targets():
    return {
        (mod, attr): getattr(importlib.import_module(f"ctsbench.{mod}"), attr)
        for mod, attr, _ in spans.WRAP_POINTS
    }


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _wrap_targets()
    panel = SeriesPanel(tuple(workloads.suite_panel(0))[:3])
    wl = workloads.Workload("t", ("mscp", "spci", "parametric"), 0, panel=panel)
    tracer = spans.Tracer(capture_designs=True)
    with tracer:
        assert len(spans.installed_wrappers()) == len(spans.WRAP_POINTS)
        wl.run(tmp_path)
    assert spans.installed_wrappers() == []
    after = _wrap_targets()
    assert all(after[k] is before[k] for k in before)
    layer = spans.layer_metrics(tracer)
    assert layer["quantreg.fit_pinball_linear.calls"] == 3 * 12
    assert layer["quantreg.iterations"] == 3 * 12 * 500
    assert len(tracer.designs) == 3 * 12


def test_wrappers_are_removed_when_the_run_raises():
    before = _wrap_targets()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert spans.installed_wrappers() == []
    assert all(_wrap_targets()[k] is v for k, v in before.items())


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
