"""Benchmark harness: generators, config plumbing, reports, CLI exit codes."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctsbench import bench, conformal, forecaster, online, quantreg
from ctsbench.bench import (
    BenchConfig,
    NothingEvaluableError,
    SyntheticSpec,
    build_config,
    emit_reports,
    generate_synthetic,
    parse_config_text,
    run_benchmark,
    series_seed,
    summary_payload,
    write_panel_csv,
)
from ctsbench.cli import main as cli_main
from ctsbench.conformal import (
    EnsembleSpec,
    IntervalMatrix,
    build_residual_matrix,
    enbpi_intervals,
    global_cp_intervals,
    parametric_intervals,
)
from ctsbench.forecaster import (
    ForecasterSpec,
    fit_auto_ar,
    forecast,
    seasonal_naive_forecast,
)
from ctsbench.series import SeriesPanel, SplitSpec, TimeSeries, parse_panel

FAST_METHODS = ("mscp", "cv_cp", "parametric")


def small_config(**kw):
    base = dict(
        methods=FAST_METHODS, horizon=6, cal_len=24, seed=1, parallelism=1
    )
    base.update(kw)
    return BenchConfig(**base)


def small_panel(n=6, seed=2, length=90, generator="ar1"):
    return generate_synthetic(
        SyntheticSpec(generator=generator, n_series=n, length=length, seed=seed)
    )


def run_method(config, table, method):
    """One method run over a run's prefix table: each series' intervals (an
    IntervalMatrix of its bound rows) or skip reason."""
    rows, lower, upper, skipped = bench._evaluate(config, table, method)
    ids = [ts.series_id for ts in table.rows["series"]]
    out = {ids[i]: reason for i, reason in skipped.items()}
    return out | {ids[i]: IntervalMatrix(lo, hi) for i, lo, hi in zip(rows.tolist(), lower, upper)}


def assert_end_fit(end, alone, what):
    """A prefix table's end row's fit, phi zero-padded past its order, is bit for bit the lone model."""
    assert (int(end["order"]), end["intercept"].tobytes(), end["sigma2"].tobytes()) == (
        alone.order, np.float64(alone.intercept).tobytes(), np.float64(alone.sigma2).tobytes()
    ), what
    phi = end["phi"]
    assert phi[: alone.order].tobytes() == alone.phi.tobytes() and not phi[alone.order :].any(), what


def table_rows(table, idx):
    """The prefix table of the given rows of table, in that order."""
    idx = np.asarray(idx, dtype=np.intp)
    new = {int(i): k for k, i in enumerate(idx)}
    return bench._Table(
        {kind: rows[idx] for kind, rows in table.rows.items()},
        {kind: {new[i]: m for i, m in faults.items() if i in new} for kind, faults in table.faults.items()},
    )


def two_length_series(n_long):
    """n_long series of 90 points and three of 70, with distinct ids."""
    short = small_panel(n=3, seed=3, length=70)
    return list(small_panel(n=n_long).series) + [
        dataclasses.replace(ts, series_id=f"b{ts.series_id}") for ts in short
    ]


class TestSeriesSeed:
    def test_deterministic(self):
        assert series_seed(7, "s0001") == series_seed(7, "s0001")

    def test_varies_with_id_and_seed(self):
        assert series_seed(7, "s0001") != series_seed(7, "s0002")
        assert series_seed(7, "s0001") != series_seed(8, "s0001")


class TestGenerators:
    def test_same_spec_same_panel(self):
        spec = SyntheticSpec(n_series=4, length=40, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert all(x == y for x, y in zip(a.series, b.series))

    def test_ids_and_timestamps(self):
        panel = small_panel(n=3, length=20)
        assert panel.ids == ("s0000", "s0001", "s0002")
        s = panel["s0000"]
        assert s.timestamps[0] == 1 and s.timestamps[-1] == 20
        assert s.period == 12

    def test_ar1_zero_phi_is_white_noise(self):
        spec = SyntheticSpec(n_series=30, length=200, phi=0.0, seed=3)
        panel = generate_synthetic(spec)
        acs = []
        for s in panel:
            y = s.values
            y0, y1 = y[:-1] - y.mean(), y[1:] - y.mean()
            acs.append(float(y0 @ y1 / max(y0 @ y0, 1e-12)))
        assert abs(np.mean(acs)) < 0.1

    def test_shift_moves_the_level(self):
        spec = SyntheticSpec(
            generator="shift", n_series=20, length=100, seed=4, shift_magnitude=10.0
        )
        panel = generate_synthetic(spec)
        diffs = [s.values[50:].mean() - s.values[:50].mean() for s in panel]
        assert abs(np.mean(diffs) - 10.0) < 1.0

    def test_seasonal_component_present(self):
        spec = SyntheticSpec(generator="seasonal_ar", n_series=10, length=120, seed=5)
        panel = generate_synthetic(spec)
        t = np.arange(1, 121)
        template = np.sin(2.0 * np.pi * t / 12)
        cors = [
            float(np.corrcoef(s.values, template)[0, 1]) for s in panel
        ]
        assert np.mean(cors) > 0.5

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="generator"):
            SyntheticSpec(generator="brownian")
        with pytest.raises(ValueError, match="phi"):
            SyntheticSpec(phi=1.0)


class TestConfigParsing:
    def test_values_comments_quotes(self):
        text = "# run setup\nalpha = 0.05\nmethods = 'mscp, aci'\n\nseed= 3 # trailing\n"
        values = parse_config_text(text)
        assert values == {"alpha": "0.05", "methods": "mscp, aci", "seed": "3"}

    def test_unknown_key_line_numbered(self):
        with pytest.raises(ValueError, match="line 2.*frobnicate"):
            parse_config_text("alpha = 0.1\nfrobnicate = yes\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("alpha 0.1\n")

    def test_build_config_conversions(self):
        cfg = build_config(
            {
                "methods": "mscp, aci",
                "out": "results",
                "refit_every": "none",
                "alpha": "0.05",
                "forecaster": "auto_ar",
                "max_order": "3",
                "include_drift": "false",
            }
        )
        assert cfg.methods == ("mscp", "aci")
        assert cfg.out_dir == "results"
        assert cfg.refit_every is None
        assert cfg.alpha == 0.05
        assert cfg.forecaster == ForecasterSpec(max_order=3, include_drift=False)
        assert build_config({"include_drift": "No"}).forecaster.include_drift is False
        assert build_config({"include_drift": "YES"}).forecaster.include_drift is True

    def test_overrides_win(self):
        cfg = build_config({"alpha": "0.05"}, alpha=0.2, seed=9)
        assert cfg.alpha == 0.2 and cfg.seed == 9

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            BenchConfig(methods=("mscp", "quantum"))

    def test_duplicate_method_rejected(self):
        # A repeated method was once run twice: its records doubled, its
        # n_series counted every series twice, and Friedman ranked it
        # against itself.
        with pytest.raises(ValueError, match=r"^duplicate methods: \['mscp'\]$"):
            BenchConfig(methods=("mscp", "mscp", "parametric"))
        with pytest.raises(ValueError, match=r"duplicate methods: \['aci', 'mscp'\]"):
            build_config(methods="aci,mscp,aci,mscp")

    def test_config_hash_tracks_content(self):
        assert small_config().config_hash() == small_config().config_hash()
        assert small_config().config_hash() != small_config(seed=99).config_hash()

    def test_parallelism_changes_no_config_hash(self):
        # parallelism selects nothing, so it is no field of the config.
        assert BenchConfig(parallelism=8).config_hash() == BenchConfig().config_hash()
        assert small_config(parallelism=8) == small_config()
        assert "parallelism" not in dataclasses.asdict(BenchConfig(parallelism=8))

    def test_parallelism_is_not_readable_from_a_config(self):
        # A default left on the class would read 1 whatever was passed.
        for config in (BenchConfig(parallelism=8), BenchConfig(), small_config(parallelism=3)):
            with pytest.raises(AttributeError):
                config.parallelism
        with pytest.raises(ValueError, match="parallelism"):
            BenchConfig(parallelism=0)

    def test_replace_keeps_every_field_and_the_hash(self):
        for config in (BenchConfig(), small_config(parallelism=3)):
            copy = dataclasses.replace(config)
            assert copy == config and copy.config_hash() == config.config_hash()
            assert dataclasses.asdict(copy) == dataclasses.asdict(config)
            moved = dataclasses.replace(config, seed=config.seed + 1)
            assert dataclasses.asdict(moved) == {**dataclasses.asdict(config), "seed": config.seed + 1}
            assert moved.config_hash() != config.config_hash()
        with pytest.raises(ValueError, match="parallelism"):
            dataclasses.replace(BenchConfig(), parallelism=0)


class TestRunBenchmark:
    def test_small_run_structure(self):
        report = run_benchmark(small_config(), panel=small_panel())
        assert len(report.records) == 6 * len(FAST_METHODS)
        keys = [(r.series_id, r.method) for r in report.records]
        assert keys == sorted(keys)
        assert set(report.summaries) == set(FAST_METHODS)
        assert report.metadata["n_series_evaluated"] == 6
        assert report.friedman is not None

    def test_stack_block_invariant(self, monkeypatch):
        # Blocks of 2 against 64 stack the series-end fits and the cv_cp
        # backtests differently; the records and the payload are the same.
        panel = small_panel()
        # global_cp pools the forecasts of every series' context; alpha and the
        # horizon are chosen so its three-series cohort gives finite radii.
        for kw in ({}, dict(methods=("global_cp",), alpha=0.5, horizon=2)):
            monkeypatch.setattr(forecaster, "_STACK_BLOCK", 64)
            a = run_benchmark(small_config(**kw), panel=panel)
            monkeypatch.setattr(forecaster, "_STACK_BLOCK", 2)
            b = run_benchmark(small_config(**kw), panel=panel)
            assert a.records == b.records
            pa, pb = summary_payload(a), summary_payload(b)
            pa.pop("metadata")
            pb.pop("metadata")
            assert pa == pb

    def test_panel_order_invariant(self):
        # Two length groups and all eight methods: the panel reversed and a
        # seeded shuffle of it give the same records, skips and payload.
        series = two_length_series(4)
        order = np.random.default_rng(11).permutation(len(series))
        config = small_config(methods=bench.METHODS, alpha=0.5, horizon=2)
        reports = [
            run_benchmark(config, panel=SeriesPanel(tuple(panel)))
            for panel in (series, series[::-1], [series[i] for i in order])
        ]
        assert {len(ts) for ts in series} == {90, 70}
        assert {r.method for r in reports[0].records} == set(bench.METHODS)
        payloads = [summary_payload(r) for r in reports]
        for p in payloads:
            p.pop("metadata")
        for report, payload in zip(reports[1:], payloads[1:]):
            assert report.records == reports[0].records
            assert report.skips == reports[0].skips
            assert payload == payloads[0]

    def test_context_order_invariant(self):
        # SeriesPanel sorts its series by id, so reversing the panel does not
        # reach the methods; reversing the prefix table does. Every method
        # whose run solves blocks of series gives each series the same
        # intervals or skip reason in either order. global_cp is left out:
        # its calibration cohort is the first of the table's series, which
        # are in panel order.
        panel = SeriesPanel(tuple(two_length_series(4)))
        config = small_config(methods=bench.METHODS, alpha=0.5, horizon=2)
        table, _ = bench._prefix_table(panel, config)

        def results(method, reverse):
            rows = np.arange(len(table.rows["series"]))
            out = run_method(config, table_rows(table, rows[::-1] if reverse else rows), method)
            return {sid: r if isinstance(r, str) else (r.lower.tobytes(), r.upper.tobytes()) for sid, r in out.items()}

        for method in set(bench.METHODS) - {"global_cp"}:
            forward = results(method, reverse=False)
            assert len(forward) == len(panel), method
            assert not all(isinstance(r, str) for r in forward.values()), method
            assert results(method, reverse=True) == forward, method

    def test_methods_do_not_interfere_through_shared_contexts(self):
        panel = small_panel()
        kw = dict(alpha=0.5, horizon=2)
        together = run_benchmark(small_config(methods=bench.METHODS, **kw), panel=panel)
        for method in bench.METHODS:
            alone = run_benchmark(small_config(methods=(method,), **kw), panel=panel)
            assert alone.records == tuple(r for r in together.records if r.method == method)
            assert alone.skips == tuple(s for s in together.skips if s[1] == method)

    def test_methods_wrap_the_context_forecast(self, monkeypatch):
        # Shifting the context's forecast shifts every interval built around
        # it; enbpi makes its own forecasts. global_cp is left out because its
        # calibration residuals are computed from the forecasts.
        wrapping = ("mscp", "spci", "aci", "acmcp", "parametric", "cv_cp")
        config = small_config(methods=wrapping + ("enbpi",), alpha=0.5)
        score = bench.score_stack

        def intervals():
            seen = {}

            def spy(method, ids, lower, upper, truth, alpha):
                seen.update(((sid, method), IntervalMatrix(lo, hi)) for sid, lo, hi in zip(ids, lower, upper))
                return score(method, ids, lower, upper, truth, alpha)

            monkeypatch.setattr(bench, "score_stack", spy)
            assert not run_benchmark(config, panel=small_panel()).skips
            return seen

        before = intervals()
        prefix_forecasts = bench._prefix_forecasts

        def shifted(values, ends, *args):
            # Only the prefix table's end rows, the whole head, are the context's forecast.
            fits, yhat = prefix_forecasts(values, ends, *args)
            return fits, yhat + 1000.0 * (np.asarray(ends) == values.shape[1])[:, None]

        monkeypatch.setattr(bench, "_prefix_forecasts", shifted)
        after = intervals()
        assert before.keys() == after.keys() and len(before) == 6 * 7
        for (sid, method), iv in before.items():
            offset = 0.0 if method == "enbpi" else 1000.0
            for old, new in ((iv.lower, after[sid, method].lower), (iv.upper, after[sid, method].upper)):
                finite = np.isfinite(old)
                assert np.array_equal(old[~finite], new[~finite]), (sid, method)
                assert np.allclose(new[finite], old[finite] + offset, rtol=0.0, atol=1e-9), (sid, method)

    def test_single_series_global_cp_nothing_evaluable(self):
        panel = small_panel(n=1)
        with pytest.raises(NothingEvaluableError, match="cohort"):
            run_benchmark(small_config(methods=("global_cp",)), panel=panel)

    def test_global_cp_calibration_cohort_becomes_skips(self):
        panel = small_panel(n=6)
        report = run_benchmark(
            small_config(methods=("global_cp", "mscp")), panel=panel
        )
        reasons = {s[2] for s in report.skips if s[1] == "global_cp"}
        assert "spent as pooled calibration cohort" in reasons
        assert report.summaries["global_cp"].n_series == 3

    def test_global_cp_centres_on_the_configured_forecaster(self, monkeypatch):
        # The pooled bounds the run scores are the lone global_cp_intervals
        # of the panel around each head's seasonal naive forecast.
        results = []
        pooled = bench._pooled_bounds

        def spy(*args):
            results.append(pooled(*args))
            return results[-1]

        monkeypatch.setattr(bench, "_pooled_bounds", spy)
        panel = small_panel(generator="seasonal_ar")
        config = small_config(
            methods=("global_cp", "mscp"),
            forecaster=ForecasterSpec(kind="seasonal_naive"),
            alpha=0.5,
            horizon=2,
        )
        run_benchmark(config, panel=panel)
        ((radii, lower, upper),) = results
        assert np.all(np.isfinite(radii))
        forecasts = {ts.series_id: seasonal_naive_forecast(ts.head(len(ts) - 2), 2) for ts in panel}
        alone = global_cp_intervals(panel, config.cohort_split, forecasts, config.alpha, 2)
        assert len(alone.evaluation_ids) == len(lower) == 3
        assert alone.radii.tobytes() == radii.tobytes()
        for sid, lo, hi in zip(alone.evaluation_ids, lower, upper):
            assert np.array_equal(lo, forecasts[sid] - radii)
            assert np.array_equal(hi, forecasts[sid] + radii)
            assert alone.intervals[sid] == IntervalMatrix(lo, hi)

    def test_each_series_fitted_once(self, monkeypatch):
        # Series-end models come from the prefix table's one stacked call
        # over the eligible heads, which fits nothing else for these two
        # methods; no lone fit_auto_ar call fits them again.
        fitted = []
        prefix_forecasts = bench._prefix_forecasts

        def counting_table(values, ends, fit_ends, *args):
            fitted.extend(int(T) for _ in values for T in np.unique(fit_ends))
            return prefix_forecasts(values, ends, fit_ends, *args)

        def counting_fit(train, spec):
            fitted.append(len(train))
            return fit_auto_ar(train, spec)

        monkeypatch.setattr(bench, "_prefix_forecasts", counting_table)
        monkeypatch.setattr(bench, "fit_auto_ar", counting_fit)
        monkeypatch.setattr(conformal, "fit_auto_ar", counting_fit)
        short = TimeSeries(
            "tiny", np.arange(1, 21, dtype=np.int64), np.random.default_rng(0).standard_normal(20), 12, "int"
        )
        panel = SeriesPanel(tuple(small_panel().series) + (short,))
        report = run_benchmark(small_config(methods=("global_cp", "parametric")), panel=panel)
        assert report.metadata["n_series_evaluated"] == 6
        assert fitted == [90 - 6] * 6

    @pytest.mark.parametrize(
        "spec", [ForecasterSpec(), ForecasterSpec(max_order=3, include_drift=False)]
    )
    def test_stacked_end_fits_match_lone_fits(self, monkeypatch, spec):
        # Two head lengths, each larger than the block, a constant and a
        # trend among them: every series' end model is, field for field, the
        # one fit_auto_ar gives its head alone.
        monkeypatch.setattr(forecaster, "_STACK_BLOCK", 2)
        series = two_length_series(5)
        stamps = np.arange(1, 71, dtype=np.int64)
        series += [
            TimeSeries("flat", stamps, np.full(70, 2.0), 12),
            TimeSeries("trend", stamps, 1.0 + 0.5 * np.arange(70.0), 12),
        ]
        config = small_config(forecaster=spec)
        table, skips = bench._prefix_table(SeriesPanel(tuple(series)), config)
        assert len(table.rows["series"]) == 10 and not skips
        for ts, end in zip(table.rows["series"], table.rows["end"]):
            head = ts.head(len(ts) - config.horizon)
            alone = fit_auto_ar(head.values, spec)
            assert_end_fit(end, alone, head.series_id)
            assert end["fc"].tobytes() == forecast(alone, head, config.horizon).tobytes()

    def test_seasonal_end_forecasts_gather_once_per_length_and_period(self, monkeypatch):
        # Two lengths and two periods in blocks of 2: one gather per block,
        # and each series' end forecast is the one its head gets alone.
        monkeypatch.setattr(forecaster, "_STACK_BLOCK", 2)
        series = [dataclasses.replace(ts, period=4) if i % 2 else ts for i, ts in enumerate(two_length_series(5))]
        gathers = []

        def counting(values, *args):
            gathers.append(len(values))
            return forecaster._prefix_forecasts(values, *args)

        monkeypatch.setattr(bench, "_prefix_forecasts", counting)
        config = small_config(forecaster=ForecasterSpec(kind="seasonal_naive"))
        table, _ = bench._prefix_table(SeriesPanel(tuple(series)), config)
        end = table.rows["end"]
        assert not end["order"].any() and not end["phi"].any()  # seasonal naive fits nothing
        for ts, fc in zip(table.rows["series"], end["fc"]):
            head = ts.head(len(ts) - config.horizon)
            assert fc.tobytes() == seasonal_naive_forecast(head, config.horizon).tobytes()
        # (length, period) groups (90, 12) x3, (90, 4) x2, (70, 12) x1 and (70, 4) x2.
        assert sorted(gathers) == [1, 1, 2, 2, 2]

    def test_a_failed_end_fit_skips_only_its_series(self, monkeypatch):
        # A stacked solve that raises is redone series by series: the error
        # becomes the skip reason of its own series for every method that
        # needs the model, and the other series are evaluated as without it.
        monkeypatch.setattr(forecaster, "_STACK_BLOCK", 4)
        fit_ar_prefixes = forecaster._fit_ar_prefixes

        def failing(values, *args):
            if np.any(values[:, 0] == 99.0):
                raise np.linalg.LinAlgError("Singular matrix")
            return fit_ar_prefixes(values, *args)

        monkeypatch.setattr(forecaster, "_fit_ar_prefixes", failing)
        panel = small_panel()
        bad = panel.series[0]
        values = bad.values.copy()
        values[0] = 99.0
        bad = TimeSeries("bad", bad.timestamps, values, bad.period)
        config = small_config(methods=("parametric", "global_cp", "mscp"), alpha=0.5)
        with_bad = run_benchmark(config, panel=SeriesPanel(panel.series + (bad,)))
        without = run_benchmark(config, panel=panel)
        assert with_bad.records == without.records
        assert [s for s in with_bad.skips if s[0] == "bad"] == [
            ("bad", m, "Singular matrix") for m in ("global_cp", "mscp", "parametric")
        ]

    def test_overflowing_fits_skip_every_method_with_the_fit_message(self):
        # Values near 1e155 overflow the AR cross-products. The fit raises
        # instead of handing NaN coefficients on, so that no method scores
        # a series and every skip names the failed fit. Under the test
        # suite's error::RuntimeWarning filter this also shows that no numpy
        # warning escapes the run.
        panel = SeriesPanel(tuple(dataclasses.replace(ts, values=1e155 * ts.values) for ts in small_panel(n=4)))
        config = BenchConfig()
        message = "auto_ar fit is not finite: the series' scale overflows the least-squares solve"
        table, skips = bench._prefix_table(panel, config)
        results = {method: run_method(config, table, method) for method in config.methods}
        with pytest.raises(NothingEvaluableError, match="auto_ar fit is not finite"):
            run_benchmark(config, panel=panel)
        assert len(table.rows["series"]) == 4 and not skips
        for method, out in results.items():
            assert out == dict.fromkeys(panel.ids, message), method

    def test_unconverged_spci_fit_skips_only_spci(self, monkeypatch):
        # With the Newton cap at 1 no quantile regression converges: the
        # stacked solve raises, each series is redone alone and keeps the
        # solver's message as its spci skip reason, and mscp scores them all.
        monkeypatch.setattr(quantreg, "_NEWTON_CAP", 1)
        panel = small_panel(n=4)
        report = run_benchmark(small_config(methods=("spci", "mscp")), panel=panel)
        assert report.summaries["mscp"].n_series == 4
        assert "spci" not in report.summaries
        assert [s[:2] for s in report.skips] == [(sid, "spci") for sid in panel.ids]
        assert all("did not converge in 1 Newton steps" in s[2] for s in report.skips)

    def test_acmcp_stacks_one_score_model_call_per_horizon(self, monkeypatch):
        # 12 equal-length series and H = 4: one stack of 48 trackers, and in
        # it one stacked score-model call of 12 streams per horizon. A 13th
        # series whose forecast fails keeps the forecast's message as its
        # skip reason and leaves the block's other series scored as without it.
        calls, runs = [], []
        score_model, run_stacked = online._score_model, bench.acmcp_run_stacked

        def spy(scores, first, h, sums):
            calls.append(len(scores))
            return score_model(scores, first, h, sums)

        def spy_run(states, *args):
            runs.append(sorted({state.h for state in states}))
            return run_stacked(states, *args)

        prefix_forecasts = bench._prefix_forecasts

        def failing(values, *args):
            if np.any(values[:, 0] == 99.0):
                raise ValueError("forecast failed")
            return prefix_forecasts(values, *args)

        panel = small_panel(n=12)
        bad = panel.series[0]
        bad = TimeSeries("bad", bad.timestamps, np.r_[99.0, bad.values[1:]], bad.period)
        config = small_config(methods=("acmcp",), horizon=4)
        without = run_benchmark(config, panel=panel)
        monkeypatch.setattr(online, "_score_model", spy)
        monkeypatch.setattr(bench, "acmcp_run_stacked", spy_run)
        monkeypatch.setattr(bench, "_prefix_forecasts", failing)
        with_bad = run_benchmark(config, panel=SeriesPanel(panel.series + (bad,)))
        assert calls == [12] * 4
        assert runs == [[1, 2, 3, 4]]
        assert with_bad.skips == (("bad", "acmcp", "forecast failed"),)
        assert with_bad.records == without.records and len(without.records) == 12

    def test_a_default_acmcp_block_solves_each_horizon_in_one_chunk(self):
        # A full block of the default config (cal_len 36, H 12) holds each
        # horizon's score-model design in one solve under the cell budget.
        config = BenchConfig()
        for h in range(1, config.horizon + 1):
            m = config.cal_len - h + 1
            burn = max(5, min(10, m // 3))
            plan = online._design(burn, m, h)
            assert plan is None or plan[2].size * forecaster._STACK_BLOCK <= online._CELL_BUDGET

    def test_a_failure_every_series_shares_is_not_retried(self, monkeypatch):
        # At cal_len 5 no horizon-6 residual exists and every stream is too
        # short: each method's block fails as every one of its series would
        # alone. Blocks of 4: each method solves its 3 blocks once each, with
        # no retry one series at a time, and every series keeps the message
        # it gets alone.
        monkeypatch.setattr(forecaster, "_STACK_BLOCK", 4)
        solves = []
        in_blocks = bench._in_blocks

        def counting(keys, solve):
            sizes = []
            solves.append(sizes)
            return in_blocks(keys, lambda block: (sizes.append(len(block)), solve(block))[1])

        monkeypatch.setattr(bench, "_in_blocks", counting)
        panel = small_panel(n=10)
        methods = ("mscp", "aci", "acmcp", "spci")
        with pytest.raises(NothingEvaluableError):
            run_benchmark(small_config(methods=methods, cal_len=5), panel=panel)
        _, *method_solves = solves  # the first call builds the prefix table
        assert [sorted(sizes) for sizes in method_solves] == [[2, 4, 4]] * len(methods)
        table, _ = bench._prefix_table(panel, small_config(methods=methods, cal_len=5))
        messages = {
            "mscp": "residual column for horizon 6 is empty",
            "aci": "aci_interval requires a nonempty score pool",
            "acmcp": "horizon 1 stream too short to warm a tracker: 5",
            "spci": "residual history too short: need >= 18, have 5",
        }
        for method, message in messages.items():
            config = small_config(methods=(method,), cal_len=5)
            assert run_method(config, table, method) == dict.fromkeys(panel.ids, message)
            # A block of one series, as a series alone, gives the same message.
            monkeypatch.setattr(forecaster, "_STACK_BLOCK", 1)
            assert run_method(config, table, method) == dict.fromkeys(panel.ids, message)
            monkeypatch.setattr(forecaster, "_STACK_BLOCK", 4)

    @pytest.mark.parametrize(
        "method, solver",
        [("cv_cp", "_cv_bounds"), ("spci", "_spci_bounds"), ("acmcp", "acmcp_run_stacked")],
    )
    def test_an_invalid_row_skips_only_its_series(self, monkeypatch, method, solver):
        # One series' forecast is NaN, so its bounds are: it alone skips,
        # with IntervalMatrix's message. The block is solved once, with no
        # retry one series at a time, and every other series gets bit for
        # bit what it gets as a block of its own.
        config = small_config(methods=(method,))
        table, _ = bench._prefix_table(small_panel(n=4), config)
        end = table.rows["end"].copy()
        end["fc"][1] = np.nan
        table = table._replace(rows=table.rows | {"end": end})
        alone = {}
        for i in range(len(table.rows["series"])):
            alone |= run_method(config, table_rows(table, [i]), method)
        calls = []
        solve = getattr(bench, solver)

        def spy(*args):
            calls.append(len(args[0]))
            return solve(*args)

        monkeypatch.setattr(bench, solver, spy)
        out = run_method(config, table, method)
        assert len(calls) == 1
        bad = table.rows["series"][1].series_id
        assert out[bad] == alone[bad] == "interval bound is NaN"
        assert out.keys() == alone.keys() and len(out) == 4
        for sid in out.keys() - {bad}:
            assert out[sid].lower.tobytes() == alone[sid].lower.tobytes(), sid
            assert out[sid].upper.tobytes() == alone[sid].upper.tobytes(), sid

    def test_enbpi_alone_fits_no_end_model(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a series-end model was fitted")

        monkeypatch.setattr(bench, "_prefix_forecasts", refuse)
        report = run_benchmark(small_config(methods=("enbpi",)), panel=small_panel(n=3))
        assert report.summaries["enbpi"].n_series == 3

    def test_stack_composition_does_not_change_records(self, monkeypatch):
        # Blocks of 2 against 64, with the methods in another order, stack
        # and evaluate the series differently; the records are the same.
        series = two_length_series(5)
        panel = SeriesPanel(tuple(series))
        methods = ("global_cp", "parametric", "cv_cp", "mscp")
        reports = []
        for block, order in ((64, methods), (2, methods[::-1])):
            monkeypatch.setattr(forecaster, "_STACK_BLOCK", block)
            reports.append(run_benchmark(small_config(methods=order, alpha=0.5), panel=panel))
        assert {r.method for r in reports[0].records} == set(methods)
        assert reports[0].records == reports[1].records
        assert reports[0].skips == reports[1].skips

    def test_each_series_forecast_once(self, monkeypatch):
        # Every head is forecast once, as the end row of the prefix table's
        # stacked forecast; no lone forecast call forecasts it again.
        rows = []
        prefix_forecasts = bench._prefix_forecasts

        def counting_table(values, ends, *args):
            rows.extend(values.shape[1] for _ in values for T in ends if T == values.shape[1])
            return prefix_forecasts(values, ends, *args)

        def counting_forecast(model, history, horizon):
            rows.append(len(history))
            return forecast(model, history, horizon)

        monkeypatch.setattr(bench, "_prefix_forecasts", counting_table)
        monkeypatch.setattr(bench, "forecast", counting_forecast)
        monkeypatch.setattr(conformal, "forecast", counting_forecast)
        config = small_config(methods=("global_cp", "parametric"))
        report = run_benchmark(config, panel=small_panel())
        assert report.summaries["parametric"].n_series == 6
        assert rows == [90 - 6] * 6

    def test_enbpi_makes_no_lone_enbpi_call(self, monkeypatch):
        # Three series of one length and period: one stacked call, and no
        # enbpi_intervals call for any series.
        calls = []
        stacked = bench._enbpi_bounds

        def counting(series, *args):
            calls.append(len(series))
            return stacked(series, *args)

        def refuse(*args):
            raise AssertionError("a series went through the lone enbpi_intervals")

        monkeypatch.setattr(bench, "_enbpi_bounds", counting)
        monkeypatch.setattr(bench, "enbpi_intervals", refuse)
        monkeypatch.setattr(conformal, "enbpi_intervals", refuse)
        report = run_benchmark(small_config(methods=("enbpi",)), panel=small_panel(n=3))
        assert report.summaries["enbpi"].n_series == 3
        assert calls == [3]

    def test_enbpi_under_seasonal_naive_draws_nothing(self, monkeypatch):
        # The forecaster is checked before any block is drawn or solved.
        def refuse(*args):
            raise AssertionError("an EnbPI block was solved under seasonal naive")

        monkeypatch.setattr(bench, "_enbpi_bounds", refuse)
        config = small_config(methods=("enbpi", "mscp"), forecaster=ForecasterSpec(kind="seasonal_naive"))
        report = run_benchmark(config, panel=small_panel(n=3))
        reasons = [s[2] for s in report.skips if s[1] == "enbpi"]
        assert reasons == ["EnbPI ensembles require an autoregressive forecaster"] * 3

    def test_enbpi_skipped_under_seasonal_naive(self):
        config = small_config(
            methods=("enbpi", "mscp"), forecaster=ForecasterSpec(kind="seasonal_naive")
        )
        report = run_benchmark(config, panel=small_panel(n=3))
        assert "enbpi" not in report.summaries
        reasons = {s[2] for s in report.skips if s[1] == "enbpi"}
        assert reasons == {"EnbPI ensembles require an autoregressive forecaster"}
        assert report.summaries["mscp"].n_series == 3

    def test_parametric_skipped_under_seasonal_naive(self):
        config = small_config(methods=("parametric", "mscp"), forecaster=ForecasterSpec(kind="seasonal_naive"))
        report = run_benchmark(config, panel=small_panel(n=3))
        assert "parametric" not in report.summaries
        reasons = [s[2] for s in report.skips if s[1] == "parametric"]
        assert reasons == ["parametric intervals require an autoregressive forecaster"] * 3
        assert report.summaries["mscp"].n_series == 3

    def test_a_forecaster_the_method_cannot_wrap_fails_each_block_once(self, monkeypatch):
        # Under seasonal naive, enbpi's and parametric's blocks fail on the
        # forecaster alone, which all their series share: blocks of 4 over
        # 10 series, each solved once, with no retry one series at a time.
        monkeypatch.setattr(forecaster, "_STACK_BLOCK", 4)
        solves = []
        in_blocks = bench._in_blocks

        def counting(keys, solve):
            sizes = []
            solves.append(sizes)
            return in_blocks(keys, lambda block: (sizes.append(len(block)), solve(block))[1])

        monkeypatch.setattr(bench, "_in_blocks", counting)
        config = small_config(methods=("enbpi", "parametric", "mscp"), forecaster=ForecasterSpec(kind="seasonal_naive"))
        report = run_benchmark(config, panel=small_panel(n=10))
        # The prefix table's blocks, then each method's.
        assert [sorted(sizes) for sizes in solves] == [[2, 4, 4]] * 4
        assert report.summaries["mscp"].n_series == 10
        assert {s[1:] for s in report.skips} == {
            ("enbpi", "EnbPI ensembles require an autoregressive forecaster"),
            ("parametric", "parametric intervals require an autoregressive forecaster"),
        }
        assert len(report.skips) == 20

    def test_runs_from_a_csv_without_the_names_numpy_2_added(self, tmp_path, hide_numpy_2_names):
        """Parsing and every method's stacked path run on numpy 1.x names."""
        path = tmp_path / "panel.csv"
        write_panel_csv(small_panel(n=4, length=110), str(path))
        config = small_config(methods=bench.METHODS, data=str(path), period=1)
        want = run_benchmark(config)
        hide_numpy_2_names()
        got = run_benchmark(config)
        assert set(got.summaries) == set(bench.METHODS)
        assert got.records == want.records and got.skips == want.skips

    def test_short_series_skipped_with_reason(self):
        from ctsbench.series import SeriesPanel, TimeSeries

        short = TimeSeries(
            "tiny", np.arange(1, 21, dtype=np.int64), np.random.default_rng(0).standard_normal(20), 12, "int"
        )
        panel = SeriesPanel(tuple(small_panel(n=2).series) + (short,))
        report = run_benchmark(small_config(), panel=panel)
        skipped_ids = {s[0] for s in report.skips}
        assert "tiny" in skipped_ids
        assert report.metadata["n_series_evaluated"] == 2

    def test_missing_data_source_rejected(self):
        from ctsbench.series import PanelError

        with pytest.raises(PanelError, match="data"):
            run_benchmark(small_config())

    def test_unreadable_file_rejected(self):
        from ctsbench.series import PanelError

        with pytest.raises(PanelError, match="cannot read"):
            run_benchmark(small_config(data="/nonexistent/panel.csv"))


class TestEnbpiBlocks:
    """bench's EnbPI blocks against the lone enbpi_intervals of each series."""

    @pytest.mark.parametrize("block", [2, 64])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("window", [10, 100])
    def test_stacked_intervals_are_the_lone_ones(self, monkeypatch, block, reverse, window):
        # Two lengths and two periods make four blocks; five members a
        # series at _STACK_BLOCK 2 put members of two series in one solve.
        monkeypatch.setattr(forecaster, "_STACK_BLOCK", block)
        series = two_length_series(4)
        series += [dataclasses.replace(ts, series_id=f"p{ts.series_id}", period=4) for ts in series[::2]]
        panel = SeriesPanel(tuple(series))
        config = small_config(methods=("enbpi",), enbpi_members=5, enbpi_window=window)
        table, skips = bench._prefix_table(panel, config)
        assert len(table.rows["series"]) == len(series) and not skips
        assert len({(len(ts), ts.period) for ts in series}) == 4
        rows = np.arange(len(series))
        out = run_method(config, table_rows(table, rows[::-1] if reverse else rows), "enbpi")
        assert len(out) == len(series)
        for ts in series:
            spec = EnsembleSpec(B=5, window_len=window, seed=series_seed(config.seed, ts.series_id))
            alone = enbpi_intervals(ts, config.horizon, spec, config.forecaster, config.alpha)
            got = out[ts.series_id]
            assert got.lower.tobytes() == alone.lower.tobytes(), ts.series_id
            assert got.upper.tobytes() == alone.upper.tobytes(), ts.series_id

    def test_a_failed_member_fit_skips_only_its_series(self, monkeypatch):
        # A block whose member solve raises is redone one series at a time.
        panel = small_panel(n=4)
        config = small_config(methods=("enbpi",), enbpi_members=5)
        before = run_benchmark(config, panel=panel)
        bad = panel.series[1].values[:84]
        fit_ar_prefixes = conformal._fit_ar_prefixes

        def failing(values, *args):
            if any(np.isin(row, bad).all() for row in values):
                raise ValueError("member solve failed")
            return fit_ar_prefixes(values, *args)

        monkeypatch.setattr(conformal, "_fit_ar_prefixes", failing)
        after = run_benchmark(config, panel=panel)
        sid = panel.series[1].series_id
        assert after.skips == ((sid, "enbpi", "member solve failed"),)
        assert after.records == tuple(r for r in before.records if r.series_id != sid)


class TestPrefixTable:
    """The run's one prefix table against the lone public builds of each row."""

    @pytest.mark.parametrize("block", [2, 64])
    @pytest.mark.parametrize("refit_every", [1, 3, None])
    @pytest.mark.parametrize("train_len", [None, 30])
    @pytest.mark.parametrize("spec", [ForecasterSpec(), ForecasterSpec("seasonal_naive")])
    @pytest.mark.parametrize("n_windows", [2, 11])
    def test_rows_are_the_lone_builds(self, monkeypatch, block, refit_every, train_len, spec, n_windows):
        # Two head lengths; with train_len set the calibration segment
        # starts inside the head, so its rows are prefixes of a shifted stack.
        # Two windows admit both heads, each at its own first cutoff. Eleven
        # windows of 6 leave a head of 84 points its first cutoff at 18, and
        # a head of 64 none: its backtest row is the lone call's message.
        monkeypatch.setattr(forecaster, "_STACK_BLOCK", block)
        panel = SeriesPanel(tuple(two_length_series(4)))
        config = small_config(
            methods=bench.METHODS, forecaster=spec, refit_every=refit_every, train_len=train_len, alpha=0.5,
            n_windows=n_windows,
        )
        table, skips = bench._prefix_table(panel, config)
        assert len(table.rows["series"]) == 7 and not skips
        H = config.horizon
        cv = run_method(config, table, "cv_cp")
        end = table.rows["end"]
        for i, series in enumerate(table.rows["series"]):
            sid = series.series_id
            head = series.head(len(series) - H)
            split = SplitSpec(train_len or len(series) - config.cal_len - H, config.cal_len, H)
            signed_row = table.rows["signed"][i]
            for signed, matrix in ((True, signed_row), (False, np.abs(signed_row))):
                alone = build_residual_matrix(series, split, spec, H, refit_every, signed=signed)
                assert matrix.shape == alone.matrix.shape, sid
                assert matrix.tobytes() == alone.matrix.tobytes(), (sid, signed)
            if spec.kind == "auto_ar":
                model = fit_auto_ar(head.values, spec)
                assert_end_fit(end[i], model, sid)
                fc = forecast(model, head, H)
            else:
                assert not end["order"][i] and not end["phi"][i].any()
                fc = seasonal_naive_forecast(head, H)
            assert end["fc"][i].tobytes() == fc.tobytes(), sid
            alone = conformal.cv_conformal_intervals({sid: fc}, [head], config.n_windows, spec, config.alpha)[sid]
            if len(head) == 64 and n_windows == 11:
                message = f"series {sid!r} admits no 11-window backtest at horizon 6"
                assert table.faults["backtest"][i] == cv[sid] == alone == message
                continue
            assert cv[sid].lower.tobytes() == alone.lower.tobytes(), sid
            assert cv[sid].upper.tobytes() == alone.upper.tobytes(), sid

    def test_residual_rows_are_read_only(self):
        # Every method reads the same rows, so none may write to them.
        config = small_config(methods=("mscp", "cv_cp"))
        table, _ = bench._prefix_table(SeriesPanel(tuple(two_length_series(4))), config)
        assert len(table.rows["series"]) == 7
        for kind in ("signed", "backtest"):
            rows = table.rows[kind]
            assert isinstance(rows, np.ndarray) and not rows.flags.writeable, kind
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0, 0] = 0.0
        for rows in (table.rows["truth"], table.rows["end"], table.rows["series"]):
            assert not rows.flags.writeable

    def test_the_first_failed_read_is_the_skip_reason(self, monkeypatch):
        # A series whose end and calibration solves both fail, each with its
        # own message: mscp reads the end first, so it skips with the end's
        # message; cv_cp, which reads no calibration row, skips the same way.
        config = small_config(methods=("mscp", "cv_cp"), refit_every=None)
        panel = small_panel()
        bad = panel.series[0]
        bad = TimeSeries("bad", bad.timestamps, np.r_[99.0, bad.values[1:]], bad.period)
        fit_ar_prefixes = forecaster._fit_ar_prefixes

        def failing_solve(values, ends, *args):
            if np.any(values[:, 0] == 99.0):
                # Heads of 84 points: the end is 84 and the calibration fit is at 60.
                for end, kind in ((84, "end"), (60, "signed")):
                    if end in np.asarray(ends):
                        raise np.linalg.LinAlgError(f"{kind} solve failed")
            return fit_ar_prefixes(values, ends, *args)

        monkeypatch.setattr(forecaster, "_fit_ar_prefixes", failing_solve)
        table, _ = bench._prefix_table(SeriesPanel(panel.series + (bad,)), config)
        (row,) = [i for i, ts in enumerate(table.rows["series"]) if ts.series_id == "bad"]
        assert (table.faults["end"][row], table.faults["signed"][row]) == ("end solve failed", "signed solve failed")
        assert table.failures(("signed", "end"))[row] == "signed solve failed"
        assert run_method(config, table, "mscp")["bad"] == "end solve failed"
        assert run_method(config, table, "cv_cp")["bad"] == "end solve failed"

    def test_a_run_without_calibration_methods_fits_no_calibration_prefix(self, monkeypatch):
        # global_cp, parametric and cv_cp read only the end and the backtest:
        # each block's one solve fits the cutoffs n - 2H, n - H and the end n.
        calls = []
        fit_ar_prefixes = forecaster._fit_ar_prefixes

        def spy(values, ends, *args):
            calls.append((values.shape[1], sorted(np.asarray(ends).tolist())))
            return fit_ar_prefixes(values, ends, *args)

        monkeypatch.setattr(forecaster, "_fit_ar_prefixes", spy)
        config = small_config(methods=("global_cp", "parametric", "cv_cp"))
        report = run_benchmark(config, panel=SeriesPanel(tuple(two_length_series(4))))
        assert report.summaries["cv_cp"].n_series == 7
        H = config.horizon
        assert sorted(calls) == [(n, [n - 2 * H, n - H, n]) for n in (64, 84)]

    @pytest.mark.parametrize(
        "failing, skipped",
        [
            ("end", ("aci", "cv_cp", "mscp", "parametric")),
            ("signed", ("aci", "mscp")),
            ("backtest", ("cv_cp",)),
        ],
    )
    def test_a_failed_kind_keeps_its_own_skip_reason(self, monkeypatch, failing, skipped):
        # A series whose union solve raises is redone alone and then once
        # per kind: only the methods that read the failing kind skip it, with
        # that solve's message, and the other series and methods are scored
        # as without the failure.
        config = small_config(methods=("mscp", "aci", "parametric", "cv_cp"), refit_every=None, alpha=0.5)
        panel = small_panel()
        bad = panel.series[0]
        bad = TimeSeries("bad", bad.timestamps, np.r_[99.0, bad.values[1:]], bad.period)
        panel = SeriesPanel(panel.series + (bad,))
        before = run_benchmark(config, panel=panel)
        # Heads of 84 points, H = 6: the calibration segment's one fit is at
        # its first origin 60, the cutoffs are 72 and 78.
        fails_at = {"end": 84, "signed": 60, "backtest": 72}[failing]
        fit_ar_prefixes = forecaster._fit_ar_prefixes

        def failing_solve(values, ends, *args):
            if np.any(values[:, 0] == 99.0) and fails_at in np.asarray(ends):
                raise np.linalg.LinAlgError(f"{failing} solve failed")
            return fit_ar_prefixes(values, ends, *args)

        monkeypatch.setattr(forecaster, "_fit_ar_prefixes", failing_solve)
        after = run_benchmark(config, panel=panel)
        assert after.skips == tuple(("bad", m, f"{failing} solve failed") for m in skipped)
        lost = {("bad", m) for m in skipped}
        assert after.records == tuple(r for r in before.records if (r.series_id, r.method) not in lost)


    def test_seasonal_cutoffs_shorter_than_the_period_cost_no_solve(self, monkeypatch):
        # Heads of 74 points, H = 6 and 10 windows: the first cv_cp cutoff,
        # 14, is shorter than the period 24, for every series of the block.
        # The table gives the backtest kind its message when it plans the
        # block and makes every other row in one call; without that check
        # the block, each series and then each kind of it are tried in turn.
        panel = SeriesPanel(tuple(generate_synthetic(SyntheticSpec(n_series=8, length=80, period=24, seed=4))))
        config = small_config(
            methods=("mscp", "aci", "cv_cp"), n_windows=10, forecaster=ForecasterSpec("seasonal_naive")
        )
        calls = []
        prefix_forecasts = bench._prefix_forecasts

        def counting(*args):
            calls.append(1)
            return prefix_forecasts(*args)

        monkeypatch.setattr(bench, "_prefix_forecasts", counting)
        planned = run_benchmark(config, panel=panel)
        assert len(calls) == 1
        calls.clear()
        monkeypatch.setattr(bench, "_check_seasonal_ends", lambda ends, period: None)
        retried = run_benchmark(config, panel=panel)
        assert len(calls) == 1 + 8 + 8 * 3
        message = "seasonal naive needs at least one full period: 14 < 24"
        assert planned.skips == retried.skips == tuple((ts.series_id, "cv_cp", message) for ts in panel)
        assert planned.records == retried.records and len(planned.records) == 16


class TestArraySkips:
    """A ragged panel with a row failing in each way a row can, run through
    the prefix table's arrays by all eight methods."""

    H, N_WINDOWS = 6, 11

    @staticmethod
    def explosive_fits(monkeypatch):
        """Make the solver fail at the end of a head starting at 99.0, and
        fit an explosive AR(2), 1e200 y[t-1] - 1e200 y[t-2], at the end of a
        head starting at 77.0, whose psi weights overflow to inf - inf."""
        fit_ar_prefixes = forecaster._fit_ar_prefixes

        def patched(values, ends, *args):
            n, ends = values.shape[1], np.asarray(ends)
            if np.any(values[:, 0] == 99.0) and n in ends:
                raise np.linalg.LinAlgError("end solve failed")
            fits = fit_ar_prefixes(values, ends, *args)
            rows, at = np.flatnonzero(values[:, 0] == 77.0)[:, None], np.flatnonzero(ends == n)
            if rows.size and at.size:
                order, intercept, phi, sigma2, aics = (a.copy() for a in fits)
                order[rows, at], intercept[rows, at], sigma2[rows, at] = 2, 0.0, 1.0
                phi[rows, at] = np.r_[1e200, -1e200, np.zeros(phi.shape[2] - 2)]
                fits = forecaster._PrefixFits(order, intercept, phi, sigma2, aics)
            return fits

        monkeypatch.setattr(forecaster, "_fit_ar_prefixes", patched)

    def panel(self):
        base = small_panel(n=6).series
        explosive = base[0].values.copy()
        explosive[0] = 77.0
        explosive[-self.H - 2 :][:2] = 0.0  # the head ends in two zeros, so its explosive forecast stays 0
        failing = np.r_[99.0, base[1].values[1:]]
        stamps = np.arange(1, 91, dtype=np.int64)
        return SeriesPanel(base + (
            TimeSeries("explosive", stamps, explosive, 12),
            TimeSeries("failing", stamps, failing, 12),
            dataclasses.replace(small_panel(n=1, seed=3, length=70).series[0], series_id="short"),  # no 11-window backtest
            dataclasses.replace(small_panel(n=1, seed=4, length=20).series[0], series_id="tiny"),  # too short to evaluate
        ))

    def test_report_bytes_do_not_depend_on_the_block_and_skips_are_the_lone_messages(self, monkeypatch, tmp_path):
        self.explosive_fits(monkeypatch)
        panel = self.panel()
        config = small_config(methods=bench.METHODS, n_windows=self.N_WINDOWS, enbpi_members=5, alpha=0.5)
        payloads, reports = [], []
        for block in (1, 2, 64):
            monkeypatch.setattr(forecaster, "_STACK_BLOCK", block)
            reports.append(run_benchmark(config, panel=panel))
            emit_reports(reports[-1], str(tmp_path / str(block)))
            payloads.append(_payload(tmp_path / str(block)))
        assert payloads[0] == payloads[1] == payloads[2]
        skips = {(sid, m): reason for sid, m, reason in reports[0].skips}
        # The cohort is the first four of the eight series that pool, in panel order.
        assert {sid for sid, _ in skips} == {"explosive", "failing", "short", "tiny", "s0000", "s0001", "s0002"}
        assert all(skips["tiny", m].startswith("series too short: 20 observations") for m in bench.METHODS)
        # Every other skip is the message of the lone public call that fails, and only those skip.
        H, spec, alpha = self.H, config.forecaster, config.alpha
        heads = {ts.series_id: ts.head(len(ts) - H) for ts in panel if ts.series_id != "tiny"}
        pooled = {sid: forecast(fit_auto_ar(head.values, spec), head, H) for sid, head in heads.items() if sid != "failing"}
        cohort = SeriesPanel(tuple(panel[sid] for sid in pooled))
        calibration = global_cp_intervals(cohort, config.cohort_split, pooled, alpha, H).calibration_ids

        def lone_message(sid, method):
            ts, head = panel[sid], heads[sid]
            if method == "enbpi":
                spec_b = EnsembleSpec(B=5, window_len=config.enbpi_window, seed=series_seed(config.seed, sid))
                enbpi_intervals(ts, H, spec_b, spec, alpha)
                return None
            try:
                model = fit_auto_ar(head.values, spec)
            except ValueError as e:
                return str(e)
            fc = forecast(model, head, H)
            if method == "global_cp":
                return "spent as pooled calibration cohort" if sid in calibration else None
            if method == "parametric":
                try:
                    parametric_intervals(model, fc, alpha)
                except ValueError as e:
                    return str(e)
            if method == "cv_cp":
                out = conformal.cv_conformal_intervals({sid: fc}, [head], self.N_WINDOWS, spec, alpha)[sid]
                return out if isinstance(out, str) else None
            return None

        for sid in heads:
            for method in bench.METHODS:
                assert skips.get((sid, method)) == lone_message(sid, method), (sid, method)
        assert skips["explosive", "parametric"] == "interval bound is NaN"
        assert skips["short", "cv_cp"] == "series 'short' admits no 11-window backtest at horizon 6"
        assert [m for m in bench.METHODS if ("failing", m) in skips] == [m for m in bench.METHODS if m != "enbpi"]
        assert {skips["failing", m] for m in bench.METHODS if m != "enbpi"} == {"end solve failed"}


def _aci_radius_reference(alpha_t, pool):
    """ACI's radius at level 1 - alpha_t, written out: the whole line at a
    level >= 1, zero at a level <= 0, else the ceil(level * (n+1))-th
    smallest of the n pooled scores by a plain sort (+inf past n)."""
    level = 1.0 - alpha_t
    if level >= 1.0:
        return math.inf
    if level <= 0.0:
        return 0.0
    k = math.ceil(level * (len(pool) + 1))
    return math.inf if k > len(pool) else sorted(pool)[k - 1]


def _aci_warmup_reference(scores, alpha, gamma):
    """The warm-up loop step by step: the radius of the grown pool per step,
    then alpha_t += gamma * (alpha - err)."""
    alpha_t = alpha
    pool = [float(scores[0])]
    warmup_errs = 0
    for s in scores[1:]:
        err = 0 if s <= _aci_radius_reference(alpha_t, pool) else 1
        warmup_errs += err
        alpha_t = alpha_t + gamma * (alpha - err)
        pool.append(float(s))
    return alpha_t, warmup_errs


class TestAciWarmup:
    @given(
        st.integers(2, 60).flatmap(
            lambda m: st.lists(
                st.lists(st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1.0, 2.0])), min_size=m, max_size=m),
                min_size=1,
                max_size=4,
            )
        ),
        st.sampled_from([0.05, 0.1, 0.2]),
        st.sampled_from([0.005, 0.01, 0.05, 0.3, 1.0]),
    )
    # four covers lift alpha_t to 1 (radius 0), a miss drops it, another takes it below 0
    @example(streams=[[5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 10.0, 20.0]], alpha=0.2, gamma=1.0)
    @example(
        streams=[[5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 10.0, 20.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]],
        alpha=0.2,
        gamma=1.0,
    )
    def test_matches_per_step_reference(self, streams, alpha, gamma):
        # A block of equal-length h=1 streams warmed at once: each row is
        # its stream's per-step reference.
        stream = np.array(streams).T  # (R, S)
        config = BenchConfig(alpha=alpha, gamma=gamma, horizon=1)
        end = bench._end_rows(len(streams), config)
        end["fc"] = fc = 5.0 + np.arange(len(streams), dtype=np.float64)[:, None]
        lower, upper, faults = bench._aci(config, end, stream.T[:, :, None])
        assert faults == [None] * len(streams)
        levels = bench._aci_warmup(stream, alpha, gamma)
        for i, scores in enumerate(streams):
            alpha_t, _ = _aci_warmup_reference(scores, alpha, gamma)
            assert levels[i] == alpha_t
            radius = _aci_radius_reference(alpha_t, scores)
            assert (lower[i, 0], upper[i, 0]) == (fc[i, 0] - radius, fc[i, 0] + radius)


def _payload(out_dir: Path) -> bytes:
    """summary.json without metadata, then metrics.csv: the bytes a run must repeat."""
    summary = json.loads((out_dir / "summary.json").read_text())
    summary.pop("metadata")
    metrics = (out_dir / "metrics.csv").read_bytes()
    return json.dumps(summary, sort_keys=True).encode() + b"\n" + metrics


class TestCsvRowOrder:
    @settings(max_examples=8, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_shuffled_rows_same_payload(self, rnd):
        methods = ("mscp", "aci", "acmcp", "global_cp")
        text = bench.serialize_panel(small_panel(n=4, length=70))
        header, *rows = text.splitlines(keepends=True)
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        payloads = []
        with tempfile.TemporaryDirectory() as tmp:
            for i, lines in enumerate((rows, shuffled)):
                data = Path(tmp) / f"panel{i}.csv"
                data.write_text(header + "".join(lines))
                report = run_benchmark(small_config(methods=methods, data=str(data)))
                assert {r.method for r in report.records} == set(methods)
                emit_reports(report, str(Path(tmp) / f"out{i}"))
                payloads.append(_payload(Path(tmp) / f"out{i}"))
        assert payloads[0] == payloads[1]


class TestReports:
    def test_emits_four_artifacts(self, tmp_path):
        report = run_benchmark(small_config(), panel=small_panel())
        out = tmp_path / "reports"
        paths = emit_reports(report, str(out))
        assert sorted(paths) == ["cd", "coverage", "metrics", "summary"]
        with open(paths["metrics"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["series", "method", "coverage", "width", "winkler"]
        assert len(rows) == 1 + len(report.records)
        payload = json.loads((out / "summary.json").read_text())
        assert set(payload) == {"methods", "friedman", "posthoc", "skips", "metadata"}
        for name in ("coverage.svg", "cd.svg"):
            ET.fromstring((out / name).read_text())

    def test_coverage_svg_has_target_line(self, tmp_path):
        report = run_benchmark(small_config(), panel=small_panel())
        emit_reports(report, str(tmp_path / "r"))
        svg = (tmp_path / "r" / "coverage.svg").read_text()
        root = ET.fromstring(svg)
        lines = [e for e in root.iter() if e.get("class") == "target-line"]
        assert len(lines) == 1
        assert lines[0].get("data-value") == "0.900000"

    def test_output_error_wrapped(self, tmp_path):
        from ctsbench.bench import BenchOutputError

        report = run_benchmark(small_config(), panel=small_panel())
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        with pytest.raises(BenchOutputError, match="cannot write"):
            emit_reports(report, str(blocker / "sub"))

    def test_metrics_csv_round_trips_floats(self, tmp_path):
        report = run_benchmark(small_config(), panel=small_panel())
        paths = emit_reports(report, str(tmp_path / "r"))
        with open(paths["metrics"]) as fh:
            rows = list(csv.reader(fh))[1:]
        by_key = {(r.series_id, r.method): r for r in report.records}
        for sid, method, cov, width, wink in rows:
            rec = by_key[(sid, method)]
            assert float(cov) == rec.marginal_coverage
            assert float(width) == rec.mean_width
            assert float(wink) == rec.winkler


class TestCli:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_synth_then_run(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        rc = self.run_cli(
            "synth", "--generator", "ar1", "--n", "6", "--len", "90",
            "--seed", "2", "--out", str(data),
        )
        assert rc == 0
        panel = parse_panel(data.read_text(), period=12)
        assert len(panel) == 6

        out = tmp_path / "reports"
        rc = self.run_cli(
            "run", "--data", str(data), "--horizon", "6",
            "--methods", "mscp,parametric", "--out", str(out), "--seed", "1",
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "mscp" in captured and "reports written to" in captured
        assert (out / "metrics.csv").exists()

    def test_config_file_drives_run(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_panel_csv(small_panel(), str(data))
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            f"data = {data}\nhorizon = 6\nmethods = mscp, cv_cp\nout = {tmp_path/'r'}\n"
        )
        assert self.run_cli("run", "--config", str(cfg)) == 0
        assert "cv_cp" in capsys.readouterr().out

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert self.run_cli("run", "--config", str(cfg)) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, match",
        [
            ("refit_every = 0", "refit_every"),
            ("gamma = -1", "gamma"),
            ("gamma = nan", "gamma"),
            ("gamma = inf", "gamma"),
            ("n_windows = 0", "n_windows"),
            ("enbpi_members = 1", "B must be"),
            ("enbpi_window = 0", "window_len"),
            ("spci_lags = 0", "lag_count"),
            ("cohort_split = 1.5", "cohort_split"),
            ("include_drift = ture", "include_drift"),
            ("period = 0", "period"),
            ("train_len = 0", "train_len"),
            ("parallelism = 0", "parallelism"),
        ],
    )
    def test_invalid_setting_exit_2(self, tmp_path, capsys, line, match):
        # each of these once ran and turned into a skip on every series
        data = tmp_path / "panel.csv"
        write_panel_csv(small_panel(n=3), str(data))
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            f"data = {data}\nhorizon = 6\nmethods = mscp\nout = {tmp_path / 'r'}\n{line}\n"
        )
        assert self.run_cli("run", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and match in err

    def test_duplicate_methods_exit_2(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_panel_csv(small_panel(n=3), str(data))
        out = tmp_path / "r"
        assert self.run_cli("run", "--data", str(data), "--methods", "mscp,mscp", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "duplicate methods: ['mscp']" in err
        assert not out.exists()

    def test_non_utf8_data_exit_2(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        data.write_bytes(b"unique_id,ds,y\na,1,1.0\xff\xfe\n")
        assert self.run_cli("run", "--data", str(data), "--out", str(tmp_path / "r")) == 2
        assert "cannot decode data file" in capsys.readouterr().err

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark.
        plain = tmp_path / "plain.csv"
        write_panel_csv(small_panel(n=3), str(plain))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        payloads = []
        for data in (plain, marked):
            out = tmp_path / data.stem
            argv = ("run", "--data", str(data), "--horizon", "6", "--methods", "mscp,parametric", "--out", str(out))
            assert self.run_cli(*argv) == 0
            payloads.append(_payload(out))
        assert payloads[0] == payloads[1]

    def test_missing_data_exit_2(self, tmp_path, capsys):
        rc = self.run_cli("run", "--data", str(tmp_path / "nope.csv"))
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_nothing_evaluable_exit_3(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_panel_csv(small_panel(n=1), str(data))
        rc = self.run_cli(
            "run", "--data", str(data), "--horizon", "6", "--methods", "global_cp",
        )
        assert rc == 3
        assert "nothing to evaluate" in capsys.readouterr().err

    def test_output_failure_exit_4(self, tmp_path, capsys):
        data = tmp_path / "panel.csv"
        write_panel_csv(small_panel(), str(data))
        blocker = tmp_path / "blocked"
        blocker.write_text("file in the way")
        rc = self.run_cli(
            "run", "--data", str(data), "--horizon", "6",
            "--methods", "mscp", "--out", str(blocker / "sub"),
        )
        assert rc == 4
        assert "output error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "generator, flag, value",
        [
            ("ar1", "--phi", "nan"),
            ("ar1", "--sigma", "nan"),
            ("seasonal_ar", "--amplitude", "inf"),
            ("shift", "--shift-magnitude", "nan"),
        ],
    )
    def test_synth_nonfinite_exit_2(self, tmp_path, capsys, generator, flag, value):
        out = tmp_path / "panel.csv"
        rc = self.run_cli(
            "synth", "--generator", generator, "--n", "2", "--len", "20", flag, value,
            "--out", str(out),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"got {value}" in err
        assert not out.exists()

    def test_synth_bad_out_exit_4(self, tmp_path, capsys):
        rc = self.run_cli(
            "synth", "--n", "2", "--len", "20",
            "--out", str(tmp_path / "no_dir" / "panel.csv"),
        )
        assert rc == 4
