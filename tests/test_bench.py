"""Benchmark harness: generators, config plumbing, reports, CLI exit codes."""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ctsbench import bench, conformal
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
from ctsbench.conformal import global_cp_intervals
from ctsbench.forecaster import ForecasterSpec, fit_auto_ar, forecast, seasonal_naive_forecast
from ctsbench.series import parse_panel

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

    def test_config_hash_tracks_content(self):
        assert small_config().config_hash() == small_config().config_hash()
        assert small_config().config_hash() != small_config(seed=99).config_hash()


class TestRunBenchmark:
    def test_small_run_structure(self):
        report = run_benchmark(small_config(), panel=small_panel())
        assert len(report.records) == 6 * len(FAST_METHODS)
        keys = [(r.series_id, r.method) for r in report.records]
        assert keys == sorted(keys)
        assert set(report.summaries) == set(FAST_METHODS)
        assert report.metadata["n_series_evaluated"] == 6
        assert report.friedman is not None

    def test_parallelism_invariant(self):
        panel = small_panel()
        # global_cp pools the forecasts of the per-series loop; alpha and the
        # horizon are chosen so its three-series cohort gives finite radii.
        for kw in ({}, dict(methods=("global_cp",), alpha=0.5, horizon=2)):
            a = run_benchmark(small_config(parallelism=1, **kw), panel=panel)
            b = run_benchmark(small_config(parallelism=4, **kw), panel=panel)
            assert a.records == b.records
            pa, pb = summary_payload(a), summary_payload(b)
            pa.pop("metadata")
            pb.pop("metadata")
            assert pa == pb

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
        results = []

        def spy(*args, **kwargs):
            results.append(global_cp_intervals(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(bench, "global_cp_intervals", spy)
        panel = small_panel(generator="seasonal_ar")
        config = small_config(
            methods=("global_cp", "mscp"),
            forecaster=ForecasterSpec(kind="seasonal_naive"),
            alpha=0.5,
            horizon=2,
        )
        run_benchmark(config, panel=panel)
        (result,) = results
        assert np.all(np.isfinite(result.radii))
        assert len(result.evaluation_ids) == 3
        for sid in result.evaluation_ids:
            series = panel[sid]
            fc = seasonal_naive_forecast(series.head(len(series) - 2), 2)
            assert np.array_equal(result.intervals[sid].lower[0], fc - result.radii)
            assert np.array_equal(result.intervals[sid].upper[0], fc + result.radii)

    def test_each_series_fitted_once(self, monkeypatch):
        fitted = []

        def counting_fit(train, spec):
            fitted.append(len(train))
            return fit_auto_ar(train, spec)

        monkeypatch.setattr(bench, "fit_auto_ar", counting_fit)
        monkeypatch.setattr(conformal, "fit_auto_ar", counting_fit)
        from ctsbench.series import SeriesPanel, TimeSeries

        short = TimeSeries(
            "tiny", np.arange(1, 21, dtype=np.int64), np.random.default_rng(0).standard_normal(20), 12, "int"
        )
        panel = SeriesPanel(tuple(small_panel().series) + (short,))
        report = run_benchmark(small_config(methods=("global_cp", "parametric")), panel=panel)
        assert report.metadata["n_series_evaluated"] == 6
        assert fitted == [90 - 6] * 6

    def test_each_series_forecast_once(self, monkeypatch):
        calls = []

        def counting_forecast(model, history, horizon):
            calls.append(len(history))
            return forecast(model, history, horizon)

        monkeypatch.setattr(bench, "forecast", counting_forecast)
        monkeypatch.setattr(conformal, "forecast", counting_forecast)
        config = small_config(methods=("global_cp", "parametric"))
        report = run_benchmark(config, panel=small_panel())
        assert report.summaries["parametric"].n_series == 6
        assert calls == [90 - 6] * 6

    def test_enbpi_skipped_under_seasonal_naive(self):
        config = small_config(
            methods=("enbpi", "mscp"), forecaster=ForecasterSpec(kind="seasonal_naive")
        )
        report = run_benchmark(config, panel=small_panel(n=3))
        assert "enbpi" not in report.summaries
        reasons = {s[2] for s in report.skips if s[1] == "enbpi"}
        assert reasons == {"EnbPI ensembles require an autoregressive forecaster"}
        assert report.summaries["mscp"].n_series == 3

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
            ("n_windows = 0", "n_windows"),
            ("enbpi_members = 1", "B must be"),
            ("enbpi_window = 0", "window_len"),
            ("spci_lags = 0", "lag_count"),
            ("cohort_split = 1.5", "cohort_split"),
            ("include_drift = ture", "include_drift"),
            ("period = 0", "period"),
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

    def test_synth_bad_out_exit_4(self, tmp_path, capsys):
        rc = self.run_cli(
            "synth", "--n", "2", "--len", "20",
            "--out", str(tmp_path / "no_dir" / "panel.csv"),
        )
        assert rc == 4
