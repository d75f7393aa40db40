"""Panel container, the split spec, and CSV round trips."""

from __future__ import annotations

import numpy as np
import pytest

from ctsbench.series import (
    PanelError,
    SeriesPanel,
    SplitSpec,
    TimeSeries,
    parse_panel,
    serialize_panel,
)


def make_series(values, series_id="s1", period=1, ds_kind="int"):
    ts = np.arange(1, len(values) + 1, dtype=np.int64)
    return TimeSeries(
        series_id=series_id,
        timestamps=ts,
        values=np.asarray(values, dtype=np.float64),
        period=period,
        ds_kind=ds_kind,
    )


class TestTimeSeries:
    def test_rejects_nonincreasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increase"):
            TimeSeries(
                series_id="a",
                timestamps=np.array([1, 3, 2], dtype=np.int64),
                values=np.zeros(3),
                period=1,
                ds_kind="int",
            )

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_series([1.0, np.nan, 2.0])

    def test_rejects_bad_period_and_kind(self):
        with pytest.raises(ValueError):
            make_series([1.0, 2.0], period=0)
        with pytest.raises(ValueError):
            make_series([1.0, 2.0], ds_kind="day")

    def test_arrays_read_only(self):
        s = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0
        with pytest.raises(ValueError):
            s.timestamps[0] = 9

    def test_head(self):
        s = make_series([1.0, 2.0, 3.0, 4.0])
        h = s.head(2)
        assert len(h) == 2
        assert h.values.tolist() == [1.0, 2.0]
        assert h.series_id == s.series_id

    def test_equality_and_hash(self):
        a = make_series([1.0, 2.0])
        b = make_series([1.0, 2.0])
        c = make_series([1.0, 3.0])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestSplit:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0, 1, 1)


class TestPanel:
    def test_sorted_and_lookup(self):
        p = SeriesPanel(
            (make_series([1.0, 2.0], series_id="b"), make_series([3.0], series_id="a"))
        )
        assert p.ids == ("a", "b")
        assert p["b"].values.tolist() == [1.0, 2.0]
        assert "a" in p and "zzz" not in p

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PanelError, match="duplicate"):
            SeriesPanel((make_series([1.0]), make_series([2.0])))


class TestCsv:
    def test_parse_int_kind(self):
        text = "unique_id,ds,y\na,1,1.5\na,2,2.5\nb,1,0.0\n"
        panel = parse_panel(text, period=1)
        assert panel.ids == ("a", "b")
        assert panel["a"].values.tolist() == [1.5, 2.5]
        assert panel["a"].ds_kind == "int"

    def test_parse_month_kind(self):
        text = "unique_id,ds,y\ns,2020-01-01,1.0\ns,2020-02-01,2.0\ns,2020-03-01,3.0\n"
        panel = parse_panel(text, period=12)
        s = panel["s"]
        assert s.ds_kind == "month"
        assert np.all(np.diff(s.timestamps) == 1)

    def test_header_must_match(self):
        with pytest.raises(PanelError, match="header"):
            parse_panel("id,ds,y\na,1,1.0\n", period=1)

    def test_bad_row_numbered(self):
        with pytest.raises(PanelError, match="row 2"):
            parse_panel("unique_id,ds,y\na,1,1.0\na,2,oops\n", period=1)

    def test_nonfinite_rejected(self):
        with pytest.raises(PanelError):
            parse_panel("unique_id,ds,y\na,1,inf\n", period=1)

    def test_mixed_ds_kinds_in_series_rejected(self):
        text = "unique_id,ds,y\na,1,1.0\na,2020-01-01,1.0\n"
        with pytest.raises(PanelError, match="mixed"):
            parse_panel(text, period=1)

    def test_round_trip_int(self):
        rng = np.random.default_rng(3)
        series = tuple(
            make_series(rng.standard_normal(5), series_id=f"s{i}") for i in range(4)
        )
        panel = SeriesPanel(series)
        again = parse_panel(serialize_panel(panel), period=1)
        for s in series:
            assert np.array_equal(again[s.series_id].values, s.values)
            assert np.array_equal(again[s.series_id].timestamps, s.timestamps)

    def test_round_trip_month(self):
        ts = np.array([2020 * 12 + 0, 2020 * 12 + 1, 2020 * 12 + 2], dtype=np.int64)
        s = TimeSeries(
            series_id="m",
            timestamps=ts,
            values=np.array([1.0, 2.0, 3.0]),
            period=12,
            ds_kind="month",
        )
        panel = SeriesPanel((s,))
        text = serialize_panel(panel)
        assert "2020-01-01" in text and "2020-03-01" in text
        again = parse_panel(text, period=12)
        assert np.array_equal(again["m"].timestamps, ts)
