"""Panel container, the split spec, and CSV round trips."""

from __future__ import annotations

import csv
import dataclasses
import inspect
import io
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ctsbench import series
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


@st.composite
def _panels(draw):
    """Panels of int and month series; stamps span the whole int64 range.
    An id with a comma or a quote is written quoted, which sends the text
    through csv.reader; an id has no leading or trailing whitespace, which
    parse_panel strips."""
    ids = draw(st.lists(st.text('abz09_,"', min_size=1, max_size=5), min_size=1, max_size=4, unique=True))
    series = []
    for sid in ids:
        stamps = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6, unique=True))
        values = draw(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(stamps), max_size=len(stamps))
        )
        kind = draw(st.sampled_from(["int", "month"]))
        series.append(TimeSeries(sid, np.array(sorted(stamps)), np.array(values), 3, kind))
    return SeriesPanel(tuple(series))


class TestTimeSeries:
    def test_stamps_spanning_int64_accepted(self):
        ts = np.array([-(2**63), 0, 2**63 - 1])
        assert TimeSeries("x", ts, np.zeros(3)).timestamps.tolist() == ts.tolist()

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
        with pytest.raises(ValueError, match=r"head needs 1 <= t <= 4, got 0"):
            s.head(0)

    @given(_panels(), st.data())
    def test_head_is_a_read_only_view_of_a_valid_prefix(self, panel, data):
        s = data.draw(st.sampled_from(panel.series))
        t = data.draw(st.integers(1, len(s)))
        h = s.head(t)
        assert h == TimeSeries(s.series_id, s.timestamps[:t].copy(), s.values[:t].copy(), s.period, s.ds_kind)
        assert type(h.values) is np.ndarray and h.values.dtype == np.float64 and h.timestamps.dtype == np.int64
        for arr, parent in ((h.values, s.values), (h.timestamps, s.timestamps)):
            assert not arr.flags.writeable and arr.flags.c_contiguous
            assert np.shares_memory(arr, parent)
            with pytest.raises(ValueError):
                arr.setflags(write=True)

    def test_arrays_are_copies_of_the_callers(self):
        v, stamps = np.array([1.0, 2.0, 3.0]), np.arange(3)
        s = TimeSeries("a", stamps, v)
        assert v.flags.writeable and stamps.flags.writeable
        assert not np.shares_memory(v, s.values) and not np.shares_memory(stamps, s.timestamps)
        v[0] = 9.0
        assert s.values[0] == 1.0

    def test_equality_and_hash(self):
        a = make_series([1.0, 2.0])
        b = make_series([1.0, 2.0])
        c = make_series([1.0, 3.0])
        assert a == b and hash(a) == hash(b)
        assert a != c


@pytest.mark.parametrize("cls", [TimeSeries])
def test_trusted_constructor_sets_every_field(cls):
    # _of_valid skips __post_init__, so a field it did not take would be
    # silently missing from the objects it builds.
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls._of_valid).parameters) == names
    obj = cls._of_valid(*names)
    assert [getattr(obj, name) for name in names] == names


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

    @pytest.mark.parametrize("bad", ["2020-02-xyz", "2020-02-30", "2019-02-29", "2020-01-00"])
    def test_day_must_be_a_day_of_its_month(self, bad):
        good = "unique_id,ds,y\na,2019-12,0.0\na,2020-01-31,1.0\na,2020-02-29,2.0\n"
        assert parse_panel(good)["a"].timestamps.tolist() == [2019 * 12 + 11, 2020 * 12, 2020 * 12 + 1]
        with pytest.raises(PanelError, match=f"row 4: .*ds value '{bad}'"):
            parse_panel(good + f"b,{bad},3.0\n")

    @pytest.mark.parametrize(
        "bad", ["99999999999999999999-01", "99999999999999999999", "-99999999999999999999", "9223372036854775808"]
    )
    def test_ds_outside_int64_rejected(self, bad):
        with pytest.raises(PanelError, match=f"row 2: ds value out of range '{bad}'"):
            parse_panel(f"unique_id,ds,y\na,1,1.0\nb,{bad},1.0\n")

    def test_int64_extremes_accepted(self):
        top, bottom = 2**63 - 1, -(2**63)
        panel = parse_panel(f"unique_id,ds,y\na,{bottom},0.0\na,{top},1.0\n")
        assert panel["a"].timestamps.tolist() == [bottom, top]
        # The latest month whose stamp year * 12 + (month - 1) fits in int64.
        year, last = divmod(top, 12)
        late = parse_panel(f"unique_id,ds,y\nm,{year}-{last + 1:02d}-01,1.0\n")
        assert late["m"].timestamps.tolist() == [top]
        with pytest.raises(PanelError, match="row 1: ds value out of range"):
            parse_panel(f"unique_id,ds,y\nm,{year}-{last + 2:02d}-01,1.0\n")

    def test_each_distinct_ds_parsed_once(self, monkeypatch):
        calls = []
        parse_ds = series._parse_ds

        def spy(raw, row_num):
            calls.append(raw)
            return parse_ds(raw, row_num)

        monkeypatch.setattr(series, "_parse_ds", spy)
        rows = [f"{sid},2020-{m:02d}-01,{m}.0" for sid in "abc" for m in (1, 2, 3)]
        rows += ["d,7,1.0", "e,7,2.0", "d, 8,3.0", "e,8,4.0"]
        panel = parse_panel("unique_id,ds,y\n" + "\n".join(rows) + "\n")
        assert calls == ["2020-01-01", "2020-02-01", "2020-03-01", "7", " 8", "8"]
        assert panel["a"].timestamps.tolist() == panel["c"].timestamps.tolist()
        assert panel["d"].timestamps.tolist() == panel["e"].timestamps.tolist() == [7, 8]

    def test_repeated_bad_ds_reported_at_its_first_row(self):
        text = "unique_id,ds,y\na,2020-01-01,1.0\nb,2020-13-01,1.0\nc,2020-13-01,1.0\n"
        with pytest.raises(PanelError, match="row 2: month out of range in ds value '2020-13-01'"):
            parse_panel(text)

    def test_a_bad_ds_among_distinct_stamps_is_reported_at_its_row(self, monkeypatch):
        calls = []
        parse_ds = series._parse_ds

        def spy(raw, row_num):
            calls.append(raw)
            return parse_ds(raw, row_num)

        monkeypatch.setattr(series, "_parse_ds", spy)
        # Every row holds a new ds string: series i has stamps 1000 * i + t.
        rows = [[f"s{i}", str(1000 * i + t), "1.5"] for i in range(40) for t in range(320)]
        assert len(rows) > 3 * series._CHUNK_ROWS
        panel = parse_panel(_csv(rows))
        assert calls == [ds for _, ds, _ in rows]
        assert panel["s39"].timestamps.tolist() == list(range(39000, 39320))
        bad = 3 * series._CHUNK_ROWS + 17
        rows[bad][1] = "x7"
        calls.clear()
        with pytest.raises(PanelError) as err:
            parse_panel(_csv(rows))
        assert str(err.value) == f"row {bad + 1}: cannot parse ds value 'x7'"
        assert calls == [ds for _, ds, _ in rows[: bad + 1]]

    def test_series_are_built_without_checking_each_again(self, monkeypatch):
        checked = []
        post_init = TimeSeries.__post_init__

        def spy(ts):
            checked.append(ts.series_id)
            post_init(ts)

        monkeypatch.setattr(TimeSeries, "__post_init__", spy)
        panel = parse_panel("unique_id,ds,y\nb,2,1.0\na,2020-01-01,2.0\nb,1,3.0\n", period=4)
        assert checked == []
        want = [TimeSeries("a", [2020 * 12], [2.0], 4, "month"), TimeSeries("b", [1, 2], [3.0, 1.0], 4)]
        assert list(panel) == want
        with pytest.raises(ValueError, match="period must be >= 1, got 0"):
            parse_panel("unique_id,ds,y\na,1,1.0\n", period=0)

    @given(_panels())
    def test_parsed_series_are_private_read_only_arrays(self, panel):
        again = list(parse_panel(serialize_panel(panel), period=3))
        for s in again:
            assert s == TimeSeries(s.series_id, s.timestamps.copy(), s.values.copy(), 3, s.ds_kind)
            assert (s.timestamps.dtype, s.values.dtype) == (np.int64, np.float64)
            for arr in (s.timestamps, s.values):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.flags.writeable = True
        arrays = [arr for s in again for arr in (s.timestamps, s.values)]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_oversized_field_is_a_panel_error(self):
        # csv's default field limit is 131072 characters; parsing must not
        # raise the process-wide limit, nor let csv.Error escape.
        huge = "x" * 131073
        with pytest.raises(PanelError, match="row 2: cannot read CSV row: field larger than field limit"):
            parse_panel(f"unique_id,ds,y\na,1,1.0\n\nb,{huge},1.0\n")
        with pytest.raises(PanelError, match="header row: field larger than field limit"):
            parse_panel(f"unique_id,ds,{huge}\na,1,1.0\n")

    def test_header_must_match(self):
        with pytest.raises(PanelError, match="header"):
            parse_panel("id,ds,y\na,1,1.0\n", period=1)
        for header in HEADERS:
            assert _outcome(header) == "empty panel: no data rows"

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

    @given(_panels())
    @example(SeriesPanel((TimeSeries("a", np.array([-2, 0, 5]), np.array([1.0, 2.0, 3.0]), 3, "int"),)))
    @example(SeriesPanel((TimeSeries("m", np.array([-13, -1, 0]), np.array([1.0, 2.0, 3.0]), 3, "month"),)))
    def test_round_trip_property(self, panel):
        again = parse_panel(serialize_panel(panel), period=3)
        assert again.ids == panel.ids
        assert all(a == b for a, b in zip(again, panel))

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


# Row defects, each planted by editing one row's fields in place; each
# returns the message parse_panel must raise for it at data row i + 1.
# `duplicate` and `mixed` need row i - 1 to be of the same series.
def _bad_y(rows, i):
    rows[i][2] = "oops"
    return f"row {i + 1}: cannot parse y value 'oops'"


def _nonfinite_y(rows, i):
    rows[i][2] = "nan"
    return f"row {i + 1}: non-finite y value 'nan'"


def _bad_ds(rows, i):
    rows[i][1] = "2020-13-01"
    return f"row {i + 1}: month out of range in ds value '2020-13-01'"


def _empty_uid(rows, i):
    rows[i][0] = " "
    return f"row {i + 1}: empty unique_id"


def _extra_field(rows, i):
    rows[i].append("x")
    return f"row {i + 1}: expected 3 fields, got 4"


def _duplicate(rows, i):
    rows[i][1] = rows[i - 1][1]
    return f"row {i + 1}: duplicate timestamp in series {rows[i][0]!r}"


def _mixed(rows, i):
    rows[i][1] = "7" if "-" in rows[i - 1][1].lstrip("-") else "2000-01-01"
    return f"row {i + 1}: mixed ds formats in series {rows[i][0]!r}"


def _oversized(rows, i):
    # csv's default field limit is 131072 characters.
    rows[i][2] = "x" * 131073
    return f"row {i + 1}: cannot read CSV row: field larger than field limit (131072)"


ROW_DEFECTS = (_bad_y, _nonfinite_y, _bad_ds, _empty_uid, _extra_field, _duplicate, _mixed)


# A quote-free text is split in pieces; the same rows under a quoted header
# are read by csv.reader.
HEADERS = ("unique_id,ds,y", '"unique_id",ds,y')


def _csv(rows, blank_every=None, header=HEADERS[0]):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    lines = buf.getvalue().split("\n")[:-1]
    if blank_every:  # blank and whitespace-only lines, which are not data rows
        for at in range(len(lines) - len(lines) % blank_every, 0, -blank_every):
            lines[at:at] = ["", "  "]
    return header + "\n" + "\n".join(lines) + "\n"


def _outcome(text):
    """The panel parse_panel makes of text, or the message of its PanelError."""
    try:
        return parse_panel(text, period=3)
    except PanelError as e:
        return str(e)


@pytest.mark.parametrize("header", HEADERS, ids=["split", "csv_reader"])
class TestFirstOffendingRow:
    """Whatever the chunk a defect lies in, and whether its text is split in
    pieces or read by csv.reader, parse_panel reports the first offending
    data row, as a one-row-at-a-time parse would."""

    @staticmethod
    def rows(n):
        # Series are laid out in runs of 5 rows, so every row but the first
        # of a run follows a row of its own series.
        return [[f"s{r // 5 % 7}", str(r // 35 * 5 + r % 5), f"{r}.5"] for r in range(n)]

    @pytest.mark.parametrize("gap", [3, series._CHUNK_ROWS + 502])
    @pytest.mark.parametrize(
        "first, second",
        list(itertools.permutations(ROW_DEFECTS, 2)) + [(d, _oversized) for d in ROW_DEFECTS],
        ids=lambda d: d.__name__.strip("_"),
    )
    def test_the_earlier_of_two_defects_is_reported(self, first, second, gap, header):
        early = 1001  # not the first row of its series' run
        rows = self.rows(early + gap + 700)
        want = first(rows, early)
        second(rows, early + gap)
        # Pieces of about 140 rows: a quarter of them hold a blank line and
        # are read by csv.reader, the rest are split.
        with mock.patch.object(series, "_CHUNK_CHARS", 2048), pytest.raises(PanelError) as err:
            parse_panel(_csv(rows, blank_every=400, header=header))
        assert str(err.value) == want

    def test_a_clean_file_of_many_chunks_parses_as_one_chunk(self, header):
        rows = self.rows(3 * series._CHUNK_ROWS + 17)
        with mock.patch.object(series, "_CHUNK_ROWS", 10**9):
            whole = parse_panel(_csv(rows, header=HEADERS[1]))  # one csv.reader flush
        for blank_every in (None, 400):
            text = _csv(rows, blank_every, header)
            assert parse_panel(text) == whole
            with mock.patch.object(series, "_CHUNK_CHARS", 2048):
                assert parse_panel(text) == whole

    def test_padded_ids_are_one_series_and_a_blank_id_its_own_row(self, header):
        # A raw id seen in an earlier piece is looked up, not stripped again:
        # ids padded with different whitespace in different pieces are one
        # series, and an id that strips to empty in a later piece is
        # reported at its own row.
        rows = self.rows(1000)
        pads = ("{}", " {}", "{}  ", "\t{} ")
        padded = [[pads[r // 100 % 4].format(uid), ds, y] for r, (uid, ds, y) in enumerate(rows)]
        with mock.patch.object(series, "_CHUNK_CHARS", 2048), mock.patch.object(series, "_CHUNK_ROWS", 64):
            assert parse_panel(_csv(padded, header=header)) == parse_panel(_csv(rows, header=header))
            padded[900][0] = " \t "
            with pytest.raises(PanelError, match="^row 901: empty unique_id$"):
                parse_panel(_csv(padded, header=header))

    @given(_panels(), st.data())
    def test_one_planted_defect_is_reported_at_its_row(self, header, panel, data):
        rows = list(csv.reader(io.StringIO(serialize_panel(panel))))[1:]
        i = data.draw(st.integers(0, len(rows) - 1))
        defects = list(ROW_DEFECTS) + [_oversized]
        if i == 0 or rows[i - 1][0] != rows[i][0]:
            defects.remove(_duplicate)
            defects.remove(_mixed)
        want = data.draw(st.sampled_from(defects))(rows, i)
        text = _csv(rows, blank_every=data.draw(st.one_of(st.none(), st.integers(1, 4))), header=header)
        with mock.patch.object(series, "_CHUNK_ROWS", data.draw(st.integers(1, 5))), \
                mock.patch.object(series, "_CHUNK_CHARS", data.draw(st.integers(1, 64))):
            with pytest.raises(PanelError) as err:
                parse_panel(text)
        assert str(err.value) == want


# Lines of a quote-free text: rows of three fields, mostly valid, and lines
# that send their piece to csv.reader.
_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["a", "b", " b", ""]),
        st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["2020-01-01", "x"])),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.just("oops")),
    ).map(",".join),
    st.sampled_from(["", "  ", "a,1", "a,1,2,3", "a,\x00,1", "a\r,1,1.0", "\ud800,7,1.0", "a,9,1." + "0" * 200]),
    st.just("a,1," + "x" * 131073),  # a field past csv's default limit
)


@given(st.lists(_LINES, max_size=12), st.booleans(), st.integers(1, 64), st.sampled_from([None, 12, 20]))
@example(["a,1,1.0", "", "b,2,2.0"], False, 64, None)
@example(["a,1,1.0", "a,2", "b,2,2.0,x"], True, 64, None)  # field counts that sum to 3 a line
@example(["a,1,1.0", "a\r,2,1.0"], True, 64, None)
def test_split_pieces_read_as_csv_reader_reads_them(lines, final_newline, chunk_chars, field_limit):
    # A quoted header sends the same lines through csv.reader; a carriage
    # return or NUL sends both through it, since csv.reader ends a row at a
    # carriage return and its handling of NUL differs between Python versions.
    body = "\n".join(lines) + ("\n" if final_newline else "")
    default_limit = csv.field_size_limit()
    try:
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        with mock.patch.object(series, "_CHUNK_CHARS", chunk_chars):
            split = _outcome(f"{HEADERS[0]}\n{body}")
        assert split == _outcome(f"{HEADERS[1]}\n{body}")
    finally:
        csv.field_size_limit(default_limit)


def test_quote_free_parse_peaks_under_four_times_its_text():
    # The text of the 600-series monthly panel is not copied whole: a
    # csv.reader over io.StringIO(text) holds a 4-byte-per-character copy.
    rng = np.random.default_rng(5)
    values = 50.0 + rng.standard_normal((600, 96)).cumsum(axis=1)
    start = rng.integers(1990 * 12, 2010 * 12, 600).tolist()
    lines = [HEADERS[0]] + [
        f"m{i:05d},{(first + k) // 12:04d}-{(first + k) % 12 + 1:02d}-01,{y!r}"
        for i, (row, first) in enumerate(zip(values.tolist(), start))
        for k, y in enumerate(row)
    ]
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        panel = parse_panel(text, period=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(panel) == 600 and {len(s) for s in panel} == {96}
    assert peak <= 4 * len(text)
