"""Series containers, the train/calibration/test split spec, and panel CSV parsing."""

from __future__ import annotations

import calendar
import csv
import io
import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


class PanelError(ValueError):
    """Raised for malformed panel data (bad header, duplicates, bad values)."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeSeries:
    """A single univariate series with integer-coded timestamps.

    Parameters
    ----------
    series_id : str
        Panel-unique identifier.
    timestamps : np.ndarray
        Strictly increasing int64 time codes. For monthly data the code is
        year*12 + (month-1) so consecutive months differ by 1.
    values : np.ndarray
        float64 observations, same length as timestamps, all finite.
    period : int
        Seasonal period (1 for non-seasonal data).
    ds_kind : str
        "int" or "month"; controls round-trip serialization.
    """

    series_id: str
    timestamps: np.ndarray
    values: np.ndarray
    period: int = 1
    ds_kind: str = "int"

    def __post_init__(self) -> None:
        # Copies, so that freezing them never freezes or aliases a caller's array.
        ts = np.array(self.timestamps, dtype=np.int64, order="C")
        vals = np.array(self.values, dtype=np.float64, order="C")
        if ts.ndim != 1 or vals.ndim != 1:
            raise ValueError("timestamps and values must be 1-D")
        if len(ts) != len(vals):
            raise ValueError(
                f"length mismatch: {len(ts)} timestamps, {len(vals)} values"
            )
        if len(ts) == 0:
            raise ValueError(f"series {self.series_id!r} is empty")
        if np.any(ts[1:] <= ts[:-1]):  # np.diff would overflow across the int64 range
            raise ValueError(f"series {self.series_id!r} timestamps must strictly increase")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"series {self.series_id!r} contains non-finite values")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.ds_kind not in ("int", "month"):
            raise ValueError(f"ds_kind must be 'int' or 'month', got {self.ds_kind!r}")
        object.__setattr__(self, "timestamps", _read_only(ts))
        object.__setattr__(self, "values", _read_only(vals))

    @classmethod
    def _of_valid(
        cls, series_id: str, timestamps: np.ndarray, values: np.ndarray, period: int, ds_kind: str
    ) -> "TimeSeries":
        """A series from fields that already are what __post_init__ makes of
        valid ones (read-only arrays that no caller can write), set without
        copying or checking again."""
        ts = object.__new__(cls)
        ts.__dict__.update(series_id=series_id, timestamps=timestamps, values=values, period=period, ds_kind=ds_kind)
        return ts

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.series_id == other.series_id
            and self.period == other.period
            and self.ds_kind == other.ds_kind
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.series_id, len(self.values)))

    def head(self, t: int) -> "TimeSeries":
        """First t observations as a new series whose arrays are read-only
        views of this one's."""
        if not 1 <= t <= len(self):
            raise ValueError(f"head needs 1 <= t <= {len(self)}, got {t}")
        # A prefix of a valid series is valid.
        return TimeSeries._of_valid(self.series_id, self.timestamps[:t], self.values[:t], self.period, self.ds_kind)


@dataclass(frozen=True)
class SeriesPanel:
    """Immutable collection of series, ordered by id."""

    series: tuple[TimeSeries, ...]
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.series, key=lambda s: s.series_id))
        ids = [s.series_id for s in ordered]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise PanelError(f"duplicate series ids: {dupes}")
        object.__setattr__(self, "series", ordered)
        object.__setattr__(self, "_by_id", {s.series_id: s for s in ordered})

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self.series)

    def __getitem__(self, series_id: str) -> TimeSeries:
        return self._by_id[series_id]

    def __contains__(self, series_id: str) -> bool:
        return series_id in self._by_id

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.series_id for s in self.series)


@dataclass(frozen=True)
class SplitSpec:
    """Train / calibration / test lengths, anchored to the series end."""

    train_len: int
    cal_len: int
    test_len: int

    def __post_init__(self) -> None:
        for name in ("train_len", "cal_len", "test_len"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")

    @property
    def total(self) -> int:
        return self.train_len + self.cal_len + self.test_len


_HEADER = ("unique_id", "ds", "y")
# Timestamps are int64 (see TimeSeries).
_STAMP_MIN, _STAMP_MAX = -(2**63), 2**63 - 1


def _parse_ds(raw: str, row_num: int) -> tuple[int, str]:
    raw = raw.strip()
    # A leading minus is the sign of the stamp or of the year; later ones separate date parts.
    sign, body = ("-", raw[1:]) if raw.startswith("-") else ("", raw)
    if "-" in body:
        parts = body.split("-")
        if len(parts) not in (2, 3):
            raise PanelError(f"row {row_num}: cannot parse ds value {raw!r}")
        try:
            year = int(sign + parts[0])
            month = int(parts[1])
            day = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise PanelError(f"row {row_num}: cannot parse ds value {raw!r}") from None
        if not 1 <= month <= 12:
            raise PanelError(f"row {row_num}: month out of range in ds value {raw!r}")
        # Every month has days 1..28; only a later day needs the calendar.
        if day < 1 or (day > 28 and day > calendar.monthrange(year, month)[1]):
            raise PanelError(f"row {row_num}: day out of range in ds value {raw!r}")
        stamp, kind = year * 12 + (month - 1), "month"
    else:
        try:
            stamp, kind = int(raw), "int"
        except ValueError:
            raise PanelError(f"row {row_num}: cannot parse ds value {raw!r}") from None
    if not _STAMP_MIN <= stamp <= _STAMP_MAX:
        raise PanelError(f"row {row_num}: ds value out of range {raw!r}")
    return stamp, kind


# Data rows are held as strings until they are flushed into arrays, every
# _CHUNK_ROWS lines of a csv.reader, so only one chunk of row strings is
# alive at a time.
_CHUNK_ROWS = 4096
# A quote-free text's rows are split in pieces of whole lines of at most this
# many characters, nor more than csv.field_size_limit(): no field of a piece
# can then be over the limit that csv.reader would enforce.
_CHUNK_CHARS = 1 << 17
# Every byte but the field and line separators.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


class _Columns:
    """The data rows parsed so far, as arrays.

    A unique_id's code numbers its stripped id in order of first row. Each
    distinct ds string is parsed once, at its first row, into a table of
    stamps and month flags, and a row holds its string's index in the table;
    check gathers every row's stamp and month flag from the table at once.
    """

    def __init__(self) -> None:
        self.code_of_id: dict[str, int] = {}
        self.index_of_ds: dict[str, int] = {}
        self.ds_stamps: list[int] = []
        self.ds_months: list[bool] = []
        # Each flush's codes, ds table indices and values.
        self.chunks = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
        self.rows = 0

    def flush(self, uids: list[str], dss: list[str], ys: list[str]) -> None:
        """Append the buffered rows and clear the buffers; at a bad row,
        append the rows before it and raise PanelError (see check).

        A row's unique_id is checked before its ds, and its ds before its y,
        so each column is read only up to the first bad row of the columns
        before it.
        """
        codes, n, error = self._codes(uids)
        ds_rows, n, error = self._ds_rows(dss, n, error)
        values, n, error = self._values(ys, n, error)
        self.chunks.append((codes[:n], ds_rows[:n], values))
        self.rows += n
        uids.clear()
        dss.clear()
        ys.clear()
        if error is not None:
            self.check(error)

    def _codes(self, uids: list[str]) -> tuple[np.ndarray, int, str | None]:
        ids = list(map(str.strip, uids))
        n, error = len(ids), None
        if not all(ids):
            n = ids.index("")
            ids, error = ids[:n], f"row {self.rows + n + 1}: empty unique_id"
        code_of_id = self.code_of_id
        for uid in dict.fromkeys(ids):  # distinct ids, in order of first row
            code_of_id.setdefault(uid, len(code_of_id))
        return np.fromiter(map(code_of_id.__getitem__, ids), dtype=np.intp, count=n), n, error

    def _ds_rows(self, dss: list[str], n: int, error: str | None) -> tuple[np.ndarray, int, str | None]:
        dss = dss[:n]
        index = self.index_of_ds
        try:  # most chunks of a panel hold no new ds string
            return np.fromiter(map(index.__getitem__, dss), dtype=np.intp, count=n), n, error
        except KeyError:
            pass
        # Each string's first row: zipped from the end, an earlier row overwrites a later one.
        first_row = dict(zip(reversed(dss), range(n - 1, -1, -1)))
        for raw in dict.fromkeys(dss):  # distinct strings, in order of first row
            if raw not in index:
                i = first_row[raw]
                try:
                    stamp, kind = _parse_ds(raw, self.rows + i + 1)
                except PanelError as e:
                    n, error, dss = i, str(e), dss[:i]
                    break
                index[raw] = len(self.ds_stamps)
                self.ds_stamps.append(stamp)
                self.ds_months.append(kind == "month")
        return np.fromiter(map(index.__getitem__, dss), dtype=np.intp, count=n), n, error

    def _values(self, ys: list[str], n: int, error: str | None) -> tuple[np.ndarray, int, str | None]:
        ys = ys[:n]
        try:
            values = np.fromiter(map(float, ys), dtype=np.float64, count=len(ys))
        except ValueError:
            parsed = []
            for raw in ys:
                try:
                    parsed.append(float(raw))
                except ValueError:
                    break
            n = len(parsed)
            error = f"row {self.rows + n + 1}: cannot parse y value {ys[n]!r}"
            values = np.array(parsed, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            n = int(bad[0])
            error = f"row {self.rows + n + 1}: non-finite y value {ys[n]!r}"
        return values[:n], n, error

    def check(self, error: str | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raise PanelError for the first row whose ds kind differs from its
        series' first row's, or whose stamp repeats an earlier row's of its
        series; failing that, for error if one is given.

        Returns every row's code, stamp and value, sorted stably by (code,
        stamp), and each series' month flag, by code.
        """
        codes, ds_rows, values = map(np.concatenate, zip(*self.chunks))
        stamps = np.array(self.ds_stamps, dtype=np.int64)[ds_rows]
        months = np.array(self.ds_months, dtype=bool)[ds_rows]
        # Codes number series in order of first row, so a row is its
        # series' first exactly when its code exceeds every earlier row's.
        first = np.ones(len(codes), dtype=bool)
        first[1:] = codes[1:] > np.maximum.accumulate(codes)[:-1]
        month = months[first]
        mixed = np.flatnonzero(months != month[codes])
        order = np.lexsort((stamps, codes))  # equal stamps of a series sit together, in row order
        by_code, by_stamp = codes[order], stamps[order]
        repeats = order[1:][(by_code[1:] == by_code[:-1]) & (by_stamp[1:] == by_stamp[:-1])]
        bad = np.concatenate([mixed, repeats])
        if bad.size:
            row = int(bad.min())
            what = "mixed ds formats" if row in mixed else "duplicate timestamp"
            uid = list(self.code_of_id)[codes[row]]
            raise PanelError(f"row {row + 1}: {what} in series {uid!r}") from None
        if error is not None:
            raise PanelError(error) from None
        return by_code, by_stamp, values[order], month

    def panel(self, period: int) -> SeriesPanel:
        """The rows as series, each sorted by stamp.

        check has proven what TimeSeries checks: each series is a non-empty
        run of strictly increasing stamps with finite values and one ds
        kind. So each series is made by TimeSeries._of_valid from read-only
        views of its run of the sorted arrays, which no caller holds.
        """
        if not self.rows:
            raise PanelError("empty panel: no data rows")
        codes, stamps, values, month = self.check()
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        stamps.flags.writeable = False
        values.flags.writeable = False
        bounds = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), len(codes)]
        return SeriesPanel(tuple(
            TimeSeries._of_valid(uid, stamps[a:b], values[a:b], period, "month" if is_month else "int")
            for uid, is_month, a, b in zip(self.code_of_id, month.tolist(), bounds, bounds[1:])
        ))


def _read_rows(reader: Iterator[list[str]], columns: _Columns) -> None:
    """Append a csv.reader's rows to columns, skipping blank and
    whitespace-only lines; at the first row that is not three fields, or
    that the reader cannot read, raise PanelError (see _Columns.check)."""
    uids: list[str] = []
    dss: list[str] = []
    ys: list[str] = []
    add_uid, add_ds, add_y = uids.append, dss.append, ys.append
    try:  # the reader raises csv.Error on a row it cannot read (a field over its size limit, say)
        while True:
            row = None
            for row in itertools.islice(reader, _CHUNK_ROWS):
                try:
                    uid, ds, y = row
                except ValueError:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    columns.flush(uids, dss, ys)
                    columns.check(f"row {columns.rows + 1}: expected 3 fields, got {len(row)}")
                add_uid(uid)
                add_ds(ds)
                add_y(y)
            if row is None:
                break
            columns.flush(uids, dss, ys)
    except csv.Error as e:
        columns.flush(uids, dss, ys)
        columns.check(f"row {columns.rows + 1}: cannot read CSV row: {e}")


def _line_chunks(text: str, start: int, size: int) -> Iterator[str]:
    """text from start, without a final newline, cut at line ends into
    pieces of at most size characters; a line longer than size is a piece
    of its own."""
    stop = len(text) - 1 if text.endswith("\n") else len(text)
    while start < stop:
        end = stop
        if stop - start > size:
            end = text.rfind("\n", start, start + size + 1)
            if end < 0:
                end = text.find("\n", start + size, stop)
                if end < 0:
                    end = stop
        yield text[start:end]
        start = end + 1


def _split_fields(chunk: str) -> list[str] | None:
    """The fields of chunk's lines in order, if every line is three fields."""
    # It is when its separators alone read ",,\n" a line and ",," at the end.
    seps = chunk.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    if not seps.endswith(b",,") or seps.count(b",,\n") != len(seps) // 3:
        return None
    return chunk.replace("\n", ",").split(",")


def parse_panel(csv_text: str, period: int = 1) -> SeriesPanel:
    """Parse long-format panel CSV with header unique_id,ds,y.

    Rows are numbered from 1 for the first data row, not counting blank
    lines. Within a series timestamps must be unique and the ds encoding
    (plain integer vs year-month date) must not mix. Quoted fields are
    read as csv.reader reads them.

    A text with no quote, carriage return or NUL is split by str calls:
    its body is cut at line ends into pieces of at most _CHUNK_CHARS
    characters, nor more than csv.field_size_limit(), so that no field of
    a piece is over csv.reader's limit. A piece whose every line is three
    fields is split at its commas and newlines into the three columns; any
    other piece (a blank or whitespace-only line, two or four fields, a
    line longer than a piece) is read by csv.reader over its lines, the
    row numbers running on. A text with a quote, a carriage return or a
    NUL is read by one csv.reader pass: only csv.reader reads quoted
    fields, a carriage return ends a row, and csv.reader's handling of NUL
    differs between Python versions. Both routes give the same panel, and
    the same error for a malformed text.

    Rows are flushed into arrays a piece at a time, or every _CHUNK_ROWS
    rows of a csv.reader: unique_ids become codes, each distinct ds string
    is parsed once, at its first row, into a table that rows index, and y
    values are parsed together. One stable sort by (series, stamp) then
    finds repeated stamps and orders every column; each series is a pair
    of read-only views of its run of the sorted stamps and values, built
    without copying or re-running TimeSeries' checks, which the sort has
    already proven. Whatever the chunk a defect lies in, the error names
    the first offending data row.
    """
    if '"' in csv_text or "\r" in csv_text or "\0" in csv_text:
        body = len(csv_text)
    else:  # the header is the first line; the rest is split in pieces below
        body = csv_text.find("\n") + 1 or len(csv_text)
    reader = csv.reader(io.StringIO(csv_text[:body]))
    try:
        header = next(reader)
    except StopIteration:
        raise PanelError("empty panel: no header row") from None
    except csv.Error as e:
        raise PanelError(f"cannot read CSV header row: {e}") from None
    if tuple(h.strip() for h in header) != _HEADER:
        raise PanelError(
            f"bad header: expected {','.join(_HEADER)!r}, got {','.join(header)!r}"
        )
    columns = _Columns()
    _read_rows(reader, columns)
    size = min(_CHUNK_CHARS, csv.field_size_limit())
    for chunk in _line_chunks(csv_text, body, size):
        fields = _split_fields(chunk) if len(chunk) <= size else None
        if fields is None:
            _read_rows(csv.reader(chunk.split("\n")), columns)
        else:
            columns.flush(fields[0::3], fields[1::3], fields[2::3])
    return columns.panel(period)


def _format_ds(ts: int, kind: str) -> str:
    if kind == "month":
        return f"{ts // 12:04d}-{ts % 12 + 1:02d}-01"
    return str(ts)


def serialize_panel(panel: SeriesPanel) -> str:
    """Long-format CSV; parse_panel(serialize_panel(p)) reproduces p."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_HEADER)
    for series in panel:
        for ts, y in zip(series.timestamps, series.values):
            writer.writerow([series.series_id, _format_ds(int(ts), series.ds_kind), repr(float(y))])
    return buf.getvalue()
