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
        # A prefix of a valid series is valid: set the fields, as
        # __post_init__ would, without copying or checking again.
        head = object.__new__(TimeSeries)
        head.__dict__.update(self.__dict__, timestamps=self.timestamps[:t], values=self.values[:t])
        return head


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
# _CHUNK_ROWS lines, so only one chunk of row strings is alive at a time.
_CHUNK_ROWS = 4096


class _Columns:
    """The data rows parsed so far, as arrays.

    A unique_id's code numbers its stripped id in order of first row. Each
    distinct ds string is parsed once, at its first row.
    """

    def __init__(self) -> None:
        self.code_of_id: dict[str, int] = {}
        self.stamp_of: dict[str, int] = {}
        self.month_of: dict[str, bool] = {}
        # Each flush's codes, stamps, month flags and values.
        self.chunks = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), np.empty(0))]
        self.rows = 0

    def flush(self, uids: list[str], dss: list[str], ys: list[str]) -> None:
        """Append the buffered rows and clear the buffers; at a bad row,
        append the rows before it and raise PanelError (see check).

        A row's unique_id is checked before its ds, and its ds before its y,
        so each column is read only up to the first bad row of the columns
        before it.
        """
        codes, n, error = self._codes(uids)
        stamps, months, n, error = self._stamps(dss, n, error)
        values, n, error = self._values(ys, n, error)
        self.chunks.append((
            np.array(codes[:n], dtype=np.intp), np.array(stamps[:n], dtype=np.int64),
            np.array(months[:n], dtype=bool), values,
        ))
        self.rows += n
        uids.clear()
        dss.clear()
        ys.clear()
        if error is not None:
            self.check(error)

    def _codes(self, uids: list[str]) -> tuple[list, int, str | None]:
        ids = list(map(str.strip, uids))
        n, error = len(ids), None
        if not all(ids):
            n = ids.index("")
            ids, error = ids[:n], f"row {self.rows + n + 1}: empty unique_id"
        for uid in dict.fromkeys(ids):  # distinct ids, in order of first row
            self.code_of_id.setdefault(uid, len(self.code_of_id))
        return list(map(self.code_of_id.__getitem__, ids)), n, error

    def _stamps(self, dss: list[str], n: int, error: str | None) -> tuple[list, list, int, str | None]:
        dss = dss[:n]
        if not all(map(self.stamp_of.__contains__, dss)):  # most chunks of a panel hold no new ds string
            for raw in dict.fromkeys(dss):  # distinct strings, in order of first row
                if raw not in self.stamp_of:
                    i = dss.index(raw)
                    try:
                        stamp, kind = _parse_ds(raw, self.rows + i + 1)
                    except PanelError as e:
                        n, error, dss = i, str(e), dss[:i]
                        break
                    self.stamp_of[raw] = stamp
                    self.month_of[raw] = kind == "month"
        return list(map(self.stamp_of.__getitem__, dss)), list(map(self.month_of.__getitem__, dss)), n, error

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
        codes, stamps, months, values = map(np.concatenate, zip(*self.chunks))
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
        """The rows as series, each sorted by stamp."""
        if not self.rows:
            raise PanelError("empty panel: no data rows")
        codes, stamps, values, month = self.check()
        cuts = np.flatnonzero(np.diff(codes)) + 1
        return SeriesPanel(tuple(
            TimeSeries(uid, ts, ys, period=period, ds_kind="month" if is_month else "int")
            for uid, is_month, ts, ys in zip(self.code_of_id, month.tolist(), np.split(stamps, cuts), np.split(values, cuts))
        ))


def parse_panel(csv_text: str, period: int = 1) -> SeriesPanel:
    """Parse long-format panel CSV with header unique_id,ds,y.

    Rows are numbered from 1 for the first data row, not counting blank
    lines. Within a series timestamps must be unique and the ds encoding
    (plain integer vs year-month date) must not mix.

    One csv.reader pass buffers the rows' strings, and every _CHUNK_ROWS
    lines flushes them into arrays: unique_ids become codes, each distinct
    ds string is parsed once, at its first row, and y values are parsed
    together. One stable sort by (series, stamp) then finds repeated stamps
    and cuts out the series. Whatever the chunk a defect lies in, the error
    names the first offending data row.
    """
    reader = csv.reader(io.StringIO(csv_text))
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
