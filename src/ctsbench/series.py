"""Series containers, the train/calibration/test split spec, and panel CSV parsing."""

from __future__ import annotations

import calendar
import csv
import io
import math
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
        ts = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
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
        """First t observations as a new series."""
        if not 1 <= t <= len(self):
            raise ValueError(f"head needs 1 <= t <= {len(self)}, got {t}")
        return TimeSeries(
            self.series_id, self.timestamps[:t].copy(), self.values[:t].copy(),
            self.period, self.ds_kind,
        )


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


def parse_panel(csv_text: str, period: int = 1) -> SeriesPanel:
    """Parse long-format panel CSV with header unique_id,ds,y.

    Rows are numbered from 1 for the first data row; error messages cite
    the offending row. Within a series timestamps must be unique and the
    ds encoding (plain integer vs year-month date) must not mix. Each
    distinct ds string is parsed once, at its first row.
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
    rows_by_id: dict[str, list[tuple[int, float]]] = {}
    kind_by_id: dict[str, str] = {}
    seen: dict[str, set[int]] = {}
    parsed_ds: dict[str, tuple[int, str]] = {}
    row_num = 0
    try:  # the reader raises csv.Error on a row it cannot read (a field over its size limit, say)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            row_num += 1
            if len(row) != 3:
                raise PanelError(f"row {row_num}: expected 3 fields, got {len(row)}")
            uid = row[0].strip()
            if not uid:
                raise PanelError(f"row {row_num}: empty unique_id")
            ds = parsed_ds.get(row[1])
            if ds is None:
                ds = parsed_ds[row[1]] = _parse_ds(row[1], row_num)
            ts, kind = ds
            try:
                y = float(row[2])
            except ValueError:
                raise PanelError(f"row {row_num}: cannot parse y value {row[2]!r}") from None
            if not math.isfinite(y):
                raise PanelError(f"row {row_num}: non-finite y value {row[2]!r}")
            prior_kind = kind_by_id.setdefault(uid, kind)
            if prior_kind != kind:
                raise PanelError(f"row {row_num}: mixed ds formats in series {uid!r}")
            stamps = seen.setdefault(uid, set())
            if ts in stamps:
                raise PanelError(f"row {row_num}: duplicate timestamp in series {uid!r}")
            stamps.add(ts)
            rows_by_id.setdefault(uid, []).append((ts, y))
    except csv.Error as e:
        raise PanelError(f"row {row_num + 1}: cannot read CSV row: {e}") from None
    if not rows_by_id:
        raise PanelError("empty panel: no data rows")
    out = []
    for uid, rows in rows_by_id.items():
        rows.sort(key=lambda r: r[0])
        ts = np.array([r[0] for r in rows], dtype=np.int64)
        ys = np.array([r[1] for r in rows], dtype=np.float64)
        out.append(TimeSeries(uid, ts, ys, period=period, ds_kind=kind_by_id[uid]))
    return SeriesPanel(tuple(out))


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
