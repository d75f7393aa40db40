"""Benchmark orchestration: config, synthetic panels, method evaluation,
aggregation, rank tests, and report emission.

A run carries its series as (S, ...) stacks from the prefix table to the
scores. The table (`_prefix_table`) holds, over the series long enough to
evaluate and in panel order, each test block and one array of each kind
of row the configured methods read: the end (each head's forecast `fc` of
its test block and the autoregression behind it), the signed residuals of
the calibration origins, and cv_cp's backtest residuals, each row bit for
bit what a lone public build gives (`fit_auto_ar`, `forecast`,
`build_residual_matrix`, `cv_conformal_intervals`), and the message of
every row that could not be made. It is made once, with one batched solve
and one recursion per block of heads (`forecaster._prefix_forecasts`).
A method (`_METHODS`) names the kinds it reads. A series with a failed
read skips it with the first failure's message; the method's run takes
the others' rows and gives their (S, H) bounds and each one's skip reason
or None. global_cp pools its series into one cohort. Every other method
is a block rule (`_stacked`) over blocks of series (`_in_blocks`), each
series as alone: enbpi, whose bootstrap ensemble makes its own one-step
forecasts, over series of one length and period, the others from the
forecasts and, for mscp, aci, acmcp and spci, the signed residuals, for
cv_cp the backtests, for parametric the autoregressions. A failure that
depends only on what a block's series share, such as a calibration stream
too short for every one of them, is every series' skip reason at once
(`_shared`), with no retry one series at a time; an invalid row of bounds
is its own series' (`conformal._row_faults`). aci's radii are those of
`aci_interval` (`online._aci_radii`). Each method's bounds are scored in
one array pass (`metrics.score_stack`), which builds only the records.

Every run is a pure function of (config, data, seed): per-series RNG seeds
are derived by hashing the global seed with the series id. The
`parallelism` setting is validated, then dropped: it selects nothing and
stays out of `config_hash`. Worker threads made the run slower, because
the per-series work is Python-bound.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .conformal import (
    EnsembleSpec,
    SpciSpec,
    _NO_BACKTEST,
    _backtest_cutoffs,
    _calibration_origins,
    _check_ensemble_forecaster,
    _check_padding,
    _cohort_size,
    _conformal_radii,
    _cv_bounds,
    _enbpi_bounds,
    _parametric_bounds,
    _pooled_bounds,
    _row_faults,
    _signed_residuals,
    _spci_bounds,
    build_residual_matrix,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.build_residual_matrix
    cv_conformal_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.cv_conformal_intervals
    enbpi_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.enbpi_intervals
    global_cp_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.global_cp_intervals
    mscp_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.mscp_intervals
    parametric_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.parametric_intervals
    spci_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.spci_intervals
)
from .forecaster import (
    _METHOD_ERRORS,
    _SharedError,
    _check_seasonal_ends,
    _in_blocks,
    _prefix_forecasts,
    _refit_ends,
    ForecasterSpec,
    fit_auto_ar,  # noqa: F401  unused here, but perfbench/spans.py traces bench.fit_auto_ar
    forecast,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.forecast
)
from .metrics import MethodSummary, MetricRecord, aggregate, score_stack
from .metrics import series_metrics  # noqa: F401  unused here, but perfbench/spans.py traces bench.series_metrics
from .online import AciState, _aci_radii, acmcp_init_stacked, acmcp_interval, acmcp_run_stacked
# These stay importable here: perfbench/spans.py traces them by these names.
from .online import aci_interval, aci_step, acmcp_init, acmcp_step  # noqa: F401
from .series import PanelError, SeriesPanel, SplitSpec, TimeSeries, parse_panel, serialize_panel
from .stattest import FriedmanResult, PosthocResult, conover_posthoc, friedman_test, rank_scores
from .svgchart import cd_diagram_svg, coverage_bar_svg

GENERATORS = ("ar1", "seasonal_ar", "shift")


class NothingEvaluableError(RuntimeError):
    """No (series, method) pair could be evaluated."""


class BenchOutputError(RuntimeError):
    """Report files could not be written."""


def series_seed(seed: int, series_id: str) -> int:
    """Stable per-series RNG seed, independent of scheduling order."""
    digest = hashlib.sha256(f"{seed}:{series_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic panel description.

    ar1 draws a stationary AR(1); seasonal_ar adds a fixed sine cycle of
    the given amplitude on top of the AR noise; shift is an AR(1) with a
    level jump of shift_magnitude at fraction shift_at of the length.
    """

    generator: str = "ar1"
    n_series: int = 200
    length: int = 120
    period: int = 12
    phi: float = 0.8
    sigma: float = 1.0
    amplitude: float = 5.0
    shift_at: float = 0.5
    shift_magnitude: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.n_series < 1:
            raise ValueError(f"n_series must be >= 1, got {self.n_series}")
        if self.length < 8:
            raise ValueError(f"length must be >= 8, got {self.length}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not abs(self.phi) < 1.0:
            raise ValueError(f"stable generators need |phi| < 1, got {self.phi}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        for name in ("amplitude", "shift_magnitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.shift_at < 1.0:
            raise ValueError(f"shift_at must be in (0, 1), got {self.shift_at}")


def _ar_noise(rng: np.random.Generator, length: int, phi: float, sigma: float) -> np.ndarray:
    burn = 100
    eps = rng.normal(0.0, sigma, length + burn)
    x = np.empty(length + burn)
    x[0] = eps[0]
    for t in range(1, length + burn):
        x[t] = phi * x[t - 1] + eps[t]
    return x[burn:]


def generate_synthetic(spec: SyntheticSpec) -> SeriesPanel:
    """Seeded panel; identical spec gives an identical panel."""
    out = []
    for i in range(spec.n_series):
        sid = f"s{i:04d}"
        rng = np.random.default_rng(series_seed(spec.seed, sid))
        x = _ar_noise(rng, spec.length, spec.phi, spec.sigma)
        if spec.generator == "seasonal_ar":
            t = np.arange(1, spec.length + 1)
            y = spec.amplitude * np.sin(2.0 * np.pi * t / spec.period) + x
        elif spec.generator == "shift":
            y = x.copy()
            y[int(spec.shift_at * spec.length) :] += spec.shift_magnitude
        else:
            y = x
        out.append(
            TimeSeries(
                sid,
                np.arange(1, spec.length + 1, dtype=np.int64),
                y,
                period=spec.period,
                ds_kind="int",
            )
        )
    return SeriesPanel(tuple(out))


@dataclass(frozen=True)
class BenchmarkReport:
    """Everything a run produced, ready for emission."""

    records: tuple[MetricRecord, ...]
    summaries: dict[str, MethodSummary]
    friedman: FriedmanResult | None
    posthoc: PosthocResult | None
    rank_methods: tuple[str, ...]
    avg_ranks: tuple[float, ...]
    skips: tuple[tuple[str, str, str], ...]
    metadata: dict


def _min_train(period: int) -> int:
    return max(10, 2 * period)


def _end_rows(S: int, config: BenchConfig) -> np.ndarray:
    """S blank end rows of a prefix table, one record each: a series'
    forecast "fc" of its test block and the autoregression behind it, phi
    zero-padded to max_order (all zero under seasonal naive, which fits
    nothing)."""
    fields = [("fc", np.float64, (config.horizon,)), ("order", np.intp), ("intercept", np.float64),
              ("phi", np.float64, (config.forecaster.max_order,)), ("sigma2", np.float64)]
    return np.zeros(S, dtype=fields)


class _Table(NamedTuple):
    """A run's prefix table (see _prefix_table): read-only arrays of its
    series, their (S, H) test blocks ("truth") and the rows of each kind
    the methods read, and by kind and row the message of each row not made."""

    rows: dict[str, np.ndarray]
    faults: dict[str, dict[int, str]]

    def failures(self, kinds: tuple[str, ...]) -> dict[int, str]:
        """By row, each series' first failed row of the given kinds, in that order: its skip reason."""
        return {i: fault for kind in reversed(kinds) for i, fault in self.faults.get(kind, {}).items()}


def _prefix_block(
    series: np.ndarray, heads: np.ndarray, split: SplitSpec, config: BenchConfig, kinds: tuple[str, ...]
) -> dict[str, object]:
    """The rows of the given kinds of a block of series' (S, n) heads, of
    equal split (and period, for seasonal naive): each kind's stack, or
    each head's message where what the block shares stopped it."""
    H, (S, n), period = config.horizon, heads.shape, series[0].period
    # Each kind's rows: the offset of its stack into the heads, its prefix ends and its fit ends.
    plan: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
    if "end" in kinds:
        plan["end"] = (0, np.array([n]), np.array([n]))
    if "signed" in kinds:
        start, origins = _calibration_origins(n, split)
        plan["signed"] = (start, origins, _refit_ends(origins, config.refit_every))
    out: dict[str, object] = {}
    cutoffs = _backtest_cutoffs(n, config.n_windows, H)
    if "backtest" in kinds and cutoffs is None:
        out["backtest"] = [_NO_BACKTEST.format(ts.series_id, config.n_windows, H) for ts in series]
    elif "backtest" in kinds:
        try:
            if config.forecaster.kind == "seasonal_naive":
                _check_seasonal_ends(cutoffs, period)
            plan["backtest"] = (0, cutoffs, cutoffs)
        except ValueError as e:
            # Every series of the block shares the cutoffs, so it shares
            # the error: no solve and no retry finds another message.
            out["backtest"] = [str(e)] * S
    for offset in sorted({offset for offset, _, _ in plan.values()}):
        group = {kind: plan[kind] for kind in plan if plan[kind][0] == offset}
        stack = heads[:, offset:]
        fits, yhat = _prefix_forecasts(
            stack, np.concatenate([ends for _, ends, _ in group.values()]),
            np.concatenate([fit_ends for _, _, fit_ends in group.values()]), config.forecaster, period, H,
        )
        first = 0
        for kind, (_, ends, _) in group.items():
            part = slice(first, first + len(ends))
            first = part.stop
            if kind == "end":
                out[kind] = end = _end_rows(S, config)
                end["fc"] = yhat[:, part.start]
                if fits is not None:
                    for name in ("order", "intercept", "sigma2"):
                        end[name] = getattr(fits, name)[:, part.start]
                    end["phi"][:, : fits.phi.shape[2]] = fits.phi[:, part.start]
            else:
                out[kind] = _signed_residuals(stack, ends, yhat[:, part])
                if kind == "signed":
                    _check_padding(out[kind])
    return out


def _prefix_table(panel: SeriesPanel, config: BenchConfig) -> tuple[_Table, list[tuple[str, str, str]]]:
    """Every forecast a run makes from a prefix of a head (a series but its
    test block), over the series long enough to evaluate; and a skip for
    every method on each other series.

    The table holds one array, in panel order, of each kind the run's
    methods read (`_Method.reads`): "end", a fit on the whole head and its
    forecast of the test block (`_end_rows`); "signed", the (cal_len, H)
    signed residuals of the calibration origins, each forecast from the
    latest fit at or before its origin, refitted every refit_every origins,
    NaN where the truth lies past the calibration segment; "backtest",
    cv_cp's (n_windows, H) residuals at its cutoffs, each from its own fit;
    and the message of each row that could not be made, such as cv_cp's
    for a head too short. Heads of equal length, split (and period, for
    seasonal naive) form blocks of at most _STACK_BLOCK, and each block
    makes the union of its rows' prefix fits in one solve and their
    forecasts in one recursion, or, with train_len set, one more for the
    calibration segment, which then starts inside the head. A fit is the
    same whichever other prefixes share its solve, so every row is bit for
    bit the lone fit_auto_ar, forecast, build_residual_matrix or cv_cp
    backtest result. A block whose solve raises is redone one series at a
    time, and a series that still fails once per kind, so that each kind
    keeps its own error message.
    """
    H, cal_len = config.horizon, config.cal_len
    skips: list[tuple[str, str, str]] = []
    series: list[TimeSeries] = []
    train_lens: list[int] = []
    for ts in panel:
        n = len(ts)
        train_len = config.train_len if config.train_len is not None else n - cal_len - H
        if train_len < _min_train(ts.period) or n < train_len + cal_len + H:
            reason = f"series too short: {n} observations for train {train_len}, cal {cal_len}, test {H}"
            skips.extend((ts.series_id, m, reason) for m in config.methods)
        else:
            series.append(ts)
            train_lens.append(train_len)
    S = len(series)
    kinds = tuple(sorted({kind for m in config.methods for kind in _METHODS[m].reads} - {"series"}))
    rows = {"series": np.empty(S, dtype=object), "truth": np.empty((S, H))}
    rows["series"][:] = series
    residual_rows = {"signed": cal_len, "backtest": config.n_windows}
    for kind in kinds:
        rows[kind] = _end_rows(S, config) if kind == "end" else np.full((S, residual_rows[kind], H), np.nan)
    table = _Table(rows, {kind: {} for kind in kinds})

    def fill(block: list[int], kinds: tuple[str, ...]) -> list[None]:
        values = np.stack([series[i].values for i in block])
        rows["truth"][block] = values[:, -H:]
        split = SplitSpec(train_lens[block[0]], cal_len, H)
        for kind, part in _prefix_block(rows["series"][block], values[:, :-H], split, config, kinds).items():
            if isinstance(part, list):
                table.faults[kind].update(zip(block, part))
            else:
                rows[kind][block] = part
        return [None] * len(block)

    seasonal = config.forecaster.kind == "seasonal_naive"
    keys = [(len(ts), train_len, ts.period if seasonal else 0) for ts, train_len in zip(series, train_lens)]
    failed = [i for i, error in enumerate(_in_blocks(keys, lambda block: fill(block, kinds))) if error is not None]
    for i, kind in itertools.product(failed, kinds):
        try:
            fill([i], (kind,))
        except _METHOD_ERRORS as e:
            table.faults[kind][i] = str(e)
    for a in rows.values():
        a.flags.writeable = False
    return table, skips


def _checked(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """(S, H) bound stacks and each row's fault (`conformal._row_faults`)."""
    return lower, upper, _row_faults(lower, upper)


def _global_cp(c: BenchConfig, table: _Table, ready: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Pool the series' forecasts, the first in panel order the cohort:
    each becomes an interval on an evaluation series, or a skip on a
    calibration series or when pooling fails."""
    fc = table.rows["end"]["fc"][ready]
    lower, upper = fc.copy(), fc.copy()
    try:
        k = _cohort_size(len(ready), c.cohort_split)
        _, lower[k:], upper[k:] = _pooled_bounds(table.rows["truth"][ready[:k]], fc, c.alpha)
    except ValueError as e:
        return lower, upper, [str(e)] * len(ready)
    return lower, upper, ["spent as pooled calibration cohort"] * k + [None] * (len(ready) - k)


# A method is the kinds of prefix-table rows it reads and its run, which
# maps the config, the table and the rows of the series with every read to
# their (S, H) bounds and each one's skip reason or None.
_Method = NamedTuple("_Method", [("reads", tuple[str, ...]), ("run", Callable)])


def _stacked(reads: tuple[str, ...], rule: Callable, key: Callable | None = None) -> _Method:
    """A method whose run solves blocks of series of equal key(*rows)
    (`_in_blocks`) by rule(config, *rows), where rows are a block's rows of
    each kind it reads; rule gives their bounds and each one's fault. By
    default every series shares one key: every row of one kind has one
    shape in a run, and every signed row NaN exactly where r + h - 1 >= cal_len.
    """

    def run(c: BenchConfig, table: _Table, ready: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        lower, upper = np.empty((2, len(ready), c.horizon))

        def solve(block: list[int]) -> list[str | None]:
            lower[block], upper[block], faults = rule(c, *(table.rows[kind][ready[block]] for kind in reads))
            return faults

        keys = [None] * len(ready) if key is None else key(*(table.rows[kind][ready] for kind in reads))
        return lower, upper, _in_blocks(keys, solve)

    return _Method(reads, run)


def _scores(signed: np.ndarray) -> np.ndarray:
    """The absolute values of an (S, R, H) signed stack as one (R, S*H)
    score matrix: series s's horizon h at column s*H + h-1."""
    return np.abs(signed).transpose(1, 0, 2).reshape(signed.shape[1], -1)


@contextlib.contextmanager
def _shared() -> Iterator[None]:
    """Mark a ValueError raised inside as every series' of the block
    (`forecaster._SharedError`): a failure of a block's shapes alone, which
    its series share, as they share their NaN padding (`_stacked`)."""
    try:
        yield
    except ValueError as e:
        raise _SharedError(str(e)) from e


def _spci(c: BenchConfig, end: np.ndarray, signed: np.ndarray) -> tuple:
    """SPCI of a block of series, each as alone: one quantile regression
    solve per row bucket for the residual columns of all its horizons."""
    return _checked(*_spci_bounds(end["fc"], signed, SpciSpec(lag_count=c.spci_lags), c.alpha)[:2])


def _acmcp(c: BenchConfig, end: np.ndarray, signed: np.ndarray) -> tuple:
    """One quantile tracker per horizon through each series' calibration
    stream, for a block of series run as one stack of trackers of every
    horizon, each series as alone. Horizon h's stream is a series' first
    m_h scores of column h, its first burn_h of them the warm-up."""
    S, R, H = signed.shape
    m = np.count_nonzero(~np.isnan(signed[0]), axis=0)  # the series share their NaN padding
    burn = np.maximum(5, np.minimum(10, m // 3))
    short = m < burn + 1
    if short.any():
        h = int(np.argmax(short))
        raise _SharedError(f"horizon {h + 1} stream too short to warm a tracker: {m[h]}")
    # Tracker (h, s) at row (h - 1) * S + s.
    streams = np.abs(signed).transpose(2, 0, 1).reshape(H * S, R)
    warm, total = np.repeat(burn, S), np.repeat(m, S)
    after = np.take_along_axis(streams, np.minimum(warm[:, None] + np.arange(R - burn.min()), R - 1), axis=1)
    states = acmcp_init_stacked(np.repeat(np.arange(1, H + 1), S), streams[:, : burn.max()], c.alpha, warm)
    states = acmcp_run_stacked(states, after, total - warm)
    bounds = np.array([acmcp_interval(state, y) for state, y in zip(states, end["fc"].T.ravel().tolist())])
    bounds = bounds.reshape(H, S, 2).transpose(1, 0, 2)  # series, horizon, (lower, upper)
    return _checked(bounds[..., 0], bounds[..., 1])


def _mscp(c: BenchConfig, end: np.ndarray, signed: np.ndarray) -> tuple:
    """Split conformal intervals of a block of series, every radius from one
    _conformal_radii call on their (R, S*H) scores, each as alone."""
    fc = end["fc"]
    with _shared():  # an empty column, or an invalid level
        radii = _conformal_radii(_scores(signed), 1.0 - c.alpha).reshape(fc.shape)
    return _checked(fc - radii, fc + radii)


def _aci_warmup(stream: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    """The final adaptive level of each column of an (R, S) stack of h=1
    score streams, every level warmed through its stream at once by
    aci_step's update at the radius of the scores before each step."""
    if len(stream) < 2:
        raise ValueError("adaptive calibration needs >= 2 one-step scores")
    alpha_t = np.full(stream.shape[1], alpha)
    for t in range(1, len(stream)):
        err = stream[t] > _aci_radii(stream[:t], alpha_t)
        alpha_t = alpha_t + gamma * (alpha - err)
    return alpha_t


def _aci(c: BenchConfig, end: np.ndarray, signed: np.ndarray) -> tuple:
    """ACI of a block of series, each as alone: per-horizon intervals at
    the level each series' h=1 stream warms (`_aci_warmup`)."""
    fc, scores = end["fc"], _scores(signed)
    with _shared():  # too few scores, or an empty column
        alpha_t = _aci_warmup(scores[:, :: fc.shape[1]], c.alpha, c.gamma)
        radii = _aci_radii(scores, np.repeat(alpha_t, fc.shape[1])).reshape(fc.shape)
    return _checked(fc - radii, fc + radii)


def _enbpi(c: BenchConfig, series: np.ndarray) -> tuple:
    """EnbPI of a block of series of one length and period, each drawing
    its members from its own seed, each as alone."""
    with _shared():  # checked before any member is drawn: under seasonal naive no block is solved
        _check_ensemble_forecaster(c.forecaster)
    specs = [
        EnsembleSpec(B=c.enbpi_members, window_len=c.enbpi_window, seed=series_seed(c.seed, ts.series_id))
        for ts in series
    ]
    return _enbpi_bounds(series, c.horizon, specs, c.forecaster, c.alpha)[:3]  # less the diagnostics


def _cv_cp(c: BenchConfig, end: np.ndarray, backtest: np.ndarray) -> tuple:
    """cv_cp of a block of series, each as alone, from its backtest rows."""
    return _checked(*_cv_bounds(end["fc"], backtest, c.alpha))


def _parametric(c: BenchConfig, end: np.ndarray) -> tuple:
    """Gaussian intervals of a block of series, each as alone, from one
    stacked psi-weight recursion of their autoregressions."""
    if c.forecaster.kind != "auto_ar":
        raise _SharedError("parametric intervals require an autoregressive forecaster")
    return _checked(*_parametric_bounds(end["phi"], end["order"], end["sigma2"], end["fc"], c.alpha))


_METHODS = {
    "mscp": _stacked(("end", "signed"), _mscp),
    "enbpi": _stacked(("series",), _enbpi, key=lambda series: [(len(ts), ts.period) for ts in series]),
    "spci": _stacked(("end", "signed"), _spci),
    "global_cp": _Method(("end",), _global_cp),
    "cv_cp": _stacked(("end", "backtest"), _cv_cp),
    "aci": _stacked(("end", "signed"), _aci),
    "acmcp": _stacked(("end", "signed"), _acmcp),
    "parametric": _stacked(("end",), _parametric),
}
METHODS = tuple(_METHODS)


@dataclass(frozen=True)
class BenchConfig:
    """Full run configuration; every field has a usable default except data."""

    data: str | None = None
    alpha: float = 0.1
    horizon: int = 12
    methods: tuple[str, ...] = METHODS
    forecaster: ForecasterSpec = field(default_factory=ForecasterSpec)
    cal_len: int = 36
    train_len: int | None = None
    refit_every: int | None = 1
    period: int = 12
    seed: int = 0
    out_dir: str | None = None
    parallelism: dataclasses.InitVar[int] = 1  # validated only: no field, so not in config_hash
    cohort_split: float = 0.5
    n_windows: int = 2
    gamma: float = 0.01
    enbpi_members: int = 20
    enbpi_window: int = 100
    spci_lags: int = 8

    def __post_init__(self, parallelism: int) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not self.methods:
            raise ValueError("method list must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}; choose from {METHODS}")
        duplicates = [m for m, count in Counter(self.methods).items() if count > 1]
        if duplicates:
            raise ValueError(f"duplicate methods: {duplicates}")
        if self.cal_len < 2:
            raise ValueError(f"cal_len must be >= 2, got {self.cal_len}")
        # _min_train(1) is the least training length of any period.
        if self.train_len is not None and self.train_len < _min_train(1):
            raise ValueError(f"train_len must be >= {_min_train(1)}, got {self.train_len}")
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.refit_every is not None and self.refit_every < 1:
            raise ValueError(f"refit_every must be >= 1 or None, got {self.refit_every}")
        if not 0.0 < self.cohort_split < 1.0:
            raise ValueError(f"cohort_split must be in (0, 1), got {self.cohort_split}")
        if self.n_windows < 1:
            raise ValueError(f"n_windows must be >= 1, got {self.n_windows}")
        # The method states and specs check the fields they take.
        AciState(alpha_t=self.alpha, gamma=self.gamma, target=self.alpha)
        EnsembleSpec(B=self.enbpi_members, window_len=self.enbpi_window)
        SpciSpec(lag_count=self.spci_lags)
        object.__setattr__(self, "methods", tuple(self.methods))

    def config_hash(self) -> str:
        return hashlib.sha256(repr(dataclasses.asdict(self)).encode()).hexdigest()[:12]


# An InitVar's default stays behind as a class attribute, which every config
# would read as its parallelism whatever was passed. __init__ keeps its own
# copy of the default. dataclasses.replace reads every InitVar back from
# the config it copies, so the InitVar leaves the field table too: replace
# then passes no parallelism, and __init__ takes its default.
del BenchConfig.parallelism
del BenchConfig.__dataclass_fields__["parallelism"]


def _evaluate(config: BenchConfig, table: _Table, method: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """One method's run over a prefix table: the rows of the series it
    scores, their (S, H) lower and upper bounds, and by row every other
    series' skip reason."""
    reads, run = _METHODS[method]
    skipped = table.failures(reads)
    ready = np.delete(np.arange(len(table.rows["series"])), list(skipped))
    lower, upper, reasons = run(config, table, ready)
    scored = np.array([reason is None for reason in reasons], dtype=bool)
    skipped |= {i: reason for i, reason in zip(ready.tolist(), reasons) if reason is not None}
    return ready[scored], lower[scored], upper[scored], skipped


def run_benchmark(config: BenchConfig, panel: SeriesPanel | None = None) -> BenchmarkReport:
    """Evaluate every configured method on every evaluable series.

    Raises PanelError for unreadable/unparseable data and
    NothingEvaluableError when no (series, method) pair can be scored.
    Per-method failures on individual series become skip entries instead
    of aborting the run.
    """
    t0 = time.perf_counter()
    if panel is None:
        if config.data is None:
            raise PanelError("no data source: set the data path or pass a panel")
        try:
            text = Path(config.data).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
        except OSError as e:
            raise PanelError(f"cannot read data file {config.data!r}: {e}") from None
        except UnicodeDecodeError as e:
            raise PanelError(f"cannot decode data file {config.data!r} as UTF-8: {e}") from None
        panel = parse_panel(text, period=config.period)

    prefix, skips = _prefix_table(panel, config)
    ids = [ts.series_id for ts in prefix.rows["series"]]
    if not ids:
        raise NothingEvaluableError("no series long enough to evaluate")

    records: list[MetricRecord] = []
    for method in config.methods:
        rows, lower, upper, skipped = _evaluate(config, prefix, method)
        skips.extend((ids[i], method, reason) for i, reason in skipped.items())
        scored = [ids[i] for i in rows.tolist()]
        records.extend(score_stack(method, scored, lower, upper, prefix.rows["truth"][rows], config.alpha))
    if not records:
        reason = Counter(s[2] for s in skips).most_common(1)[0][0]
        raise NothingEvaluableError(
            f"every (series, method) evaluation was skipped; most often: {reason}"
        )
    records.sort(key=lambda r: (r.series_id, r.method))
    skips.sort(key=lambda s: (s[0], s[1]))
    summaries = aggregate(records)

    winkler = {(rec.series_id, rec.method): rec.winkler for rec in records}
    rank_methods = tuple(m for m in config.methods if m in summaries)
    complete = [
        sid for sid in sorted({rec.series_id for rec in records})
        if all(math.isfinite(winkler.get((sid, m), math.nan)) for m in rank_methods)
    ]
    friedman = posthoc = None
    avg_ranks: tuple[float, ...] = ()
    if len(rank_methods) >= 2 and len(complete) >= 2:
        matrix = np.array([[winkler[sid, m] for m in rank_methods] for sid in complete])
        table = rank_scores(matrix)
        friedman = friedman_test(table)
        avg_ranks = tuple(float(r) for r in table.avg_ranks)
        if friedman.p_value < 0.05:
            posthoc = conover_posthoc(table, alpha=0.05)

    metadata = {
        "seed": config.seed,
        "config_hash": config.config_hash(),
        "alpha": config.alpha,
        "horizon": config.horizon,
        "methods": list(config.methods),
        "n_series": len(panel),
        "n_series_evaluated": len(ids),
        "n_rank_series": len(complete) if len(rank_methods) >= 2 else 0,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    return BenchmarkReport(
        records=tuple(records),
        summaries=summaries,
        friedman=friedman,
        posthoc=posthoc,
        rank_methods=rank_methods,
        avg_ranks=avg_ranks,
        skips=tuple(skips),
        metadata=metadata,
    )


def _json_safe(value: float) -> float | None:
    return value if math.isfinite(value) else None


def summary_payload(report: BenchmarkReport) -> dict:
    """JSON-ready view of a report; everything volatile sits under metadata."""
    methods = {
        m: {
            "n_series": s.n_series,
            "coverage": round(s.coverage, 10),
            "width": _json_safe(round(s.width, 10)),
            "winkler": _json_safe(round(s.winkler, 10)),
            "joint_coverage": round(s.joint_coverage, 10),
            "infinite_cells": s.infinite_cells,
        }
        for m, s in report.summaries.items()
    }
    friedman = None
    if report.friedman is not None:
        friedman = {
            "statistic": round(report.friedman.statistic, 10),
            "df": report.friedman.df,
            "p_value": round(report.friedman.p_value, 12),
            "methods": list(report.rank_methods),
            "avg_ranks": [round(r, 10) for r in report.avg_ranks],
        }
    posthoc = None
    if report.posthoc is not None:
        posthoc = {
            "cd": round(report.posthoc.cd, 10),
            "cliques": [
                [report.rank_methods[i] for i in clique]
                for clique in report.posthoc.cliques
            ],
        }
    return {
        "methods": methods,
        "friedman": friedman,
        "posthoc": posthoc,
        "skips": [list(s) for s in report.skips],
        "metadata": report.metadata,
    }


def emit_reports(report: BenchmarkReport, out_dir: str) -> dict[str, str]:
    """Write metrics.csv, summary.json, coverage.svg, and cd.svg."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["series", "method", "coverage", "width", "winkler"])
        writer.writerows(
            [r.series_id, r.method, repr(r.marginal_coverage), repr(r.mean_width), repr(r.winkler)]
            for r in report.records
        )
        paths["metrics"] = os.path.join(out_dir, "metrics.csv")
        Path(paths["metrics"]).write_text(buf.getvalue())

        paths["summary"] = os.path.join(out_dir, "summary.json")
        Path(paths["summary"]).write_text(
            json.dumps(summary_payload(report), indent=2, sort_keys=True) + "\n"
        )

        cov_methods = [m for m in report.metadata["methods"] if m in report.summaries]
        coverages = [report.summaries[m].coverage for m in cov_methods]
        target = 1.0 - report.metadata["alpha"]
        paths["coverage"] = os.path.join(out_dir, "coverage.svg")
        Path(paths["coverage"]).write_text(
            coverage_bar_svg(cov_methods, coverages, target)
        )

        if report.rank_methods and report.avg_ranks:
            cd_methods, ranks = list(report.rank_methods), list(report.avg_ranks)
        else:  # no rank test: rank the methods by cohort Winkler, a NaN last
            cd_methods = cov_methods
            scores = [report.summaries[m].winkler for m in cd_methods]
            order = np.argsort([w if math.isfinite(w) else math.inf for w in scores], kind="stable")
            ranks = (np.argsort(order) + 1.0).tolist()
        # A post-hoc test runs only after a rank test.
        cliques, cd = (tuple(range(len(cd_methods))),), None
        if report.posthoc is not None:
            cliques, cd = report.posthoc.cliques, report.posthoc.cd
        paths["cd"] = os.path.join(out_dir, "cd.svg")
        Path(paths["cd"]).write_text(cd_diagram_svg(cd_methods, ranks, cliques, cd))
        return paths
    except OSError as e:
        raise BenchOutputError(f"cannot write reports to {out_dir!r}: {e}") from None


_CONFIG_KEYS = {
    "data": str,
    "alpha": float,
    "horizon": int,
    "methods": str,
    "cal_len": int,
    "train_len": int,
    "refit_every": str,
    "period": int,
    "seed": int,
    "out": str,
    "parallelism": int,
    "cohort_split": float,
    "n_windows": int,
    "gamma": float,
    "enbpi_members": int,
    "enbpi_window": int,
    "spci_lags": int,
    "forecaster": str,
    "max_order": int,
    "include_drift": str,
}


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines; # starts a comment; quotes around values optional."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip().strip("\"'")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(key: str, value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise ValueError(f"{key} must be one of true/false/yes/no/1/0, got {value!r}") from None


def build_config(file_values: dict[str, str] | None = None, **overrides) -> BenchConfig:
    """Merge config-file values with explicit overrides (overrides win)."""
    raw: dict[str, str] = dict(file_values or {})
    for key, value in overrides.items():
        if value is not None:
            raw[key] = str(value)
    kwargs: dict = {}
    fc_kwargs: dict = {}
    for key, value in raw.items():
        if key == "methods":
            kwargs["methods"] = tuple(m.strip() for m in value.split(",") if m.strip())
        elif key == "out":
            kwargs["out_dir"] = value
        elif key == "refit_every":
            kwargs["refit_every"] = None if value.lower() in ("none", "never") else int(value)
        elif key == "forecaster":
            fc_kwargs["kind"] = value
        elif key == "max_order":
            fc_kwargs["max_order"] = int(value)
        elif key == "include_drift":
            fc_kwargs["include_drift"] = _parse_bool(key, value)
        else:
            kwargs[key] = _CONFIG_KEYS[key](value)
    if fc_kwargs:
        kwargs["forecaster"] = ForecasterSpec(**fc_kwargs)
    return BenchConfig(**kwargs)


def write_panel_csv(panel: SeriesPanel, path: str) -> None:
    try:
        Path(path).write_text(serialize_panel(panel), encoding="utf-8")
    except OSError as e:
        raise BenchOutputError(f"cannot write panel to {path!r}: {e}") from None
