"""Benchmark orchestration: config, synthetic panels, method evaluation,
aggregation, rank tests, and report emission.

A run builds one context per eligible series. Its head, the series less
its test block, is a read-only view of the series' arrays
(`TimeSeries.head`). The contexts share one prefix table (`_PrefixTable`)
of every forecast the run makes from a prefix of a head: each series'
end, its model and its one point forecast `fc` of the test block; the
calibration origins of its residual matrix, for mscp, aci, acmcp and
spci; and cv_cp's backtest cutoffs. The first time a method asks for a
row, the table is made for the kinds the configured methods read, with
one batched AR solve of the union of their prefix fits and one recursion
per block of equal-length heads (`forecaster._prefix_forecasts`), or, for
seasonal naive, one index gather per block of equal length and period.
A fit is the same whichever prefixes share its solve, so every row is
what the lone public builds give (`fit_auto_ar`, `forecast`,
`build_residual_matrix`, `cv_conformal_intervals`). One table
(`_METHODS`) gives each method the kinds of row it reads and one function
of all the contexts that returns each series' intervals or skip reason.
The methods run in configured order and share the contexts. Every method
but enbpi, whose bootstrap ensemble makes its own one-step forecasts,
wraps `fc`. global_cp and cv_cp pool the forecasts of all the contexts
into one call: global_cp calibrates on a cohort of series, and cv_cp
takes each series' radii from its backtest rows in the radius step of
`cv_conformal_intervals`. parametric takes every series' forecast
variance from one stacked psi-weight recursion
(`conformal.parametric_intervals_stacked`). Every other method is an
entry of one skeleton (`_stacked`), which solves the series that have
its inputs in blocks of equal key (`_in_blocks`): mscp takes a block's
radii in one conformal radius call (`conformal._conformal_radii`); aci
warms a block's h=1 streams at once, one radius call a step at each
series' own level; spci stacks a block's equal-length residual columns
at each horizon into one quantile regression solve; acmcp runs a block's
score streams at each horizon as one stack of trackers; enbpi fits the
members of a block of equal length and period in stacked solves
(`conformal.enbpi_intervals_stacked`). Each series gets what it gets
alone. The methods build their intervals as row views of one validated
bound stack (`conformal._interval_rows`), and each method's intervals
are scored in one pass over all its series (`metrics.score_records`).

Every run is a pure function of (config, data, seed): per-series RNG seeds
are derived by hashing the global seed with the series id. The
`parallelism` setting is validated but selects nothing; worker threads
made the run slower, because the per-series work is Python-bound.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Hashable, NamedTuple

import numpy as np

from .conformal import (
    EnsembleSpec,
    IntervalMatrix,
    ResidualMatrix,
    SpciSpec,
    _check_ensemble_forecaster,
    _conformal_radii,
    _interval_rows,
    _rows_or_raise,
    _signed_residuals,
    build_residual_matrix,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.build_residual_matrix
    cv_conformal_intervals,
    enbpi_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.enbpi_intervals
    enbpi_intervals_stacked,
    global_cp_intervals,
    mscp_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.mscp_intervals
    parametric_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.parametric_intervals
    parametric_intervals_stacked,
    spci_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.spci_intervals
    spci_intervals_stacked,
)
from .forecaster import (
    _METHOD_ERRORS,
    _check_seasonal_ends,
    _in_blocks,
    _models,
    _prefix_forecasts,
    _refit_ends,
    FittedForecaster,
    ForecasterSpec,
    fit_auto_ar,  # noqa: F401  unused here, but perfbench/spans.py traces bench.fit_auto_ar
    forecast,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.forecast
)
from .metrics import MethodSummary, MetricRecord, aggregate, score_records
from .metrics import series_metrics  # noqa: F401  unused here, but perfbench/spans.py traces bench.series_metrics
from .online import AciState, acmcp_init_stacked, acmcp_interval, acmcp_run_stacked
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


class _SeriesEnd(NamedTuple):
    """A series' point forecast of its test block, and the autoregression
    behind it (None for seasonal naive)."""

    model: FittedForecaster | None
    fc: np.ndarray


class _PrefixTable:
    """Every forecast a run makes from a prefix of a context's head, by
    series id and kind, made the first time any context asks for one.

    The kinds are those the run's methods read (`_Method.reads`):
    - "end": the series end, a fit on the whole head and its forecast of
      the test block (`_SeriesEnd`);
    - "signed": the calibration residual matrix, whose origins take the
      latest fit at or before them, refitted every refit_every origins;
    - "backtest": cv_cp's (n_windows, horizon) residuals at its cutoffs,
      each from its own fit; None where the head is too short for them.
    Heads of equal length, split (and period, for seasonal naive) form
    blocks of at most _STACK_BLOCK, and each block makes the union of its
    rows' prefix fits in one solve and their forecasts in one recursion
    (`forecaster._prefix_forecasts`). With train_len set the calibration
    segment starts after the head's first value, so its rows take a second
    call on that shifted stack. A fit is the same whichever other prefixes
    share its solve, so every row is bit for bit the lone fit_auto_ar,
    forecast, build_residual_matrix or cv_cp backtest result. A block whose
    solve raises is redone one series at a time, and a series that still
    fails once per kind, so that each kind keeps its own error message.
    """

    def __init__(self, config: BenchConfig):
        self.config = config
        self.kinds = tuple(sorted({kind for m in config.methods for kind in _METHODS[m].reads}))
        # The contexts' heads and splits, not the contexts, which hold this
        # table: a reference cycle would keep every context alive until the
        # cyclic GC ran.
        self.members: list[tuple[TimeSeries, SplitSpec]] = []

    @cached_property
    def rows(self) -> dict[str, dict[str, object]]:
        seasonal = self.config.forecaster.kind == "seasonal_naive"
        keys = [(len(head), split.train_len, head.period if seasonal else 0) for head, split in self.members]
        out = _in_blocks(keys, lambda block: self._solve(block, self.kinds))
        for i, row in enumerate(out):
            if isinstance(row, str):
                out[i] = {}
                for kind in self.kinds:
                    try:
                        out[i] |= self._solve([i], (kind,))[0]
                    except _METHOD_ERRORS as e:
                        out[i][kind] = str(e)
        return {head.series_id: row for (head, _), row in zip(self.members, out)}

    def _solve(self, block: list[int], kinds: tuple[str, ...]) -> list[dict[str, object]]:
        """The rows of the given kinds of a block of equal keys."""
        c, H = self.config, self.config.horizon
        head, split = self.members[block[0]]
        values = np.stack([self.members[i][0].values for i in block])
        n = values.shape[1]
        start = n - split.train_len - split.cal_len
        # Each kind's rows: the offset of its stack into the heads, its prefix ends and its fit ends.
        plan: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
        if "end" in kinds:
            plan["end"] = (0, np.array([n]), np.array([n]))
        if "signed" in kinds:
            origins = np.arange(split.train_len, n - start)
            plan["signed"] = (start, origins, _refit_ends(origins, c.refit_every))
        out: list[dict[str, object]] = [dict.fromkeys(kinds) for _ in block]
        cutoffs = n - H * np.arange(c.n_windows, 0, -1)
        if "backtest" in kinds and cutoffs[0] >= 3:
            try:
                if c.forecaster.kind == "seasonal_naive":
                    _check_seasonal_ends(cutoffs, head.period)
                plan["backtest"] = (0, cutoffs, cutoffs)
            except ValueError as e:
                # Every series of the block shares the cutoffs, so it shares
                # the error: no solve and no retry finds another message.
                for row in out:
                    row["backtest"] = str(e)
        for offset in sorted({offset for offset, _, _ in plan.values()}):
            group = {kind: plan[kind] for kind in plan if plan[kind][0] == offset}
            stack = values[:, offset:]
            fits, yhat = _prefix_forecasts(
                stack, np.concatenate([ends for _, ends, _ in group.values()]),
                np.concatenate([fit_ends for _, _, fit_ends in group.values()]), c.forecaster, head.period, H,
            )
            first = 0
            for kind, (_, ends, _) in group.items():
                part = slice(first, first + len(ends))
                first = part.stop
                if kind == "end":
                    models = [None] * len(block) if fits is None else _models(fits, part.start)
                    cells = map(_SeriesEnd, models, np.ascontiguousarray(yhat[:, part.start]))
                else:
                    cells = _signed_residuals(stack, ends, yhat[:, part])
                    if kind == "signed":
                        origins = tuple(ends.tolist())
                        cells = (ResidualMatrix(m, origins, signed=True) for m in cells)
                for row, cell in zip(out, cells):
                    row[kind] = cell
        return out


class _SeriesContext:
    """One series' inputs shared by its methods.

    Its forecasts and residuals are read off the run's prefix table; a
    build that raised left its message there, and every method that needs
    it raises the same error, which becomes that method's skip reason.
    """

    def __init__(self, series: TimeSeries, config: BenchConfig, split: SplitSpec, table: _PrefixTable):
        self.series = series
        self.config = config
        self.split = split
        self.head = series.head(len(series) - config.horizon)  # all but the test block, a view
        self.table = table

    def _read(self, kind: str):
        value = self.table.rows[self.series.series_id][kind]
        if isinstance(value, str):
            raise ValueError(value)
        return value

    @property
    def signed(self) -> ResidualMatrix:
        """Signed rolling-origin residuals over the calibration segment."""
        return self._read("signed")

    @cached_property
    def abs_matrix(self) -> ResidualMatrix:
        return ResidualMatrix(np.abs(self.signed.matrix), self.signed.origins, signed=False)

    @property
    def backtest(self) -> np.ndarray | str | None:
        """cv_cp's signed backtest residuals, the message of what stopped
        them, or None where the head is too short for a backtest."""
        return self.table.rows[self.series.series_id]["backtest"]

    @property
    def end(self) -> _SeriesEnd:
        return self._read("end")

    @property
    def model(self) -> FittedForecaster | None:
        """The autoregression behind the forecast; None for seasonal naive."""
        if self.config.forecaster.kind != "auto_ar":
            return None
        return self.end.model

    @property
    def fc(self) -> np.ndarray:
        """The series' one point forecast of its test block."""
        return self.end.fc


def _per_series(method: Callable[[_SeriesContext], IntervalMatrix]) -> Callable:
    """Lift a method of one series' context to every context; a method
    error on a series becomes that series' skip reason."""

    def run(contexts: list[_SeriesContext]) -> dict[str, IntervalMatrix | str]:
        out = {}
        for ctx in contexts:
            sid = ctx.series.series_id
            try:
                out[sid] = method(ctx)
            except _METHOD_ERRORS as e:
                out[sid] = str(e)
        return out

    return run


def _forecasts(contexts: list[_SeriesContext]) -> tuple[dict[str, np.ndarray | str], dict[str, np.ndarray]]:
    """Every context's forecast or skip reason, and the forecasts alone."""
    out = _per_series(lambda ctx: ctx.fc)(contexts)
    return out, {sid: fc for sid, fc in out.items() if not isinstance(fc, str)}


def _global_cp(contexts: list[_SeriesContext]) -> dict[str, IntervalMatrix | str]:
    """Pool the series' forecasts. Each becomes an interval on an evaluation
    series, or a skip on a calibration series or when pooling fails."""
    c = contexts[0].config
    out, forecasts = _forecasts(contexts)
    try:
        cohort = SeriesPanel(tuple(ctx.series for ctx in contexts if ctx.series.series_id in forecasts))
        result = global_cp_intervals(cohort, c.cohort_split, forecasts, c.alpha, c.horizon)
    except ValueError as e:
        return out | dict.fromkeys(forecasts, str(e))
    cohort_skips = dict.fromkeys(result.calibration_ids, "spent as pooled calibration cohort")
    return out | cohort_skips | result.intervals


def _cv_cp(contexts: list[_SeriesContext]) -> dict[str, IntervalMatrix | str]:
    """Calibrate every series with a forecast on its backtest rows of the
    prefix table, in one pooled call on the series' heads; a series
    without a forecast keeps its forecast's skip reason."""
    c = contexts[0].config
    out, forecasts = _forecasts(contexts)
    ready = [ctx for ctx in contexts if ctx.series.series_id in forecasts]
    backtests = {ctx.series.series_id: ctx.backtest for ctx in ready if ctx.backtest is not None}
    heads = [ctx.head for ctx in ready]
    return out | cv_conformal_intervals(forecasts, heads, c.n_windows, c.forecaster, c.alpha, backtests)


def _column_lengths(pair: tuple[np.ndarray, ResidualMatrix]) -> tuple[int, ...]:
    """A (forecast, residuals) pair's residual count per horizon: equal counts stack."""
    return tuple(np.count_nonzero(~np.isnan(pair[1].matrix), axis=0).tolist())


def _stacked(
    inputs: Callable[[_SeriesContext], object], key: Callable[[object], Hashable], solve: Callable
) -> Callable:
    """A method that reads inputs(ctx) from every context and gives every
    series whose inputs exist the results of solve(config, block), which
    takes the inputs of a block of series of equal key(inputs) and returns
    one result per series (`_in_blocks`); a series without its inputs
    keeps the skip reason of what failed."""

    def run(contexts: list[_SeriesContext]) -> dict[str, IntervalMatrix | str]:
        c = contexts[0].config
        out = _per_series(inputs)(contexts)
        ready = {sid: x for sid, x in out.items() if not isinstance(x, str)}
        items = list(ready.values())
        keys = [key(x) for x in items]
        return out | dict(zip(ready, _in_blocks(keys, lambda block: solve(c, [items[i] for i in block]))))

    return run


def _spci(c: BenchConfig, block: list[tuple[np.ndarray, ResidualMatrix]]) -> list[IntervalMatrix]:
    """SPCI of a block of series, each as alone: one quantile regression
    solve per horizon for the block's equal-length residual columns."""
    fcs, matrices = zip(*block)
    return spci_intervals_stacked(np.stack(fcs), matrices, SpciSpec(lag_count=c.spci_lags), c.alpha)


def _acmcp(c: BenchConfig, block: list[tuple[np.ndarray, ResidualMatrix]]) -> list[IntervalMatrix]:
    """One quantile tracker per horizon through each series' calibration
    stream, for a block of equal-length streams run as one stack of
    trackers, each series as alone."""
    fc = np.stack([fc for fc, _ in block])
    bounds = np.empty(fc.shape + (2,))  # series, horizon, (lower, upper)
    for h, ys in enumerate(fc.T.tolist(), 1):
        streams = np.stack([abs_matrix.column(h) for _, abs_matrix in block])
        m = streams.shape[1]
        burn = max(5, min(10, m // 3))
        if m < burn + 1:
            raise ValueError(f"horizon {h} stream too short to warm a tracker: {m}")
        states = acmcp_run_stacked(acmcp_init_stacked(h, streams[:, :burn], c.alpha), streams[:, burn:])
        bounds[:, h - 1] = [acmcp_interval(state, y) for state, y in zip(states, ys)]
    return _rows_or_raise(_interval_rows(bounds[..., 0], bounds[..., 1]))


def _mscp(c: BenchConfig, block: list[tuple[np.ndarray, ResidualMatrix]]) -> list[IntervalMatrix | str]:
    """Split conformal intervals of a block of series with equal residual counts,
    every radius from one _conformal_radii call on their (R, S*H) scores, each as alone."""
    fc = np.stack([fc for fc, _ in block])
    radii = _conformal_radii(np.hstack([m.matrix for _, m in block]), 1.0 - c.alpha).reshape(fc.shape)
    return _interval_rows(fc - radii, fc + radii)


def _aci_radii(scores: np.ndarray, alpha_t: np.ndarray) -> np.ndarray:
    """aci_interval's radius of each column of scores at its own adaptive
    level 1 - alpha_t: 0 where the level is <= 0, +inf where it is >= 1."""
    level = 1.0 - alpha_t
    inside = (0.0 < level) & (level < 1.0)
    radii = _conformal_radii(scores, np.where(inside, level, 0.5))  # 0.5 stands in where the mask rules
    return np.where(inside, radii, np.where(level <= 0.0, 0.0, np.inf))


def _aci(c: BenchConfig, block: list[tuple[np.ndarray, ResidualMatrix]]) -> list[IntervalMatrix | str]:
    """ACI of a block of series with equal residual counts, each as alone: every
    adaptive level (aci_step's update) warmed through its h=1 stream at once,
    then per-horizon intervals at the final level."""
    fc = np.stack([fc for fc, _ in block])
    scores = np.hstack([m.matrix for _, m in block])  # (R, S*H): series s's horizon h at column s*H + h-1
    stream = scores[:, :: fc.shape[1]]  # (R, S): the h=1 streams
    if len(stream) < 2:
        raise ValueError("adaptive calibration needs >= 2 one-step scores")
    if np.isnan(scores).all(axis=0).any():
        raise ValueError("aci_interval requires a nonempty score pool")
    alpha_t = np.full(len(block), c.alpha)
    errs = np.zeros(len(block), dtype=np.intp)
    for t in range(1, len(stream)):
        err = (stream[t] > _aci_radii(stream[:t], alpha_t)).astype(np.intp)
        errs += err
        alpha_t = alpha_t + c.gamma * (c.alpha - err)
    radii = _aci_radii(scores, np.repeat(alpha_t, fc.shape[1])).reshape(fc.shape)
    diagnostics = [{"alpha_final": a, "warmup_errs": e} for a, e in zip(alpha_t.tolist(), errs.tolist())]
    return _interval_rows(fc - radii, fc + radii, diagnostics)


def _enbpi_series(ctx: _SeriesContext) -> TimeSeries:
    # The forecaster is checked before any member is drawn, so that under
    # seasonal naive every series skips at once.
    _check_ensemble_forecaster(ctx.config.forecaster)
    return ctx.series


def _enbpi(c: BenchConfig, block: list[TimeSeries]) -> list[IntervalMatrix | str]:
    """EnbPI of a block of series of one length and period, each drawing
    its members from its own seed, each as alone."""
    specs = [
        EnsembleSpec(B=c.enbpi_members, window_len=c.enbpi_window, seed=series_seed(c.seed, ts.series_id))
        for ts in block
    ]
    return enbpi_intervals_stacked(block, c.horizon, specs, c.forecaster, c.alpha)


def _parametric(contexts: list[_SeriesContext]) -> dict[str, IntervalMatrix | str]:
    """Gaussian intervals for every series with an autoregression and a
    forecast, in one stacked call, each series as alone; a series without
    them keeps the skip reason of what failed."""

    def model_and_forecast(ctx: _SeriesContext) -> tuple[FittedForecaster, np.ndarray]:
        if ctx.model is None:
            raise ValueError("parametric intervals require an autoregressive forecaster")
        return ctx.model, ctx.fc

    inputs = _per_series(model_and_forecast)(contexts)
    ready = {sid: pair for sid, pair in inputs.items() if not isinstance(pair, str)}
    if not ready:
        return inputs
    models, fcs = zip(*ready.values())
    return inputs | dict(zip(ready, parametric_intervals_stacked(models, np.stack(fcs), contexts[0].config.alpha)))


# A method is the kinds of prefix-table row it reads (see _PrefixTable) and its
# run, which maps every eligible series' context to its intervals or skip reason.
_Method = NamedTuple("_Method", [("reads", tuple[str, ...]), ("run", Callable)])
# The stacked methods of each series' forecast and absolute calibration scores.
_on_scores = partial(_stacked, lambda ctx: (ctx.fc, ctx.abs_matrix), _column_lengths)
_METHODS = {
    "mscp": _Method(("end", "signed"), _on_scores(_mscp)),
    "enbpi": _Method((), _stacked(_enbpi_series, lambda ts: (len(ts), ts.period), _enbpi)),
    "spci": _Method(("end", "signed"), _stacked(lambda ctx: (ctx.fc, ctx.signed), _column_lengths, _spci)),
    "global_cp": _Method(("end",), _global_cp),
    "cv_cp": _Method(("end", "backtest"), _cv_cp),
    "aci": _Method(("end", "signed"), _on_scores(_aci)),
    "acmcp": _Method(("end", "signed"), _on_scores(_acmcp)),
    "parametric": _Method(("end",), _parametric),
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
    parallelism: int = 1  # validated; series are evaluated serially whatever it is
    cohort_split: float = 0.5
    n_windows: int = 2
    gamma: float = 0.01
    enbpi_members: int = 20
    enbpi_window: int = 100
    spci_lags: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not self.methods:
            raise ValueError("method list must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}; choose from {METHODS}")
        if self.cal_len < 2:
            raise ValueError(f"cal_len must be >= 2, got {self.cal_len}")
        # _min_train(1) is the least training length of any period.
        if self.train_len is not None and self.train_len < _min_train(1):
            raise ValueError(f"train_len must be >= {_min_train(1)}, got {self.train_len}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
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


def _contexts(panel: SeriesPanel, config: BenchConfig) -> tuple[list[_SeriesContext], list[tuple[str, str, str]]]:
    """A context for each series long enough to evaluate, all sharing one
    prefix table, and a skip for every method on each other series."""
    H = config.horizon
    skips: list[tuple[str, str, str]] = []
    contexts: list[_SeriesContext] = []
    table = _PrefixTable(config)
    for series in panel:
        n = len(series)
        train_len = config.train_len if config.train_len is not None else n - config.cal_len - H
        if train_len < _min_train(series.period) or n < train_len + config.cal_len + H:
            reason = f"series too short: {n} observations for train {train_len}, cal {config.cal_len}, test {H}"
            skips.extend((series.series_id, m, reason) for m in config.methods)
            continue
        contexts.append(_SeriesContext(series, config, SplitSpec(train_len, config.cal_len, H), table))
        table.members.append((contexts[-1].head, contexts[-1].split))
    return contexts, skips


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

    H = config.horizon
    contexts, skips = _contexts(panel, config)
    if not contexts:
        raise NothingEvaluableError("no series long enough to evaluate")

    records: list[MetricRecord] = []
    for method in config.methods:
        scored: dict[str, IntervalMatrix] = {}
        for sid, result in _METHODS[method].run(contexts).items():
            if isinstance(result, str):
                skips.append((sid, method, result))
            else:
                scored[sid] = result
        truths = [panel[sid].values[-H:] for sid in scored]
        records.extend(score_records(method, scored, truths, config.alpha))
    if not records:
        reason = Counter(s[2] for s in skips).most_common(1)[0][0]
        raise NothingEvaluableError(
            f"every (series, method) evaluation was skipped; most often: {reason}"
        )
    records.sort(key=lambda r: (r.series_id, r.method))
    skips.sort(key=lambda s: (s[0], s[1]))
    summaries = aggregate(records)

    by_series: dict[str, dict[str, MetricRecord]] = {}
    for rec in records:
        by_series.setdefault(rec.series_id, {})[rec.method] = rec
    rank_methods = tuple(m for m in config.methods if m in summaries)
    complete = [
        sid
        for sid in sorted(by_series)
        if all(
            m in by_series[sid] and math.isfinite(by_series[sid][m].winkler)
            for m in rank_methods
        )
    ]
    friedman = posthoc = None
    avg_ranks: tuple[float, ...] = ()
    if len(rank_methods) >= 2 and len(complete) >= 2:
        matrix = np.array(
            [[by_series[sid][m].winkler for m in rank_methods] for sid in complete]
        )
        table = rank_scores(matrix)
        friedman = friedman_test(table)
        avg_ranks = tuple(float(r) for r in table.avg_ranks)
        if friedman.p_value < 0.05:
            posthoc = conover_posthoc(table, alpha=0.05)

    metadata = {
        "seed": config.seed,
        "config_hash": config.config_hash(),
        "alpha": config.alpha,
        "horizon": H,
        "methods": list(config.methods),
        "n_series": len(panel),
        "n_series_evaluated": len(contexts),
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
        for rec in report.records:
            writer.writerow(
                [
                    rec.series_id,
                    rec.method,
                    repr(rec.marginal_coverage),
                    repr(rec.mean_width),
                    repr(rec.winkler),
                ]
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
            cd_methods = list(report.rank_methods)
            ranks = list(report.avg_ranks)
            if report.posthoc is not None:
                cliques = report.posthoc.cliques
                cd = report.posthoc.cd
            else:
                cliques = (tuple(range(len(cd_methods))),)
                cd = None
        else:
            cd_methods = cov_methods
            order = np.argsort(
                [
                    report.summaries[m].winkler
                    if math.isfinite(report.summaries[m].winkler)
                    else math.inf
                    for m in cd_methods
                ],
                kind="stable",
            )
            ranks = [0.0] * len(cd_methods)
            for pos, idx in enumerate(order):
                ranks[idx] = float(pos + 1)
            cliques = (tuple(range(len(cd_methods))),)
            cd = None
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
