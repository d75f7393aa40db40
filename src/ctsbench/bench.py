"""Benchmark orchestration: config, synthetic panels, method evaluation,
aggregation, rank tests, and report emission.

A run makes one row dict per eligible series (`_contexts`): the series,
its head (all but the test block, a read-only view) and its rows of the
run's prefix table (`_prefix_rows`): the series end, a fit on the head
and its point forecast `fc` of the test block; the signed residuals of
the calibration origins; and cv_cp's backtest residuals. The table is
made once, for the kinds the configured methods read, with one batched
solve and one recursion per block of heads
(`forecaster._prefix_forecasts`), and each row is what the lone public
builds give (`fit_auto_ar`, `forecast`, `build_residual_matrix`,
`cv_conformal_intervals`), or the message of what stopped it. Each method
(`_METHODS`) names the entries it reads, and its run takes every series'
reads (`_read`): the tuple of those rows, or the first failure message
among them, which becomes the series' skip reason. The methods run in
configured order and share the rows, which are read-only. Every method
but enbpi, whose bootstrap ensemble makes its own one-step forecasts,
wraps `fc`. global_cp, cv_cp and parametric pool all the series into one
call: global_cp calibrates on a cohort of series, cv_cp takes each
series' radii from its backtest rows, and parametric takes every forecast
variance from one stacked psi-weight recursion. The other methods are
entries of one skeleton (`_stacked`), which solves blocks of series
(`_in_blocks`), each series as alone: mscp, aci, acmcp and spci take a
block's (S, H) forecasts and (S, cal_len, H) signed residual stack, and
enbpi a block of series of one length and period
(`conformal.enbpi_intervals_stacked`). aci's radii are those of
`aci_interval` (`online._aci_radii`). The methods build their intervals
as row views of one validated bound stack (`conformal._interval_rows`),
and each method's intervals are scored in one pass over all its series
(`metrics.score_records`).

Every run is a pure function of (config, data, seed): per-series RNG seeds
are derived by hashing the global seed with the series id. The
`parallelism` setting is validated, then dropped: it selects nothing and
stays out of `config_hash`. Worker threads made the run slower, because
the per-series work is Python-bound.
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
from pathlib import Path
from typing import Callable, Hashable, NamedTuple

import numpy as np

from .conformal import (
    EnsembleSpec,
    IntervalMatrix,
    SpciSpec,
    _backtest_cutoffs,
    _calibration_origins,
    _check_ensemble_forecaster,
    _check_padding,
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


class _SeriesEnd(NamedTuple):
    """A series' point forecast of its test block, and the autoregression
    behind it (None for seasonal naive)."""

    model: FittedForecaster | None
    fc: np.ndarray


def _prefix_block(
    heads: list[TimeSeries], split: SplitSpec, config: BenchConfig, kinds: tuple[str, ...]
) -> list[dict[str, object]]:
    """The rows of the given kinds of a block of heads of equal length and
    split (and period, for seasonal naive); see _prefix_rows."""
    H = config.horizon
    values = np.stack([head.values for head in heads])
    n, period = values.shape[1], heads[0].period
    # Each kind's rows: the offset of its stack into the heads, its prefix ends and its fit ends.
    plan: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
    if "end" in kinds:
        plan["end"] = (0, np.array([n]), np.array([n]))
    if "signed" in kinds:
        start, origins = _calibration_origins(n, split)
        plan["signed"] = (start, origins, _refit_ends(origins, config.refit_every))
    out: list[dict[str, object]] = [dict.fromkeys(kinds) for _ in heads]
    cutoffs = _backtest_cutoffs(n, config.n_windows, H)
    if "backtest" in kinds and cutoffs is not None:
        try:
            if config.forecaster.kind == "seasonal_naive":
                _check_seasonal_ends(cutoffs, period)
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
            np.concatenate([fit_ends for _, _, fit_ends in group.values()]), config.forecaster, period, H,
        )
        first = 0
        for kind, (_, ends, _) in group.items():
            part = slice(first, first + len(ends))
            first = part.stop
            if kind == "end":
                models = [None] * len(heads) if fits is None else _models(fits, part.start)
                cells = map(_SeriesEnd, models, np.ascontiguousarray(yhat[:, part.start]))
            else:
                cells = _signed_residuals(stack, ends, yhat[:, part])
                if kind == "signed":
                    _check_padding(cells)
                cells.flags.writeable = False  # every method reads the same rows
            for row, cell in zip(out, cells):
                row[kind] = cell
    return out


def _prefix_rows(
    heads: list[TimeSeries], splits: list[SplitSpec], config: BenchConfig, kinds: tuple[str, ...]
) -> list[dict[str, object]]:
    """Every forecast a run makes from a prefix of one of its heads: one
    dict per head of its row of each kind, or the message of what stopped it.

    The kinds are those the run's methods read (`_Method.reads`):
    - "end": a fit on the whole head and its forecast of the test block
      (`_SeriesEnd`);
    - "signed": the (cal_len, horizon) signed residuals of the calibration
      origins, each forecast from the latest fit at or before its origin,
      refitted every refit_every origins; NaN where the truth lies past
      the calibration segment;
    - "backtest": cv_cp's (n_windows, horizon) residuals at its cutoffs,
      each from its own fit; None where the head is too short for them.
    The residual rows are read-only views of their block's stack. Heads of
    equal length, split (and period, for seasonal naive) form blocks of at
    most _STACK_BLOCK, and each block makes the union of its rows' prefix
    fits in one solve and their forecasts in one recursion, or, with
    train_len set, one more for the calibration segment, which then starts
    inside the head. A fit is the same whichever other prefixes share its
    solve, so every row is bit for bit the lone fit_auto_ar, forecast,
    build_residual_matrix or cv_cp backtest result. A block whose solve
    raises is redone one series at a time, and a series that still fails
    once per kind, so that each kind keeps its own error message.
    """
    seasonal = config.forecaster.kind == "seasonal_naive"
    keys = [(len(head), split.train_len, head.period if seasonal else 0) for head, split in zip(heads, splits)]
    out = _in_blocks(keys, lambda block: _prefix_block([heads[i] for i in block], splits[block[0]], config, kinds))
    for i, row in enumerate(out):
        if isinstance(row, str):
            out[i] = {}
            for kind in kinds:
                try:
                    out[i] |= _prefix_block([heads[i]], splits[i], config, (kind,))[0]
                except _METHOD_ERRORS as e:
                    out[i][kind] = str(e)
    return out


def _read(rows: list[dict[str, object]], kinds: tuple[str, ...]) -> dict[str, tuple | str]:
    """Each series' rows of the given kinds, in that order, or the first of
    them that is a failure message: the series' skip reason."""
    out: dict[str, tuple | str] = {}
    for row in rows:
        values = tuple(row[kind] for kind in kinds)
        out[row["series"].series_id] = next((v for v in values if isinstance(v, str)), values)
    return out


def _ready(inputs: dict[str, tuple | str]) -> dict[str, tuple]:
    """The inputs of the series that have them."""
    return {sid: x for sid, x in inputs.items() if not isinstance(x, str)}


def _global_cp(c: BenchConfig, inputs: dict[str, tuple | str]) -> dict[str, IntervalMatrix | str]:
    """Pool the series' forecasts. Each becomes an interval on an evaluation
    series, or a skip on a calibration series or when pooling fails."""
    ready = _ready(inputs)
    try:
        cohort = SeriesPanel(tuple(series for series, _ in ready.values()))
        forecasts = {sid: end.fc for sid, (_, end) in ready.items()}
        result = global_cp_intervals(cohort, c.cohort_split, forecasts, c.alpha, c.horizon)
    except ValueError as e:
        return inputs | dict.fromkeys(ready, str(e))
    cohort_skips = dict.fromkeys(result.calibration_ids, "spent as pooled calibration cohort")
    return inputs | cohort_skips | result.intervals


def _cv_cp(c: BenchConfig, inputs: dict[str, tuple | str]) -> dict[str, IntervalMatrix | str]:
    """Calibrate every series with a forecast on its backtest rows of the
    prefix table, in one pooled call on the series' heads."""
    ready = _ready(inputs)
    forecasts = {sid: end.fc for sid, (_, end, _) in ready.items()}
    backtests = {sid: backtest for sid, (_, _, backtest) in ready.items() if backtest is not None}
    heads = [head for head, _, _ in ready.values()]
    return inputs | cv_conformal_intervals(forecasts, heads, c.n_windows, c.forecaster, c.alpha, backtests)


def _stacked(solve: Callable, key: Callable[[tuple], Hashable] = lambda inputs: None) -> Callable:
    """A method that gives every series with its inputs the results of
    solve(config, block), which takes the inputs of a block of series of
    equal key(inputs) and returns one result per series (`_in_blocks`).

    By default every series shares one key: every signed row of a run has
    the shape (cal_len, H), and NaN exactly where r + h - 1 >= cal_len.
    """

    def run(c: BenchConfig, inputs: dict[str, tuple | str]) -> dict[str, IntervalMatrix | str]:
        ready = _ready(inputs)
        items = list(ready.values())
        results = _in_blocks([key(x) for x in items], lambda block: solve(c, [items[i] for i in block]))
        return inputs | dict(zip(ready, results))

    return run


def _stacks(block: list[tuple[_SeriesEnd, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """A block's (S, H) forecasts and (S, cal_len, H) signed residuals."""
    return np.stack([end.fc for end, _ in block]), np.stack([signed for _, signed in block])


def _scores(signed: np.ndarray) -> np.ndarray:
    """The absolute values of an (S, R, H) signed stack as one (R, S*H)
    score matrix: series s's horizon h at column s*H + h-1."""
    return np.abs(signed).transpose(1, 0, 2).reshape(signed.shape[1], -1)


def _spci(c: BenchConfig, block: list[tuple[_SeriesEnd, np.ndarray]]) -> list[IntervalMatrix]:
    """SPCI of a block of series, each as alone: one quantile regression
    solve per row bucket for the residual columns of all its horizons."""
    return spci_intervals_stacked(*_stacks(block), SpciSpec(lag_count=c.spci_lags), c.alpha)


def _acmcp(c: BenchConfig, block: list[tuple[_SeriesEnd, np.ndarray]]) -> list[IntervalMatrix]:
    """One quantile tracker per horizon through each series' calibration
    stream, for a block of series run as one stack of trackers, each
    series as alone."""
    fc, signed = _stacks(block)
    scores = np.abs(signed)
    bounds = np.empty(fc.shape + (2,))  # series, horizon, (lower, upper)
    for h, ys in enumerate(fc.T.tolist(), 1):
        column = scores[:, :, h - 1]
        streams = column[:, ~np.isnan(column[0])]  # the series share their NaN padding
        m = streams.shape[1]
        burn = max(5, min(10, m // 3))
        if m < burn + 1:
            raise ValueError(f"horizon {h} stream too short to warm a tracker: {m}")
        states = acmcp_run_stacked(acmcp_init_stacked(h, streams[:, :burn], c.alpha), streams[:, burn:])
        bounds[:, h - 1] = [acmcp_interval(state, y) for state, y in zip(states, ys)]
    return _rows_or_raise(_interval_rows(bounds[..., 0], bounds[..., 1]))


def _mscp(c: BenchConfig, block: list[tuple[_SeriesEnd, np.ndarray]]) -> list[IntervalMatrix | str]:
    """Split conformal intervals of a block of series, every radius from one
    _conformal_radii call on their (R, S*H) scores, each as alone."""
    fc, signed = _stacks(block)
    radii = _conformal_radii(_scores(signed), 1.0 - c.alpha).reshape(fc.shape)
    return _interval_rows(fc - radii, fc + radii)


def _aci(c: BenchConfig, block: list[tuple[_SeriesEnd, np.ndarray]]) -> list[IntervalMatrix | str]:
    """ACI of a block of series, each as alone: every adaptive level
    (aci_step's update) warmed through its h=1 stream at once, then
    per-horizon intervals at the final level."""
    fc, signed = _stacks(block)
    scores = _scores(signed)
    stream = scores[:, :: fc.shape[1]]  # (R, S): the h=1 streams
    if len(stream) < 2:
        raise ValueError("adaptive calibration needs >= 2 one-step scores")
    alpha_t = np.full(len(block), c.alpha)
    errs = np.zeros(len(block), dtype=np.intp)
    for t in range(1, len(stream)):
        err = (stream[t] > _aci_radii(stream[:t], alpha_t)).astype(np.intp)
        errs += err
        alpha_t = alpha_t + c.gamma * (c.alpha - err)
    radii = _aci_radii(scores, np.repeat(alpha_t, fc.shape[1])).reshape(fc.shape)
    diagnostics = [{"alpha_final": a, "warmup_errs": e} for a, e in zip(alpha_t.tolist(), errs.tolist())]
    return _interval_rows(fc - radii, fc + radii, diagnostics)


def _enbpi(c: BenchConfig, block: list[tuple[TimeSeries]]) -> list[IntervalMatrix | str]:
    """EnbPI of a block of series of one length and period, each drawing
    its members from its own seed, each as alone."""
    # Checked before any member is drawn: under seasonal naive no block is solved.
    _check_ensemble_forecaster(c.forecaster)
    series = [ts for (ts,) in block]
    specs = [
        EnsembleSpec(B=c.enbpi_members, window_len=c.enbpi_window, seed=series_seed(c.seed, ts.series_id))
        for ts in series
    ]
    return enbpi_intervals_stacked(series, c.horizon, specs, c.forecaster, c.alpha)


def _parametric(c: BenchConfig, inputs: dict[str, tuple | str]) -> dict[str, IntervalMatrix | str]:
    """Gaussian intervals for every series with an autoregression and a
    forecast, in one stacked call, each series as alone."""
    if c.forecaster.kind != "auto_ar":
        return dict.fromkeys(inputs, "parametric intervals require an autoregressive forecaster")
    ready = _ready(inputs)
    if not ready:
        return inputs
    models, fcs = zip(*((end.model, end.fc) for (end,) in ready.values()))
    return inputs | dict(zip(ready, parametric_intervals_stacked(models, np.stack(fcs), c.alpha)))


# A method is the entries of each series' row dict it reads and its run, which
# maps the config and every series' reads (`_read`) to its intervals or skip reason.
_Method = NamedTuple("_Method", [("reads", tuple[str, ...]), ("run", Callable)])
_METHODS = {
    "mscp": _Method(("end", "signed"), _stacked(_mscp)),
    "enbpi": _Method(("series",), _stacked(_enbpi, key=lambda inputs: (len(inputs[0]), inputs[0].period))),
    "spci": _Method(("end", "signed"), _stacked(_spci)),
    "global_cp": _Method(("series", "end"), _global_cp),
    "cv_cp": _Method(("head", "end", "backtest"), _cv_cp),
    "aci": _Method(("end", "signed"), _stacked(_aci)),
    "acmcp": _Method(("end", "signed"), _stacked(_acmcp)),
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


def _contexts(panel: SeriesPanel, config: BenchConfig) -> tuple[list[dict[str, object]], list[tuple[str, str, str]]]:
    """One row dict per series long enough to evaluate: the series, its head
    (all but the test block, a view) and its prefix-table rows of every kind
    the configured methods read; and a skip for every method on each other series."""
    H = config.horizon
    skips: list[tuple[str, str, str]] = []
    rows: list[dict[str, object]] = []
    splits: list[SplitSpec] = []
    for series in panel:
        n = len(series)
        train_len = config.train_len if config.train_len is not None else n - config.cal_len - H
        if train_len < _min_train(series.period) or n < train_len + config.cal_len + H:
            reason = f"series too short: {n} observations for train {train_len}, cal {config.cal_len}, test {H}"
            skips.extend((series.series_id, m, reason) for m in config.methods)
            continue
        rows.append({"series": series, "head": series.head(n - H)})
        splits.append(SplitSpec(train_len, config.cal_len, H))
    kinds = tuple(sorted({kind for m in config.methods for kind in _METHODS[m].reads} - {"series", "head"}))
    for row, prefix in zip(rows, _prefix_rows([row["head"] for row in rows], splits, config, kinds)):
        row.update(prefix)
    return rows, skips


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
    rows, skips = _contexts(panel, config)
    if not rows:
        raise NothingEvaluableError("no series long enough to evaluate")

    records: list[MetricRecord] = []
    for method in config.methods:
        scored: dict[str, IntervalMatrix] = {}
        reads, run = _METHODS[method]
        for sid, result in run(config, _read(rows, reads)).items():
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
        "n_series_evaluated": len(rows),
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
