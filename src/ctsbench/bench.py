"""Benchmark orchestration: config, synthetic panels, method evaluation,
aggregation, rank tests, and report emission.

A run builds one context per eligible series. Its head, the series less
its test block, is a read-only view of the series' arrays
(`TimeSeries.head`), and its residual matrices are made on first use.
The contexts share one table of series ends, each series' model and its
one point forecast `fc` of the test block: the first time a method asks
for either, every context's head is fitted and forecast, one stacked fit
(`forecaster.fit_auto_ar_stacked`) and one stacked recursion
(`forecaster.forecast_stacked`) per block of equal-length heads, or, for
seasonal naive, one index gather per block of equal length and period. A
table maps each method to one function of all the contexts that returns
each series' intervals or skip reason. The methods run in configured
order and share the contexts. Every method but enbpi, whose bootstrap ensemble makes its
own one-step forecasts, wraps `fc`; most treat each series on its own.
global_cp and cv_cp pool the forecasts of all the contexts into one call:
global_cp calibrates on a cohort of series, and cv_cp backtests
equal-length series heads in stacked solves, which gives each series the
intervals it would get alone. spci stacks the equal-length residual
columns of every series at each horizon into one quantile regression
solve, and acmcp runs the equal-length score streams of every series at
each horizon as one stack of trackers (`online.acmcp_run_stacked`), and
parametric takes every series' forecast variance from one stacked
psi-weight recursion (`conformal.parametric_intervals_stacked`), again
each series as alone. The pooled and stacked methods build their
intervals as row views of one validated bound stack
(`conformal._interval_rows`). Each method's intervals are then scored in
one pass over all its series (`metrics.score_records`).

Every run is a pure function of (config, data, seed): per-series RNG seeds
are derived by hashing the global seed with the series id. The
`parallelism` setting is validated but selects nothing; worker threads
made the run slower, because the per-series work is Python-bound.
"""

from __future__ import annotations

import bisect
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
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .conformal import (
    EnsembleSpec,
    IntervalMatrix,
    ResidualMatrix,
    SpciSpec,
    _interval_rows,
    _rows_or_raise,
    build_residual_matrix,
    cv_conformal_intervals,
    enbpi_intervals,
    global_cp_intervals,
    mscp_intervals,
    parametric_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.parametric_intervals
    parametric_intervals_stacked,
    spci_intervals,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.spci_intervals
    spci_intervals_stacked,
)
from .forecaster import (
    _METHOD_ERRORS,
    _in_blocks,
    _prefix_forecasts,
    FittedForecaster,
    ForecasterSpec,
    fit_auto_ar,  # noqa: F401  unused here, but perfbench/spans.py traces bench.fit_auto_ar
    fit_auto_ar_stacked,
    forecast,  # noqa: F401  unused here, but perfbench/spans.py wraps bench.forecast
    forecast_stacked,
)
from .metrics import MethodSummary, MetricRecord, aggregate, score_records
from .metrics import series_metrics  # noqa: F401  unused here, but perfbench/spans.py traces bench.series_metrics
from .online import AciState, aci_interval, aci_step, acmcp_init_stacked, acmcp_interval, acmcp_run_stacked
# acmcp_init and acmcp_step stay importable here: perfbench/spans.py traces them by these names.
from .online import acmcp_init, acmcp_step  # noqa: F401
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


def _aci_series_intervals(
    fc: np.ndarray, abs_matrix: ResidualMatrix, alpha: float, gamma: float
) -> IntervalMatrix:
    """Warm the adaptive level through the calibration h=1 stream, then
    issue per-horizon intervals at the final level."""
    scores = abs_matrix.column(1)
    if len(scores) < 2:
        raise ValueError("adaptive calibration needs >= 2 one-step scores")
    state = AciState(alpha_t=alpha, gamma=gamma, target=alpha)
    pool = [float(scores[0])]  # kept sorted
    warmup_errs = 0
    for s in scores[1:].tolist():
        # aci_interval's radius read off the sorted pool: 0 at alpha_t >= 1, else the
        # rank-th smallest score, +inf past the pool (always so at alpha_t <= 0).
        level = 1.0 - state.alpha_t
        rank = math.ceil(level * (len(pool) + 1))
        radius = 0.0 if level <= 0.0 else pool[rank - 1] if rank <= len(pool) else math.inf
        err = 0 if s <= radius else 1
        warmup_errs += err
        state = aci_step(state, err)
        bisect.insort(pool, s)
    lower, upper = zip(*(aci_interval(state, y, abs_matrix.column(h)) for h, y in enumerate(fc.tolist(), 1)))
    return IntervalMatrix(
        lower=lower,
        upper=upper,
        diagnostics={"alpha_final": state.alpha_t, "warmup_errs": warmup_errs},
    )


class _SeriesEnd(NamedTuple):
    """A series' point forecast of its test block, and the autoregression
    behind it (None for seasonal naive)."""

    model: FittedForecaster | None
    fc: np.ndarray


class _SeriesEnds:
    """The series ends of a run's contexts by series id, made the first
    time any context asks for one, in blocks of equal-length heads (and
    equal periods, for seasonal naive): one stacked fit and one stacked
    forecast per block, or one seasonal gather. A fit or forecast that
    raised leaves its error message in place of its series' end."""

    def __init__(self, spec: ForecasterSpec, horizon: int):
        self.spec = spec
        self.horizon = horizon
        # The contexts' heads, not the contexts, which hold this table: a
        # reference cycle would keep every context alive until the cyclic GC ran.
        self.heads: list[TimeSeries] = []

    @cached_property
    def table(self) -> dict[str, _SeriesEnd | str]:
        heads, spec, H = self.heads, self.spec, self.horizon

        def solve(block: list[int]) -> list[_SeriesEnd | str]:
            trains = [heads[i] for i in block]
            values = np.stack([t.values for t in trains])
            if spec.kind == "seasonal_naive":
                fcs = _prefix_forecasts(values, [values.shape[1]], spec, trains[0].period, H)[:, 0]
                return [_SeriesEnd(None, fc) for fc in fcs]
            models = fit_auto_ar_stacked(trains, spec)
            fitted = [s for s, m in enumerate(models) if not isinstance(m, str)]
            fcs = iter(forecast_stacked([models[s] for s in fitted], values[fitted], H))
            return [m if isinstance(m, str) else _SeriesEnd(m, next(fcs)) for m in models]

        keys = [(len(t), t.period if spec.kind == "seasonal_naive" else 0) for t in heads]
        return {head.series_id: end for head, end in zip(heads, _in_blocks(keys, solve))}


class _SeriesContext:
    """One series' inputs shared by its methods, each built on first use.

    A build that raises is not cached: every method that needs it raises
    the same error, which becomes that method's skip reason. The model and
    the forecast come from the run's shared table of series ends, which
    keeps the message of a failed fit or forecast.
    """

    def __init__(self, series: TimeSeries, config: BenchConfig, split: SplitSpec, ends: _SeriesEnds):
        self.series = series
        self.config = config
        self.split = split
        self.head = series.head(len(series) - config.horizon)  # all but the test block, a view
        self.ends = ends

    @cached_property
    def signed(self) -> ResidualMatrix:
        c = self.config
        return build_residual_matrix(
            self.series, self.split, c.forecaster, c.horizon, c.refit_every, signed=True
        )

    @cached_property
    def abs_matrix(self) -> ResidualMatrix:
        return ResidualMatrix(np.abs(self.signed.matrix), self.signed.origins, signed=False)

    @property
    def end(self) -> _SeriesEnd:
        end = self.ends.table[self.series.series_id]
        if isinstance(end, str):
            raise ValueError(end)
        return end

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


def _enbpi(ctx: _SeriesContext) -> IntervalMatrix:
    c = ctx.config
    spec = EnsembleSpec(
        B=c.enbpi_members,
        window_len=c.enbpi_window,
        seed=series_seed(c.seed, ctx.series.series_id),
    )
    return enbpi_intervals(ctx.series, c.horizon, spec, c.forecaster, c.alpha)


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
    """Backtest every series with a forecast in one pooled call on the
    series' heads; a series without one keeps its forecast's skip reason."""
    c = contexts[0].config
    out, forecasts = _forecasts(contexts)
    heads = [ctx.head for ctx in contexts if ctx.series.series_id in forecasts]
    return out | cv_conformal_intervals(forecasts, heads, c.n_windows, c.forecaster, c.alpha)


def _column_lengths(residuals: ResidualMatrix) -> tuple[int, ...]:
    """The residual count of each horizon: series with equal counts stack."""
    return tuple(np.count_nonzero(~np.isnan(residuals.matrix), axis=0).tolist())


def _spci(contexts: list[_SeriesContext]) -> dict[str, IntervalMatrix | str]:
    """Fit SPCI for every series with a forecast and signed residuals, in
    stacked blocks of equal-length residual columns, each series as alone;
    a series without them keeps the skip reason of what failed."""
    c = contexts[0].config
    spec = SpciSpec(lag_count=c.spci_lags)
    inputs = _per_series(lambda ctx: (ctx.fc, ctx.signed))(contexts)
    ready = {sid: pair for sid, pair in inputs.items() if not isinstance(pair, str)}
    fcs = [fc for fc, _ in ready.values()]
    matrices = [signed for _, signed in ready.values()]

    def solve(block: list[int]) -> list[IntervalMatrix]:
        return spci_intervals_stacked(np.stack([fcs[i] for i in block]), [matrices[i] for i in block], spec, c.alpha)

    return inputs | dict(zip(ready, _in_blocks([_column_lengths(m) for m in matrices], solve)))


def _acmcp(contexts: list[_SeriesContext]) -> dict[str, IntervalMatrix | str]:
    """Run one quantile tracker per horizon through each series' calibration
    stream, for every series with a forecast and absolute residuals, in
    stacked blocks of equal-length streams, each series as alone; a series
    without them keeps the skip reason of what failed."""
    alpha = contexts[0].config.alpha
    inputs = _per_series(lambda ctx: (ctx.fc, ctx.abs_matrix))(contexts)
    ready = {sid: pair for sid, pair in inputs.items() if not isinstance(pair, str)}
    fcs = [fc for fc, _ in ready.values()]
    matrices = [abs_matrix for _, abs_matrix in ready.values()]

    def solve(block: list[int]) -> list[IntervalMatrix]:
        fc = np.stack([fcs[i] for i in block])
        bounds = np.empty(fc.shape + (2,))  # series, horizon, (lower, upper)
        for h, ys in enumerate(fc.T.tolist(), 1):
            streams = np.stack([matrices[i].column(h) for i in block])
            m = streams.shape[1]
            burn = max(5, min(10, m // 3))
            if m < burn + 1:
                raise ValueError(f"horizon {h} stream too short to warm a tracker: {m}")
            states = acmcp_run_stacked(acmcp_init_stacked(h, streams[:, :burn], alpha), streams[:, burn:])
            bounds[:, h - 1] = [acmcp_interval(state, y) for state, y in zip(states, ys)]
        return _rows_or_raise(_interval_rows(bounds[..., 0], bounds[..., 1]))

    return inputs | dict(zip(ready, _in_blocks([_column_lengths(m) for m in matrices], solve)))


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


# Each method maps every eligible series' context to its intervals or a skip reason.
_METHODS = {
    "mscp": _per_series(lambda ctx: mscp_intervals(ctx.fc, ctx.abs_matrix, ctx.config.alpha)),
    "enbpi": _per_series(_enbpi),
    "spci": _spci,
    "global_cp": _global_cp,
    "cv_cp": _cv_cp,
    "aci": _per_series(lambda ctx: _aci_series_intervals(
        ctx.fc, ctx.abs_matrix, ctx.config.alpha, ctx.config.gamma
    )),
    "acmcp": _acmcp,
    "parametric": _parametric,
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
    table of series ends, and a skip for every method on each other series."""
    H = config.horizon
    skips: list[tuple[str, str, str]] = []
    contexts: list[_SeriesContext] = []
    ends = _SeriesEnds(config.forecaster, H)
    for series in panel:
        n = len(series)
        train_len = config.train_len if config.train_len is not None else n - config.cal_len - H
        if train_len < _min_train(series.period) or n < train_len + config.cal_len + H:
            reason = f"series too short: {n} observations for train {train_len}, cal {config.cal_len}, test {H}"
            skips.extend((series.series_id, m, reason) for m in config.methods)
            continue
        contexts.append(_SeriesContext(series, config, SplitSpec(train_len, config.cal_len, H), ends))
        ends.heads.append(contexts[-1].head)
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
        for sid, result in _METHODS[method](contexts).items():
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
