"""Conformal prediction intervals for multi-horizon time-series forecasts.

The package pairs a small AR/seasonal-naive forecasting layer with
model-agnostic interval constructions (per-horizon split conformal,
bootstrap ensembles, sequential quantile regression, pooled cross-series
calibration, online coverage controllers, and Gaussian baselines), the
metrics to score them, rank-based significance tests, and a benchmark
harness with a CLI.
"""

from .bench import (
    BenchConfig,
    BenchmarkReport,
    BenchOutputError,
    NothingEvaluableError,
    SyntheticSpec,
    emit_reports,
    generate_synthetic,
    run_benchmark,
)
from .conformal import (
    EnsembleSpec,
    GlobalCpResult,
    IntervalMatrix,
    ResidualMatrix,
    SpciSpec,
    build_residual_matrix,
    conformal_quantile,
    cv_conformal_intervals,
    enbpi_intervals,
    global_cp_intervals,
    mscp_intervals,
    parametric_intervals,
    spci_intervals,
)
from .forecaster import (
    FittedForecaster,
    ForecasterSpec,
    fit_auto_ar,
    forecast,
    seasonal_naive_forecast,
    sigma_h,
)
from .metrics import (
    MethodSummary,
    MetricRecord,
    aggregate,
    joint_coverage,
    marginal_coverage,
    series_metrics,
    winkler,
    winkler_matrix,
)
from .online import (
    AciState,
    AcmcpState,
    CoverageEvent,
    aci_interval,
    aci_step,
    acmcp_init,
    acmcp_interval,
    acmcp_step,
)
from .series import (
    PanelError,
    SeriesPanel,
    SplitSpec,
    TimeSeries,
    parse_panel,
    serialize_panel,
)
from .stattest import (
    FriedmanResult,
    PosthocResult,
    RankTable,
    conover_posthoc,
    friedman_test,
    rank_scores,
)

__version__ = "0.1.0"

__all__ = [
    "AciState",
    "AcmcpState",
    "BenchConfig",
    "BenchmarkReport",
    "BenchOutputError",
    "CoverageEvent",
    "EnsembleSpec",
    "FittedForecaster",
    "ForecasterSpec",
    "FriedmanResult",
    "GlobalCpResult",
    "IntervalMatrix",
    "MethodSummary",
    "MetricRecord",
    "NothingEvaluableError",
    "PanelError",
    "PosthocResult",
    "RankTable",
    "ResidualMatrix",
    "SeriesPanel",
    "SpciSpec",
    "SplitSpec",
    "SyntheticSpec",
    "TimeSeries",
    "aci_interval",
    "aci_step",
    "acmcp_init",
    "acmcp_interval",
    "acmcp_step",
    "aggregate",
    "build_residual_matrix",
    "conformal_quantile",
    "conover_posthoc",
    "cv_conformal_intervals",
    "emit_reports",
    "enbpi_intervals",
    "fit_auto_ar",
    "forecast",
    "friedman_test",
    "generate_synthetic",
    "global_cp_intervals",
    "joint_coverage",
    "marginal_coverage",
    "mscp_intervals",
    "parametric_intervals",
    "parse_panel",
    "rank_scores",
    "run_benchmark",
    "seasonal_naive_forecast",
    "serialize_panel",
    "series_metrics",
    "sigma_h",
    "spci_intervals",
    "winkler",
    "winkler_matrix",
]
