"""Labor-force-driven Phillips curve estimation and long-horizon forecasting."""

from .errors import (
    DomainError,
    EstimationError,
    InputError,
    LfphillipsError,
    ParseError,
    RetrievalError,
)
from .series import AnnualSeries, align, log_growth
from .estimate import (
    FitResult,
    LagScore,
    LinkSpec,
    Predictor,
    cumulative_fit,
    fit,
    fit_piecewise,
    ols_fit,
    predict,
    scan_break,
    scan_lag,
)
from .diagnose import AdfResult, adf_test, t_pvalue
from .forecast import (
    MODEL_REGISTRY,
    ForecastResult,
    ModelRegistryEntry,
    Scenario,
    build_scenario,
    forecast_report,
)
from .ingest import (
    RemoteDescriptor,
    load_manifest,
    load_series,
    participation_labor_force,
    read_csv_series,
    read_entry,
)

__version__ = "0.1.0"
