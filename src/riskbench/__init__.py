"""riskbench: biased and unbiased VaR / ES estimation, calibration, backtesting."""

from .backtest import (
    BacktestConfig,
    BacktestReport,
    MethodReplicationStats,
    MethodResult,
    ReplicationSummary,
    acerbi_z,
    bias_statistic,
    mean_score,
    replication_study,
    rolling_backtest,
    split_windows,
)
from .calibration import (
    CalibrationEntry,
    CalibrationTable,
    ExceedanceCheck,
    empirical_es,
    exact_unbiased_es_constant,
    pivotality_check,
    secured_position_es,
    solve_unbiased_es_constant,
)
from .data_io import (
    ReturnSeries,
    load_returns_csv,
    simulate_series,
    write_report,
)
from .errors import (
    CalibrationError,
    CalibrationFailureError,
    ConfigError,
    DataError,
    DegenerateFitError,
    DomainError,
    EmptyTailError,
    InfiniteMeanTailError,
    IngestionError,
    InsufficientTailError,
    LevelTooHighError,
    OutputError,
    RiskbenchError,
    SizeError,
    TailError,
)
from .estimators import (
    METHODS,
    GaussianParams,
    RiskLevel,
    StudentTParams,
    canonical_method,
    estimate,
    fit_student_t,
)
from .stats_core import (
    SeededRng,
    draw_gaussian,
    draw_pivotal_pairs,
)

__version__ = "0.1.0"
