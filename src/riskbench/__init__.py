"""riskbench: biased and unbiased VaR / ES estimation, calibration, backtesting."""

from .backtest import (
    BacktestConfig,
    BacktestReport,
    MethodReplicationStats,
    MethodResult,
    ReplicationSummary,
    WindowPairing,
    acerbi_z,
    bias_statistic,
    exceedance_rate,
    joint_var_es_score,
    mean_score,
    replication_study,
    rolling_backtest,
    split_windows,
    var_score,
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
    SimulationSpec,
    fit_gaussian,
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
    CornishFisherAdjustment,
    GaussianParams,
    GpdFit,
    MomentSummary,
    RiskEstimate,
    RiskLevel,
    StudentTParams,
    canonical_method,
    cornish_fisher_z,
    estimate,
    fit_gpd_pwm,
    fit_student_t,
    gpd_es_capital,
    gpd_var_capital,
    sample_moments,
    student_t_var_capital,
)
from .stats_core import (
    SeededRng,
    draw_gaussian,
    draw_pivotal_pairs,
    gaussian_cdf,
    gaussian_quantile,
    student_t_quantile,
    type7_quantile,
)

__version__ = "0.1.0"
