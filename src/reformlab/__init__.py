"""reformlab: equilibria, verification, and welfare for a career-concerns
reform-delegation game under three disclosure regimes."""

from .errors import (
    AssumptionError,
    DomainError,
    InformativenessError,
    NonFiniteError,
    PreconditionLossError,
    ReformLabError,
    UnderflowError,
    UnresolvedObservationError,
)
from .model_core import (
    AssumptionReport,
    Params,
    Posteriors,
    check_assumptions,
    find_p_bar,
    informativeness_condition,
    posteriors,
)
from .equilibrium import (
    BENCHMARK,
    NONTRANSPARENT,
    OPAQUE,
    TRANSPARENT_POOLING,
    TRANSPARENT_SEPARATING,
    AgentAction,
    Equilibrium,
    Observation,
    StrategyProfile,
    interior_effort,
    observe,
    separation_effort,
    solve,
    transparent_pooling_family,
)
from .verification import (
    BayesReport,
    BreakEvenReport,
    DeviationReport,
    NewsReport,
    bayes_consistency,
    deviation_check,
    divinity_breakeven,
    expected_utility,
    news_classification,
)
from .welfare import (
    ComparativeStaticsReport,
    Thresholds,
    WelfareEntry,
    WelfareReport,
    comparative_statics,
    formula_welfare,
    optimal_regime,
    regime_welfare,
    thresholds,
    thresholds_from_lambda_hat,
)
from .montecarlo import SimConfig, SimStats, convergence_sweep, simulate
from .cli import SweepAxis, SweepSpec, fixture_path, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AgentAction", "AssumptionError", "AssumptionReport",
    "BENCHMARK", "BayesReport", "BreakEvenReport", "ComparativeStaticsReport",
    "DeviationReport", "DomainError", "Equilibrium", "InformativenessError",
    "NONTRANSPARENT", "NewsReport", "NonFiniteError", "OPAQUE", "Observation",
    "Params", "Posteriors", "PreconditionLossError",
    "ReformLabError", "SimConfig", "SimStats", "StrategyProfile", "SweepAxis",
    "SweepSpec", "Thresholds", "TRANSPARENT_POOLING", "TRANSPARENT_SEPARATING",
    "UnderflowError", "UnresolvedObservationError", "WelfareEntry", "WelfareReport",
    "bayes_consistency", "check_assumptions", "comparative_statics",
    "convergence_sweep", "deviation_check", "divinity_breakeven",
    "expected_utility", "find_p_bar", "fixture_path", "formula_welfare",
    "informativeness_condition", "interior_effort", "news_classification",
    "observe", "optimal_regime", "posteriors", "regime_welfare", "run_sweep",
    "separation_effort", "simulate", "solve", "thresholds",
    "thresholds_from_lambda_hat", "transparent_pooling_family",
]
