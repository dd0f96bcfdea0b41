"""Event-triggered LQG: analytic rate/cost formulas with Monte Carlo validation.

A linear plant is observed by a sensor-side Kalman filter; a stochastic
trigger with a hard timeout decides when the filtered estimate crosses the
network to the controller. The package computes the resulting transmission
rate and long-run quadratic cost in closed form and cross-checks both with a
seeded closed-loop simulator.
"""

from .errors import (ConfigError, ConvergenceError, DefinitenessError,
                     DivergenceError, EtlqgError, ModelError, NumericalError,
                     ValidationFailure)
from .model import (SystemModel, ValidationCheck, ValidationReport,
                    controllability_rank, observability_rank, validate_model)
from .estimation import SteadyStateFilter, kf_steady_state
from .analysis import (MarkovAnalysis, analysis_record, conditional_error_cov,
                       stationary_distribution, transition_matrix)
from .control import (ControlSynthesis, CostBreakdown, control_steady_state,
                      cost_tradeoff_curve, infinite_horizon_cost)
from .simulation import SimConfig, aggregate_runs, run_closed_loop
from .config import (ExperimentConfig, config_to_dict, default_config_path,
                     load_config)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "DefinitenessError", "DivergenceError",
    "EtlqgError", "ModelError", "NumericalError", "ValidationFailure",
    "SystemModel", "ValidationCheck", "ValidationReport",
    "controllability_rank", "observability_rank", "validate_model",
    "SteadyStateFilter", "kf_steady_state",
    "MarkovAnalysis", "analysis_record", "conditional_error_cov",
    "stationary_distribution", "transition_matrix",
    "ControlSynthesis", "CostBreakdown",
    "control_steady_state", "cost_tradeoff_curve", "infinite_horizon_cost",
    "SimConfig", "aggregate_runs", "run_closed_loop",
    "ExperimentConfig", "config_to_dict", "default_config_path", "load_config",
    "__version__",
]
