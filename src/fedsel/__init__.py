"""Guided participant selection for federated training and testing."""

from .errors import (BudgetExceededError, CheckpointError, EmptySelectionError,
                     FedselError, InfeasibleQueryError, SizeGuardError,
                     StaleFeedbackError, TableParseError, TraceParseError,
                     UnknownClientError)
from .metastore import Checkpoint, MetaStore, RoundFeedback, StoreView
from .testing import (Assignment, DeviationQuery, DistributionQuery,
                      compile_representative_preference,
                      estimate_participant_count, exact_milp, greedy_cover,
                      min_makespan_assignment, validate_assignment,
                      verify_bound_montecarlo)
from .training import (SelectorConfig, TrainingSelector, clip_cap,
                       exploration_fraction, gradient_norm_utility, pacer_tick,
                       perturb_utilities, scheduled_pacer_tick,
                       staleness_bonus, statistical_utility, system_penalty)
from .simulation import (POLICIES, RoundResult, TrainingSession, TrainRecord,
                         corrupt_clients, fairness_metrics)
from .workload import (PopulationSpec, SimWorld, apply_trace,
                       generate_population, load_trace)

__all__ = [
    "Assignment", "BudgetExceededError", "Checkpoint", "CheckpointError",
    "DeviationQuery", "DistributionQuery", "EmptySelectionError",
    "FedselError", "InfeasibleQueryError", "MetaStore",
    "POLICIES", "PopulationSpec", "RoundFeedback", "RoundResult",
    "SelectorConfig", "SimWorld", "SizeGuardError", "StaleFeedbackError",
    "StoreView", "TableParseError", "TraceParseError", "TrainRecord",
    "TrainingSelector", "TrainingSession", "UnknownClientError",
    "apply_trace", "clip_cap",
    "compile_representative_preference", "corrupt_clients",
    "estimate_participant_count", "exact_milp", "exploration_fraction",
    "fairness_metrics", "generate_population", "gradient_norm_utility",
    "greedy_cover", "load_trace", "min_makespan_assignment", "pacer_tick",
    "perturb_utilities", "scheduled_pacer_tick",
    "staleness_bonus", "statistical_utility", "system_penalty",
    "validate_assignment", "verify_bound_montecarlo",
]
