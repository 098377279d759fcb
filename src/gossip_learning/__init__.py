"""Gossip-style social learning on directed networks.

Agents hold beliefs over a finite set of candidate states. Each round every
agent draws a private signal, consults one randomly chosen neighbor, and
Bayes-combines that neighbor's previous belief with her own signal, keeping
no other memory. The package simulates this protocol with replayable seeded
traces and checks the resulting learning behavior against its closed-form
asymptotics: the stationary weights of the selection chain and the implied
exponential decay rate of belief on false states.
"""

from .analysis import (
    OccupancyReport,
    RateReport,
    RateRow,
    belief_difference,
    occupancy,
    rate_report,
    theoretical_rate,
)
from .belief import bayes_log_posterior
from .config import AnalysisConfig, ExperimentConfig, load_config, parse_config_dict
from .errors import (
    ImpossibleSignalError,
    MultipleRecurrentClassesError,
    StationarySolveError,
    ValidationError,
)
from .graph import (
    DirectedNetwork,
    RecurrentClasses,
    SelectionMatrix,
    StationaryDistribution,
    custom_selection_matrix,
    is_strongly_connected,
    recurrent_classes,
    stationary_distribution,
    uniform_selection_matrix,
)
from .simulator import (
    SimulationConfig,
    SimulationTrace,
    backward_walk,
    read_trace,
    run,
    run_replications,
    verify_walk_identity,
    write_trace,
)
from .world import (
    IdentifiabilityReport,
    Prior,
    StateSpace,
    WorldModel,
    check_global_identifiability,
    kl_divergence,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "DirectedNetwork",
    "ExperimentConfig",
    "IdentifiabilityReport",
    "ImpossibleSignalError",
    "MultipleRecurrentClassesError",
    "OccupancyReport",
    "Prior",
    "RateReport",
    "RateRow",
    "RecurrentClasses",
    "SelectionMatrix",
    "SimulationConfig",
    "SimulationTrace",
    "StateSpace",
    "StationaryDistribution",
    "StationarySolveError",
    "ValidationError",
    "WorldModel",
    "backward_walk",
    "bayes_log_posterior",
    "belief_difference",
    "check_global_identifiability",
    "custom_selection_matrix",
    "is_strongly_connected",
    "kl_divergence",
    "load_config",
    "occupancy",
    "parse_config_dict",
    "rate_report",
    "read_trace",
    "recurrent_classes",
    "run",
    "run_replications",
    "stationary_distribution",
    "theoretical_rate",
    "uniform_selection_matrix",
    "verify_walk_identity",
    "write_trace",
]
