"""Numerical laboratory for continuous-time consensus dynamics over
time-varying undirected and signed graphs."""

from .errors import (
    ConfigurationError,
    ConsensusLabError,
    HorizonError,
    InvalidSnapshotError,
    NegativeLinkError,
    ScenarioError,
    SignedGraphError,
    UnobservableWindowError,
)
from .graph import (
    ConnectivityCertificate,
    IncidenceMatrix,
    NegativeLinkReport,
    WeightSchedule,
    WindowEvidence,
    check_joint_connectivity,
    edge_pairs,
    incidence,
    integrated_laplacian,
    integrated_weights,
    lambda2,
    laplacian,
    load_schedule,
    negative_link_assumption_holds,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    window_starts,
)
from .dynamics import (
    NoiseProcess,
    Trajectory,
    TransitionMatrix,
    average_drift,
    project,
    read_trajectory_csv,
    simulate,
    transition_matrix,
)
from .observability import (
    EdgeSignalTrace,
    ObservabilityGramian,
    UniformBounds,
    edge_signals,
    gramian,
    read_edge_signals_csv,
    reconstruct,
    uniform_bounds_check,
)
from .analysis import (
    RateFit,
    RobustnessReport,
    consensus_error,
    fit_exponential_rate,
    max_state_difference,
    robustness_report,
    signed_convergence_check,
)

__version__ = "0.1.0"
