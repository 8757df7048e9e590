"""Qubit-oscillator dynamics under linear parameter sweeps.

A dense-matrix simulator for a single qubit coupled to one or more oscillator
modes, driven by linear ramps of the qubit gap (quenches between the weakly
and strongly correlated regimes) or of the qubit bias (multi-level
avoided-crossing sweeps), together with the closed-form results that serve as
independent oracles for the dynamics.
"""

from ._version import __version__
from .analytics import (
    FockPrepWindow,
    GapSpectrum,
    cascade_gaps,
    cascade_probabilities,
    default_n_max,
    fock_prep_window,
    lz_probability,
    multimode_gaps,
    poisson_overlap,
    sequential_crossing_probabilities,
)
from .errors import (
    DegenerateCrossingError,
    GapTruncationError,
    InsufficientTruncationError,
    InvalidParameterError,
    InvalidTruncationError,
    NumericalInstabilityError,
    RabisweepError,
    ResourceLimitError,
    SymmetryViolationError,
)
from .experiments import (
    ConvergenceReport,
    ExperimentSpec,
    ResultRow,
    ResultTable,
    convergence_scan,
    default_quench_delta_hi,
    lz_scan,
    lz_time_trace,
    lz_window,
    multimode_scan,
    quench_rate_scan,
    quench_time_trace,
    run_experiment,
)
from .io import (
    emit_svg,
    parse_config_file,
    read_result_table,
    render_result_csv,
    write_result_table,
)
from .model import (
    BasisLabel,
    EVEN_SECTOR,
    Mode,
    MultiModeParams,
    ODD_SECTOR,
    ParitySector,
    ProbabilityRecord,
    QrmParams,
    Readout,
    build_multimode,
    build_qrm,
    critical_delta,
    default_n_fock,
    delta_ramp,
    displaced_fock_tail,
    displaced_level_fits,
    displaced_state,
    epsilon_ramp,
    multimode_displaced_basis,
    normal_state,
    parity_block_ladder,
    parity_operator,
    parity_sector_basis,
    parity_sector_labels,
    scheme_basis,
    superradiant_state,
    top_fock_occupancy,
)
from .operators import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    annihilation,
    eig_hermitian,
    hermiticity_defect,
    kron,
    unitary_displacement,
)
from .presets import PRESETS
from .sweep import (
    RateBlock,
    SweepSchedule,
    Trajectory,
    greedy_label_assignment,
    ground_state,
    hamiltonian_parts,
    project_records,
    readout_columns,
    run_sweep,
)

__all__ = [
    "FockPrepWindow", "GapSpectrum", "cascade_gaps", "cascade_probabilities",
    "default_n_max", "fock_prep_window", "lz_probability", "multimode_gaps",
    "poisson_overlap", "sequential_crossing_probabilities", "DegenerateCrossingError",
    "GapTruncationError", "InsufficientTruncationError", "InvalidParameterError",
    "InvalidTruncationError", "NumericalInstabilityError", "RabisweepError",
    "ResourceLimitError", "SymmetryViolationError", "ConvergenceReport", "ExperimentSpec",
    "ResultRow", "ResultTable", "convergence_scan", "default_quench_delta_hi", "lz_scan",
    "lz_time_trace", "lz_window", "multimode_scan", "quench_rate_scan",
    "quench_time_trace", "run_experiment", "emit_svg",
    "parse_config_file", "read_result_table", "render_result_csv", "write_result_table",
    "BasisLabel", "EVEN_SECTOR", "Mode", "MultiModeParams", "ODD_SECTOR",
    "ParitySector", "ProbabilityRecord", "QrmParams", "Readout", "build_multimode", "build_qrm",
    "critical_delta", "default_n_fock", "delta_ramp", "displaced_fock_tail",
    "displaced_level_fits", "displaced_state", "epsilon_ramp",
    "multimode_displaced_basis", "normal_state", "parity_block_ladder", "parity_operator",
    "parity_sector_basis", "parity_sector_labels", "scheme_basis", "superradiant_state",
    "top_fock_occupancy", "IDENTITY_2", "SIGMA_X", "SIGMA_Z", "StateVector",
    "annihilation", "eig_hermitian", "hermiticity_defect", "kron",
    "unitary_displacement", "PRESETS", "RateBlock", "SweepSchedule", "Trajectory",
    "greedy_label_assignment", "ground_state", "hamiltonian_parts", "project_records",
    "readout_columns", "run_sweep",
]
