"""Quantum Fisher information analysis and control synthesis for
time-dependent Hamiltonians, with an adaptive single-qubit estimation
protocol and frame-transformation tools."""

from .errors import (
    AmbiguousPhase,
    BasisError,
    ConfigError,
    DegenerateDerivativeSpectrum,
    DimMismatch,
    FitError,
    GaugeError,
    InvalidConfig,
    InvalidFrequency,
    InvalidMatrix,
    NotImplementedForEstimand,
    NumericalError,
    QFisherError,
    StatisticsError,
    StepTooCoarse,
)
from .operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    EigenSystem,
    conjugate_pauli,
    eig_hermitian,
    pauli_components,
)
from .models import (
    Estimand,
    ParametricModel,
    RotatingFieldConfig,
    analytic_cd_qubit,
    make_rotating_qubit,
)
from .propagation import Propagator, TimeGrid, default_steps, evolve_state, propagate
from .fisher import (
    GeneratorMethod,
    GeneratorReport,
    generator_derivative,
    generator_integral,
    generator_report,
    maximal_qfi,
    optimal_qfi,
    spectral_gap_integral,
    upper_bound_qfi,
)
from .control import (
    ControlConfig,
    ControlledDrive,
    ExpansionFit,
    TrackedBasis,
    build_controlled_drive,
    expand_generator,
    synthesize_cd,
    track_eigenbasis,
    tracked_basis_from_analytic,
)
from .frames import (
    FrameInvarianceReport,
    FrameTransform,
    appendix_a_distinction,
    boundary_times,
    closed_form_transformed_drive,
    fisher_invariance_check,
    identity_frame,
    linear_pauli_frame,
    pauli_frame,
    sigma_y_removal_frame,
    transform_hamiltonian,
)
from .estimation import (
    EstimationTrace,
    MeasurementSetup,
    RoundRecord,
    adaptive_estimate,
    born_probabilities,
    build_observable,
    expected_statistics,
    sample_shots,
)

__version__ = "0.1.0"
