"""The public names of the qfisher package, pinned: a change that adds or
drops one edits the lists below, so every change to the API shows in its diff."""

import json
import os
import subprocess
import sys

import qfisher

PUBLIC_NAMES = frozenset({
    "AmbiguousPhase", "BasisError", "ConfigError", "ControlConfig", "ControlledDrive",
    "DegenerateDerivativeSpectrum", "DimMismatch", "Estimand", "EstimationTrace",
    "ExpansionFit", "FitError", "FrameInvarianceReport", "FrameTransform", "GaugeError",
    "GeneratorReport", "InvalidConfig", "InvalidFrequency", "InvalidMatrix",
    "MeasurementSetup", "NotImplementedForEstimand", "NumericalError", "ParametricModel",
    "Propagator", "QFisherError", "RotatingFieldConfig", "RoundRecord", "SIGMA_X",
    "SIGMA_Y", "SIGMA_Z", "StepTooCoarse", "TimeGrid", "TrackedBasis", "adaptive_estimate",
    "analytic_cd_qubit", "appendix_a_distinction", "born_probabilities", "boundary_times",
    "build_controlled_drive", "build_observable", "closed_form_transformed_drive",
    "conjugate_pauli", "eig_hermitian", "evolve_state", "expand_generator",
    "expected_statistics", "fisher_invariance_check", "generator_derivative",
    "generator_integral", "generator_report", "make_rotating_qubit", "maximal_qfi",
    "optimal_qfi", "pauli_components", "pauli_frame", "propagate", "sample_shots",
    "sigma_y_removal_frame", "spectral_gap_integral", "synthesize_cd", "track_eigenbasis",
    "tracked_basis_from_analytic", "transform_hamiltonian", "upper_bound_qfi",
})
# Submodules that ``import qfisher`` loads, which are attributes of the package.
SUBMODULES = frozenset({
    "control", "errors", "estimation", "fisher", "frames", "models", "operators",
    "propagation",
})


def test_public_names_are_pinned():
    # A fresh interpreter: other tests import more submodules, such as
    # qfisher.cli, which then show up as attributes of the package.
    src = os.path.dirname(os.path.dirname(qfisher.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, qfisher; "
        "print(json.dumps(sorted(n for n in dir(qfisher) if not n.startswith('_'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    names = set(json.loads(out.stdout))
    assert names == PUBLIC_NAMES | SUBMODULES
    assert (len(PUBLIC_NAMES), len(names)) == (63, 71)
