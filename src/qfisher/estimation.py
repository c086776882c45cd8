"""Measurement protocol and adaptive parameter estimation loop.

A single round drives the equal superposition of the extreme tracked
eigenvectors under the controlled Hamiltonian designed at the current guess
g_c, measures the two-outcome observable built from the tracked basis at the
final time, and inverts the mean through arccos to infer the offset magnitude
|g - g_c|. The sign is resolved by a probe sub-round at a shifted guess, and
the guess sequence accumulates rounds by averaging the per-round estimates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AmbiguousPhase, BasisError, NumericalError, StatisticsError
from .control import ControlConfig, ControlledDrive, TrackedBasis, build_controlled_drive
from .fisher import spectral_gap_integral
from .models import ParametricModel
from .propagation import TimeGrid, final_unitaries

# Sample means are clamped into [-1, 1] before arccos; beyond this tolerance
# the statistics are considered corrupted rather than noisy.
MEAN_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class MeasurementSetup:
    """Two-outcome observable O = |+><+| - |-><-| built from the phase-tagged
    extreme basis vectors at the measurement time, plus the shot budget."""

    observable: np.ndarray = field(repr=False)
    plus_state: np.ndarray = field(repr=False)
    minus_state: np.ndarray = field(repr=False)
    shots: int = 1


def build_observable(
    basis: TrackedBasis,
    phases: Optional[tuple[float, float]] = None,
    shots: int = 1,
) -> MeasurementSetup:
    """Observable from the tracked basis at the final grid point.

    ``phases`` overrides the accumulated (theta_max, theta_min); by default
    they come from the basis (zero when all phase rates are zero). The
    resulting operator has eigenvalues exactly +1 and -1 (and zeros on the
    orthogonal complement for dim > 2).
    """
    psi_max = basis.vectors[-1, :, -1]
    psi_min = basis.vectors[-1, :, 0]
    overlap = abs(np.vdot(psi_max, psi_min))
    if overlap > 1e-8:
        raise BasisError(
            f"extreme eigenvectors are not orthogonal (overlap {overlap:.3e})"
        )
    if phases is None:
        theta_max = float(basis.phases[-1, -1])
        theta_min = float(basis.phases[-1, 0])
    else:
        theta_max, theta_min = float(phases[0]), float(phases[1])
    plus = (
        np.exp(-1j * theta_max) * psi_max + np.exp(-1j * theta_min) * psi_min
    ) / np.sqrt(2.0)
    minus = (
        np.exp(-1j * theta_max) * psi_max - np.exp(-1j * theta_min) * psi_min
    ) / np.sqrt(2.0)
    observable = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
    return MeasurementSetup(
        observable=observable,
        plus_state=plus,
        minus_state=minus,
        shots=shots,
    )


def expected_statistics(delta_g: float, gap_integral: float) -> tuple[float, float]:
    """Leading-order mean and variance of the observable:
    mean = cos(delta_g * Gamma), variance = sin^2(delta_g * Gamma), where
    Gamma is the spectral-gap time integral. The implied single-shot
    uncertainty delta_g^2 = variance / (d mean / d delta_g)^2 = 1 / Gamma^2 is
    the inverse of the Fisher upper bound."""
    if not gap_integral > 0.0:
        raise ValueError(f"gap integral must be positive, got {gap_integral}")
    phase = delta_g * gap_integral
    return float(np.cos(phase)), float(np.sin(phase) ** 2)


def born_probabilities(
    final_state: np.ndarray, setup: MeasurementSetup
) -> tuple[float, float, float]:
    """Outcome probabilities (p_plus, p_minus, p_rest) for the projective
    observable measurement."""
    final_state = np.asarray(final_state, dtype=complex)
    p_plus = float(abs(np.vdot(setup.plus_state, final_state)) ** 2)
    p_minus = float(abs(np.vdot(setup.minus_state, final_state)) ** 2)
    p_rest = 1.0 - p_plus - p_minus
    for p in (p_plus, p_minus, p_rest):
        if p < -1e-10 or p > 1.0 + 1e-10:
            raise NumericalError(f"Born probability {p} outside [0, 1]")
    return p_plus, p_minus, max(p_rest, 0.0)


def sample_shots(
    final_state: np.ndarray,
    setup: MeasurementSetup,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """setup.shots i.i.d. outcomes in {+1, -1, 0} from the Born rule.

    Deterministic for a given seed or generator state.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p_plus, p_minus, p_rest = born_probabilities(final_state, setup)
    total = p_plus + p_minus + p_rest
    probs = np.array([p_plus, p_minus, p_rest]) / total
    probs = np.clip(probs, 0.0, 1.0)
    probs /= probs.sum()
    return rng.choice(np.array([1, -1, 0]), size=setup.shots, p=probs)


@dataclass(frozen=True)
class RoundRecord:
    """Everything observed and decided in one adaptive round."""

    round_index: int
    g_c: float
    sample_mean: float
    sample_variance: float
    abs_offset: float
    sign: int
    probe_g_c: Optional[float]
    probe_mean: Optional[float]
    raw_estimate: float
    updated_g_c: float
    main_shots: int
    probe_shots: int


@dataclass(frozen=True)
class EstimationTrace:
    """Full record of an adaptive estimation run."""

    seed: int
    g_c0: float
    gap_integral: float
    rounds: tuple[RoundRecord, ...]
    final_estimate: float
    total_main_shots: int
    total_probe_shots: int
    upper_bound_qfi: float
    crb_variance: float

    def to_json(self) -> str:
        payload = asdict(self)
        payload["rounds"] = [asdict(r) for r in self.rounds]
        return json.dumps(payload, indent=2, sort_keys=True)


def _round_measurement(
    model: ParametricModel,
    g_true: float,
    g_c: float,
    grid: TimeGrid,
    shots: int,
    rng: np.random.Generator,
    f_k: Optional[Sequence[Callable]] = None,
) -> tuple[float, float, ControlledDrive]:
    """Simulate one full measurement round: returns (sample mean, sample
    variance, drive). The true parameter enters only the simulated physics."""
    drive = build_controlled_drive(model, g_true, ControlConfig(g_c=g_c, f_k=f_k), grid)
    psi0 = (drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, -1]) / np.sqrt(2.0)
    psi_final = final_unitaries([drive.hamiltonian], grid)[0] @ psi0
    setup = build_observable(drive.basis, shots=shots)
    outcomes = sample_shots(psi_final, setup, rng)
    return float(np.mean(outcomes)), float(np.var(outcomes)), drive


def _invert_mean(sample_mean: float, gap_integral: float) -> float:
    """|delta_g| from the sample mean via arccos, clamping shot noise into the
    valid range."""
    if abs(sample_mean) > 1.0 + MEAN_CLAMP_TOL:
        raise StatisticsError(
            f"sample mean {sample_mean} outside [-1, 1] beyond tolerance"
        )
    return float(np.arccos(np.clip(sample_mean, -1.0, 1.0)) / gap_integral)


def adaptive_estimate(
    model: ParametricModel,
    g_true: float,
    g_c0: float,
    rounds: int,
    shots_per_round: int,
    grid: TimeGrid,
    rng_seed: int,
    probe_shots: Optional[int] = None,
    f_k: Optional[Sequence[Callable]] = None,
) -> EstimationTrace:
    """Iterative estimation of g_true starting from the guess g_c0.

    Each round measures at the current guess, inverts the mean for the offset
    magnitude, and resolves the sign with a probe sub-round at the shifted
    guess g_c + |offset| (an offset that shrinks there confirms the positive
    direction). The guess for the next round is the average of all per-round
    estimates so far, so information accumulates across rounds; the trace
    records every quantity needed to reproduce the run bit-for-bit.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if shots_per_round < 1:
        raise ValueError(f"shots_per_round must be >= 1, got {shots_per_round}")
    if probe_shots is None:
        probe_shots = max(1, shots_per_round // 4)
    gap_integral = spectral_gap_integral(model, g_c0, grid)
    if abs(g_true - g_c0) * gap_integral >= np.pi:
        raise AmbiguousPhase(
            "initial guess outside the single-valued inversion window: "
            f"|g - g_c0| * Gamma = {abs(g_true - g_c0) * gap_integral:.3f} >= pi"
        )
    rng = np.random.default_rng(rng_seed)

    records: list[RoundRecord] = []
    estimates: list[float] = []
    g_c = float(g_c0)
    total_main = 0
    total_probe = 0
    for r in range(rounds):
        # The gap integral of dH/dg at the current design point calibrates
        # this round's inversion (constant in g for the rotating model).
        gamma = spectral_gap_integral(model, g_c, grid)
        # Below roughly twice the shot-noise floor the sign of the offset is
        # not resolvable (and does not matter); skip the probe there.
        noise_floor = 2.0 / (np.sqrt(shots_per_round) * gamma)
        mean, variance, _ = _round_measurement(
            model, g_true, g_c, grid, shots_per_round, rng, f_k=f_k
        )
        total_main += shots_per_round
        abs_offset = _invert_mean(mean, gamma)
        sign = 1
        probe_g_c: Optional[float] = None
        probe_mean: Optional[float] = None
        if abs_offset > noise_floor:
            probe_g_c = g_c + abs_offset
            probe_mean, _, _ = _round_measurement(
                model, g_true, probe_g_c, grid, probe_shots, rng, f_k=f_k
            )
            total_probe += probe_shots
            probe_offset = _invert_mean(probe_mean, gamma)
            sign = 1 if probe_offset < abs_offset else -1
        raw_estimate = g_c + sign * abs_offset
        estimates.append(raw_estimate)
        updated = float(np.mean(estimates))
        records.append(
            RoundRecord(
                round_index=r,
                g_c=g_c,
                sample_mean=mean,
                sample_variance=variance,
                abs_offset=abs_offset,
                sign=sign,
                probe_g_c=probe_g_c,
                probe_mean=probe_mean,
                raw_estimate=raw_estimate,
                updated_g_c=updated,
                main_shots=shots_per_round,
                probe_shots=probe_shots if probe_g_c is not None else 0,
            )
        )
        g_c = updated
    bound = gap_integral * gap_integral
    total_budget = rounds * shots_per_round
    return EstimationTrace(
        seed=int(rng_seed),
        g_c0=float(g_c0),
        gap_integral=gap_integral,
        rounds=tuple(records),
        final_estimate=g_c,
        total_main_shots=total_main,
        total_probe_shots=total_probe,
        upper_bound_qfi=bound,
        crb_variance=1.0 / (total_budget * bound),
    )
