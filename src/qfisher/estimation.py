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
from typing import Optional

import numpy as np

from .errors import AmbiguousPhase, BasisError, NumericalError
from .control import ControlConfig, TrackedBasis, build_controlled_drive
from .fisher import spectral_gap_integral
from .models import ParametricModel
from .operators import block_slices, pairwise_sum
from .propagation import TimeGrid, _count, _tree_final_unitary

# Outcome of each shot level, the number of cumulative-probability
# thresholds the shot's uniform reaches: 0 -> +1, 1 -> -1, 2 -> 0.
_OUTCOMES = np.array([1, -1, 0])


@dataclass(frozen=True)
class MeasurementSetup:
    """Two-outcome observable O = |+><+| - |-><-| built from the phase-tagged
    extreme basis vectors at the measurement time, plus the shot count >= 1."""

    observable: np.ndarray = field(repr=False)
    plus_state: np.ndarray = field(repr=False)
    minus_state: np.ndarray = field(repr=False)
    shots: int = 1

    def __post_init__(self) -> None:
        _count("shots", self.shots)


def build_observable(basis: TrackedBasis, shots: int = 1) -> MeasurementSetup:
    """Observable from the tracked basis at the final grid point.

    The phases (theta_max, theta_min) are the basis's accumulated ones (zero
    when all phase rates are zero). The resulting operator has eigenvalues
    exactly +1 and -1 (and zeros on the orthogonal complement for dim > 2).
    """
    psi_max = basis.vectors[-1, :, -1]
    psi_min = basis.vectors[-1, :, 0]
    overlap = abs(np.vdot(psi_max, psi_min))
    if not overlap <= 1e-8:  # NaN fails too
        raise BasisError(
            f"extreme eigenvectors are not orthogonal (overlap {overlap:.3e})"
        )
    theta_max = float(basis.phases[-1, -1])
    theta_min = float(basis.phases[-1, 0])
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
        if not -1e-10 <= p <= 1.0 + 1e-10:  # NaN fails too
            raise NumericalError(f"Born probability {p} outside [0, 1]")
    return p_plus, p_minus, max(p_rest, 0.0)


def sample_shots(
    final_state: np.ndarray,
    setup: MeasurementSetup,
    rng: np.random.Generator | int,
) -> np.ndarray:
    """setup.shots i.i.d. outcomes in {+1, -1, 0} from the Born rule.

    Deterministic for a given seed or generator state. The draws are those of
    ``rng.choice([1, -1, 0], size=shots, p=probs)``: one uniform per shot,
    compared with the normalized cumulative probabilities, so the outcomes
    and the generator state afterwards are the same as choice's. One pass
    draws the uniforms block by block into one reused buffer (the same
    stream as one ``rng.random(shots)``) and keeps one byte per shot
    (``_draw_shots``); the outcomes are formed from those bytes at the end.
    """
    levels = np.empty(setup.shots, dtype=np.uint8)
    _draw_shots(final_state, setup, rng, levels)
    return _OUTCOMES[levels]


def _draw_shots(
    final_state: np.ndarray,
    setup: MeasurementSetup,
    rng: np.random.Generator | int,
    levels: Optional[np.ndarray],
) -> float:
    """Draw the shots of ``sample_shots``, write their uint8 levels into
    ``levels`` unless it is None, and return ``np.mean`` of their outcomes
    bit for bit: ``float(n_plus - n_minus) / shots``, as numpy sums integer
    outcomes exactly in float64. Each ``block_slices`` block of uniforms is
    drawn into one reused buffer, compared and counted while in cache. A
    uniform is below 1.0 (at most 1 - 2^-53 on PCG64), so a second threshold
    of 1.0 is skipped, and is added into a block's levels only if reached.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p_plus, p_minus, p_rest = born_probabilities(final_state, setup)
    total = p_plus + p_minus + p_rest
    probs = np.array([p_plus, p_minus, p_rest]) / total
    probs = np.clip(probs, 0.0, 1.0)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    blocks = block_slices(0, setup.shots, 1)
    buf = np.empty(blocks[0].stop)  # the first block is the longest
    mask = np.empty(len(buf), dtype=bool)
    reached = [0, 0]  # shots whose uniform reached cdf[0], cdf[1]
    for blk in blocks:
        u = rng.random(out=buf[: blk.stop - blk.start])
        first = mask[: len(u)] if levels is None else levels[blk].view(bool)
        reached[0] += np.count_nonzero(np.greater_equal(u, cdf[0], out=first))
        if cdf[1] < 1.0:
            second = np.greater_equal(u, cdf[1], out=mask[: len(u)])
            n = np.count_nonzero(second)
            if n and levels is not None:
                levels[blk] += second
            reached[1] += n
    n_plus, n_minus = setup.shots - reached[0], reached[0] - reached[1]
    return float(n_plus - n_minus) / setup.shots


def _sample_variance(levels: np.ndarray, mean: float) -> float:
    """``np.var`` of the outcomes of ``levels``, bit for bit, given their
    mean from ``_draw_shots``: the squared deviations (squared as ``x * x``,
    as numpy does) summed in numpy's pairwise order one block at a time,
    then divided by the shot count."""
    dev = _OUTCOMES - mean
    sq = dev * dev
    total = pairwise_sum(len(levels), lambda seg: np.take(sq, levels[seg]), 1)
    return total / len(levels)


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
    levels: Optional[np.ndarray],
) -> float:
    """Simulate one full measurement round: returns its sample mean and
    writes the shot levels into ``levels`` unless it is None (``_draw_shots``).
    The true parameter enters only the simulated physics. U(T) is the
    pairwise-tree product, which differs from ``final_unitaries`` by
    rounding: a shot can move only if its uniform lies within a few ulp of a
    cumulative-probability threshold."""
    drive = build_controlled_drive(model, g_true, ControlConfig(g_c=g_c), grid)
    psi0 = (drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, -1]) / np.sqrt(2.0)
    psi_final = _tree_final_unitary(drive.hamiltonian, grid) @ psi0
    setup = build_observable(drive.basis, shots=shots)
    return _draw_shots(psi_final, setup, rng, levels)


def _invert_mean(sample_mean: float, gap_integral: float) -> float:
    """|delta_g| from the sample mean via arccos. A mean of ``_draw_shots``
    lies in [-1, 1] exactly, so the inversion needs no clamp."""
    return float(np.arccos(sample_mean) / gap_integral)


def adaptive_estimate(
    model: ParametricModel,
    g_true: float,
    g_c0: float,
    rounds: int,
    shots_per_round: int,
    grid: TimeGrid,
    rng_seed: int,
    probe_shots: Optional[int] = None,
) -> EstimationTrace:
    """Iterative estimation of g_true starting from the guess g_c0.

    Each round measures at the current guess, inverts the mean for the offset
    magnitude, and resolves the sign with a probe sub-round at the shifted
    guess g_c + |offset| (an offset that shrinks there confirms the positive
    direction). The guess for the next round is the average of all per-round
    estimates so far, so information accumulates across rounds; the trace
    records every quantity needed to reproduce the run bit-for-bit.
    ``rounds``, ``shots_per_round`` and ``probe_shots`` must be integers
    >= 1, and bool is rejected; ``g_true`` and ``g_c0`` must be finite: any
    other value raises ValueError before the first round is designed.
    """
    rounds = _count("rounds", rounds)
    shots_per_round = _count("shots_per_round", shots_per_round)
    if probe_shots is None:
        probe_shots = max(1, shots_per_round // 4)
    probe_shots = _count("probe_shots", probe_shots)
    for name, value in (("g_true", g_true), ("g_c0", g_c0)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    g_c = float(g_c0)
    gap_integral = spectral_gap_integral(model, g_c, grid)
    window = abs(g_true - g_c0) * gap_integral
    if not window < np.pi:  # NaN fails too
        raise AmbiguousPhase(
            "initial guess outside the single-valued inversion window: "
            f"|g - g_c0| * Gamma = {window:.3f} >= pi"
        )
    rng = np.random.default_rng(rng_seed)
    levels = np.empty(shots_per_round, dtype=np.uint8)  # reused by every round

    records: list[RoundRecord] = []
    estimates: list[float] = []
    total_main = 0
    total_probe = 0
    for r in range(rounds):
        # The gap integral of dH/dg at the current design point calibrates
        # this round's inversion (constant in g for the rotating model);
        # round 0's design point is g_c0, whose integral is already known.
        gamma = spectral_gap_integral(model, g_c, grid) if r else gap_integral
        # Below roughly twice the shot-noise floor the sign of the offset is
        # not resolvable (and does not matter); skip the probe there.
        noise_floor = 2.0 / (np.sqrt(shots_per_round) * gamma)
        mean = _round_measurement(model, g_true, g_c, grid, shots_per_round, rng, levels)
        variance = _sample_variance(levels, mean)
        total_main += shots_per_round
        abs_offset = _invert_mean(mean, gamma)
        sign = 1
        probe_g_c: Optional[float] = None
        probe_mean: Optional[float] = None
        if abs_offset > noise_floor:
            probe_g_c = g_c + abs_offset
            probe_mean = _round_measurement(model, g_true, probe_g_c, grid, probe_shots, rng, None)
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
