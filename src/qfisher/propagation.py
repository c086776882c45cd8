"""Time-ordered unitary evolution on a fixed grid.

The integrator is a fixed-step midpoint exponential,
U(0 -> t_{i+1}) = exp(-i dt H(t_i + dt/2)) U(0 -> t_i),
which is exactly unitary per step and second-order accurate. All intermediate
unitaries are stored so generator integrals can be evaluated in one pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimMismatch, InvalidMatrix, StepTooCoarse
from .operators import exp_skew_batch, pauli_components

# max ||H|| * dt above which propagation refuses to run / starts warning.
STEP_LIMIT = 0.1
STEP_RECOMMENDED = 0.01


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * t_end / steps, i = 0..steps."""

    t_end: float
    steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.steps + 1)

    @property
    def dt(self) -> float:
        return self.t_end / self.steps

    @cached_property
    def midpoints(self) -> np.ndarray:
        return self.points[:-1] + 0.5 * self.dt


@dataclass(frozen=True)
class Propagator:
    """Grid plus the evolution operators U(0 -> t_i) at every grid point."""

    grid: TimeGrid
    unitaries: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.unitaries.shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.unitaries[-1]


def eval_hamiltonian_batch(h_of_t: Callable, times: np.ndarray) -> np.ndarray:
    """Evaluate a Hamiltonian callback on an array of times.

    Vectorized callbacks (returning (n, d, d) for array input) are used
    directly; scalar-only callbacks fall back to a loop. Such callbacks fail on
    an array with TypeError (e.g. ``float(array)``) or ValueError (a ragged
    matrix literal), or return the wrong shape; any other error propagates.
    """
    times = np.asarray(times, dtype=float)
    try:
        mats = np.asarray(h_of_t(times), dtype=complex)
        if mats.ndim == 3 and mats.shape[0] == times.shape[0]:
            return mats
    except (TypeError, ValueError):
        pass
    return np.stack([np.asarray(h_of_t(float(t)), dtype=complex) for t in times])


def _spectral_norms(mats: np.ndarray) -> np.ndarray:
    if mats.shape[-1] == 2:
        # |c0| + |c_vec| bounds the 2x2 spectrum exactly.
        c0, cx, cy, cz = pauli_components(mats)
        return np.abs(c0) + np.sqrt(cx * cx + cy * cy + cz * cz)
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


def propagate(h_of_t: Callable, grid: TimeGrid) -> Propagator:
    """Propagate the identity under a time-dependent Hamiltonian callback.

    Raises StepTooCoarse if max ||H(t)|| * dt exceeds 0.1 on the sampled
    midpoints, and warns when above the recommended 0.01.
    """
    mids = eval_hamiltonian_batch(h_of_t, grid.midpoints)
    if not np.all(np.isfinite(mids.view(float))):
        raise InvalidMatrix("Hamiltonian evaluation produced non-finite entries")
    defect = np.max(np.abs(mids - mids.conj().transpose(0, 2, 1)))
    if defect > 1e-8:
        raise InvalidMatrix(
            f"Hamiltonian callback is not Hermitian (max defect {defect:.3e})"
        )
    h_dt = float(np.max(_spectral_norms(mids))) * grid.dt
    if h_dt > STEP_LIMIT:
        raise StepTooCoarse(
            f"max ||H||*dt = {h_dt:.3g} exceeds {STEP_LIMIT}; increase steps"
        )
    if h_dt > STEP_RECOMMENDED:
        warnings.warn(
            f"max ||H||*dt = {h_dt:.3g} above recommended {STEP_RECOMMENDED}",
            stacklevel=2,
        )
    step_unitaries = exp_skew_batch(mids, grid.dt)
    dim = mids.shape[-1]
    unitaries = np.empty((grid.steps + 1, dim, dim), dtype=complex)
    unitaries[0] = np.eye(dim, dtype=complex)
    acc = unitaries[0]
    for i in range(grid.steps):
        acc = step_unitaries[i] @ acc
        unitaries[i + 1] = acc
    return Propagator(grid=grid, unitaries=unitaries)


def default_steps(h_of_t: Callable, t_end: float, samples: int = 65) -> int:
    """Default step count ceil(100 * T * max(1, max_t ||H(t)||)) with the norm
    sampled on a coarse grid."""
    ts = np.linspace(0.0, t_end, samples)
    mats = eval_hamiltonian_batch(h_of_t, ts)
    max_norm = float(np.max(_spectral_norms(mats)))
    return int(math.ceil(100.0 * t_end * max(1.0, max_norm)))


def evolve_state(propagator: Propagator, psi0: np.ndarray) -> np.ndarray:
    """State trajectory psi(t_i) = U(0 -> t_i) psi0, shape (steps+1, dim)."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (propagator.dim,):
        raise DimMismatch(
            f"state has shape {psi0.shape}, propagator dimension {propagator.dim}"
        )
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"initial state must be normalized, got ||psi0|| = {norm}")
    return np.einsum("nij,j->ni", propagator.unitaries, psi0)
