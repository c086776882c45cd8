"""Time-ordered unitary evolution on a fixed grid.

The integrator is a fixed-step midpoint exponential,
U(0 -> t_{i+1}) = exp(-i dt H(t_i + dt/2)) U(0 -> t_i),
which is exactly unitary per step and second-order accurate. One step loop
advances a batch of drives on one grid together. ``propagate`` stores every
intermediate unitary, so generator integrals can be evaluated in one pass;
``final_unitaries`` and ``propagate_batch`` serve callers that need only
U(T), or several stored drives, without a loop per drive.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

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


def _step_stack(drives: Sequence[Callable], grid: TimeGrid) -> np.ndarray:
    """Validated midpoint step unitaries of every drive, shape (steps, b, d, d).

    Each drive is checked on its own: non-finite entries and a Hermiticity
    defect raise InvalidMatrix, max ||H(t)|| * dt above 0.1 raises
    StepTooCoarse, and above the recommended 0.01 warns. The warning names
    the caller of the public function that called this one. A single drive's
    steps are returned as a view, never copied.
    """
    stack = None
    for k, h_of_t in enumerate(drives):
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
                stacklevel=3,
            )
        steps = exp_skew_batch(mids, grid.dt)
        del mids
        if len(drives) == 1:
            return steps[:, None]
        if stack is None:
            stack = np.empty((grid.steps, len(drives)) + steps.shape[1:], dtype=complex)
        elif steps.shape[1:] != stack.shape[2:]:
            raise DimMismatch(
                f"drive {k} has {steps.shape[1:]} matrices, drive 0 has {stack.shape[2:]}"
            )
        stack[:, k] = steps
    return stack


def _cumulative_product(steps: np.ndarray, keep_all: bool) -> np.ndarray:
    """Running products S[i-1] ... S[0] of a (steps, b, d, d) step stack.

    Every step is one np.matmul over the b drives, which multiplies each
    drive's pair of matrices exactly as a single-drive product would, so
    batching never changes a bit. Returns all points, shape (steps+1, b, d, d),
    or only the final products, shape (b, d, d).
    """
    n, b, dim, _ = steps.shape
    buffers = np.empty((n + 1 if keep_all else 2, b, dim, dim), dtype=complex)
    buffers[0] = np.eye(dim, dtype=complex)
    acc = buffers[0]
    targets = buffers[1:] if keep_all else itertools.cycle((buffers[1], buffers[0]))
    for step, target in zip(steps, targets):
        np.matmul(step, acc, out=target)
        acc = target
    return buffers if keep_all else acc


def propagate(h_of_t: Callable, grid: TimeGrid) -> Propagator:
    """Propagate the identity under a time-dependent Hamiltonian callback.

    Raises StepTooCoarse if max ||H(t)|| * dt exceeds 0.1 on the sampled
    midpoints, and warns when above the recommended 0.01.
    """
    unitaries = _cumulative_product(_step_stack([h_of_t], grid), keep_all=True)
    return Propagator(grid=grid, unitaries=unitaries[:, 0])


def propagate_batch(drives: Sequence[Callable], grid: TimeGrid) -> list[Propagator]:
    """``propagate`` for several drives on one grid, in one step loop.

    Each propagator is bit-identical to ``propagate`` of its drive alone;
    its unitaries are a view into one shared (steps+1, b, d, d) stack.
    """
    stacks = _cumulative_product(_step_stack(drives, grid), keep_all=True)
    return [Propagator(grid=grid, unitaries=stacks[:, k]) for k in range(len(drives))]


def final_unitaries(drives: Sequence[Callable], grid: TimeGrid) -> np.ndarray:
    """U(0 -> T) of several drives on one grid, shape (b, d, d).

    Bit-identical to ``propagate(drive, grid).final`` for each drive, with the
    same validation, but one step loop for all drives and no stored stack.
    """
    return _cumulative_product(_step_stack(drives, grid), keep_all=False)


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
