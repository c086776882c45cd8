"""Time-ordered unitary evolution on a fixed grid.

The integrator is a fixed-step midpoint exponential,
U(0 -> t_{i+1}) = exp(-i dt H(t_i + dt/2)) U(0 -> t_i),
which is unitary to rounding per step and second-order accurate. One step
source, ``_step_unitaries``, evaluates, checks and exponentiates the
midpoint Hamiltonians of drives that share one step count, a block at a
time. ``_run`` multiplies them in order, over a ring of per-step views
made once per loop, and hands each group of drives' blocks to the group's
fold, ``fold(total, steps, u)``, the one way to consume the loop:
``propagate`` keeps every point, ``final_unitaries`` only U(T),
``fisher``'s trapezoid integral of U^dag dH U no stack at all, and
``frames.appendix_a_distinction`` its maxima, endpoint states and U(T).
The adaptive round of ``estimation`` takes U(T) from
``_tree_final_unitary``, a pairwise product of the same steps.
``TimeGrid`` stores no arrays, so all of these but ``propagate`` hold
O(block) memory at any grid length. A step-size warning names the first
caller outside the qfisher package, however deep the loop runs.
"""

from __future__ import annotations

import itertools
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimMismatch, InvalidMatrix, StepTooCoarse
from .operators import SpectralBlock, block_slices, require_state

# max ||H|| * dt above which propagation refuses to run / starts warning.
STEP_LIMIT = 0.1
STEP_RECOMMENDED = 0.01
# Largest entry of H - H^dagger accepted from a Hamiltonian callback.
HERMITIAN_ATOL = 1e-8
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
# ``_run``'s ring of cached step views holds this fraction of a block's steps.
_RING_FRACTION = 16


def _count(name: str, value) -> int:
    """``value`` as a Python int, which JSON can hold; ValueError unless it
    is an integer >= 1. bool is an int subclass, but True is no count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * t_end / steps, i = 0..steps.

    The grid stores no arrays: ``points`` and ``midpoints`` are formed on
    each read, and the streamed kernels take one block of times at a time
    from ``_points`` and ``_midpoints``.
    """

    t_end: float
    steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        _count("steps", self.steps)

    @property
    def points(self) -> np.ndarray:
        return self._points(0, self.steps + 1)

    @property
    def dt(self) -> float:
        return self.t_end / self.steps

    @property
    def midpoints(self) -> np.ndarray:
        return self._midpoints(0, self.steps)

    def _points(self, start: int, stop: int) -> np.ndarray:
        """``np.linspace(0.0, t_end, steps + 1)[start:stop]`` bit for bit,
        built as linspace builds it: i * (t_end / steps) plus the start 0.0,
        or (i / steps) * t_end where the step underflows to zero, with the
        last point set to t_end exactly."""
        points = np.arange(start, stop, dtype=float)
        if self.dt == 0.0:
            points /= self.steps
            points *= self.t_end
        else:
            points *= self.dt
        points += 0.0
        if stop == self.steps + 1:
            points[-1:] = self.t_end
        return points

    def _midpoints(self, start: int, stop: int) -> np.ndarray:
        """``midpoints[start:stop]``: each step's first point plus dt / 2."""
        return self._points(start, stop) + 0.5 * self.dt


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
    The stack is returned C-contiguous, which the kernels' float views need.
    """
    times = np.asarray(times, dtype=float)
    try:
        mats = np.ascontiguousarray(h_of_t(times), dtype=complex)
        if mats.ndim == 3 and mats.shape[0] == times.shape[0]:
            return mats
    except (TypeError, ValueError):
        pass
    return np.stack([np.asarray(h_of_t(float(t)), dtype=complex) for t in times])


@dataclass
class _DriveChecks:
    """Validation of one drive's midpoint Hamiltonians, accumulated block by
    block; a block of the wrong shape or with non-finite entries is only
    flagged, so no arithmetic runs on it."""

    dim: int
    nonfinite: bool = False
    defect: float = 0.0
    h_dt: float = 0.0
    mismatch: Optional[tuple] = None

    def record(self, mids: np.ndarray, dt: float) -> Optional[SpectralBlock]:
        """Check one block. Returns the ``SpectralBlock`` of a finite block
        of the right shape, which gives the norm bounds here and the step
        exponentials after, so each midpoint is split once. ``h_dt`` is exact
        wherever it can warn or raise: at d != 2 a block whose Frobenius
        bound crosses ``STEP_RECOMMENDED`` is measured again with exact
        spectral norms."""
        if mids.shape[1:] != (self.dim, self.dim):
            self.mismatch = mids.shape[1:]
            return None
        if not np.all(np.isfinite(mids.view(float))):
            self.nonfinite = True
            return None
        block_defect = float(np.max(np.abs(mids - mids.conj().transpose(0, 2, 1))))
        self.defect = max(self.defect, block_defect)
        spectrum = SpectralBlock(mids)
        h_dt = float(np.max(spectrum.norms)) * dt
        if self.dim != 2 and h_dt > STEP_RECOMMENDED:
            h_dt = float(np.max(np.abs(np.linalg.eigvalsh(mids)))) * dt
        self.h_dt = max(self.h_dt, h_dt)
        return spectrum

    @property
    def failed(self) -> bool:
        return (
            self.nonfinite
            or self.defect > HERMITIAN_ATOL
            or self.h_dt > STEP_LIMIT
            or self.mismatch is not None
        )


def _warn_at_caller(message: str) -> None:
    """Warn at the first stack frame whose file lies outside the qfisher
    package: the line that called into qfisher, through any public function.
    Python 3.12's ``skip_file_prefixes`` does the same; 3.10 lacks it."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _step_unitaries(
    drives: Sequence[Callable], grids: Sequence[TimeGrid]
) -> Iterator[tuple[slice, np.ndarray]]:
    """The validated step unitaries of drives that share one step count, each
    on its own grid (its own ``t_end`` and dt): the one step source of
    ``_run`` and ``_tree_final_unitary``.

    One midpoint gives the dimension, which sets the ``operators.block_slices``.
    Per block every drive's midpoints are evaluated on its own grid, checked
    by ``_DriveChecks.record`` and exponentiated with the drive's dt from the
    one ``operators.SpectralBlock`` the check took, and (steps, s) is
    yielded: s[i, k] is drive k's step from point steps.start + i, unitary
    to rounding, shape (len, b, d, d): for b > 1 in one buffer that the next
    block overwrites, for one drive a view of its exponentials.

    Each drive is checked on its own: non-finite entries and a Hermiticity
    defect raise InvalidMatrix, max ||H(t)|| * dt above 0.1 raises
    StepTooCoarse, and above the recommended 0.01 warns, naming the first
    caller outside the qfisher package; a drive whose matrices differ in
    shape from drive 0's first midpoint raises DimMismatch. Every trigger
    and message quotes the exact max ||H(t)|| * dt. The checks run over the
    whole grid and are raised after the last block, drive by drive in that
    order, with the maxima over the whole grid; after a failed block nothing
    more is exponentiated or yielded.
    """
    n_steps = grids[0].steps
    if any(grid.steps != n_steps for grid in grids):
        raise ValueError(f"one step loop needs one step count, got {[g.steps for g in grids]}")
    dim = eval_hamiltonian_batch(drives[0], grids[0]._midpoints(0, 1)).shape[-1]
    blocks = block_slices(0, n_steps, dim)
    checks = [_DriveChecks(dim) for _ in drives]
    shape = (blocks[0].stop, len(drives), dim, dim)
    buffer = None if len(drives) == 1 else np.empty(shape, dtype=complex)
    failed = False
    for blk in blocks:
        n = blk.stop - blk.start
        times = {grid: grid._midpoints(blk.start, blk.stop) for grid in dict.fromkeys(grids)}
        for k, (h_of_t, grid, check) in enumerate(zip(drives, grids, checks)):
            mids = eval_hamiltonian_batch(h_of_t, times[grid])
            spectrum = check.record(mids, grid.dt)
            failed = failed or check.failed
            if not failed and buffer is None:
                steps = spectrum.exp_skew(grid.dt)[:, None]
            elif not failed:
                buffer[:n, k] = spectrum.exp_skew(grid.dt)
                steps = buffer[:n]
            del mids, spectrum
        if not failed:
            yield blk, steps
    for k, check in enumerate(checks):
        if check.nonfinite:
            raise InvalidMatrix("Hamiltonian evaluation produced non-finite entries")
        if check.defect > HERMITIAN_ATOL:
            raise InvalidMatrix(
                f"Hamiltonian callback is not Hermitian (max defect {check.defect:.3e})"
            )
        if check.h_dt > STEP_LIMIT:
            raise StepTooCoarse(
                f"max ||H||*dt = {check.h_dt:.3g} exceeds {STEP_LIMIT}; increase steps"
            )
        if check.h_dt > STEP_RECOMMENDED:
            _warn_at_caller(
                f"max ||H||*dt = {check.h_dt:.3g} above recommended {STEP_RECOMMENDED}"
            )
        if check.mismatch is not None:
            raise DimMismatch(
                f"drive {k} has {check.mismatch} matrices, "
                f"drive 0's first midpoint has {(dim, dim)}"
            )


def _tree_final_unitary(h_of_t: Callable, grid: TimeGrid) -> np.ndarray:
    """U(0 -> T) of one drive from the steps, checks, messages and warnings
    of ``final_unitaries``, with the product reassociated: each block's
    steps are multiplied as a pairwise tree, adjacent pairs later @ earlier
    a level at a time with an odd last step carried up a level, and the
    block's product left-multiplies the carried U. A block of n steps takes
    ceil(log2 n) levels instead of n products, and holds at most one more
    block of products. np.matmul runs a stack of 2x2 pairs as one zgemm call
    per pair, so at d = 2 a level of two or more pairs is one broadcast
    entrywise product, three ufunc calls over the whole level. A lone pair
    stays on np.matmul, which keeps up to three steps bit for bit the
    sequential product. Every d != 2 level stays on it too: there the
    broadcast takes 2d - 1 calls, a tie at d = 4 and five times slower at
    d = 8. The result differs from
    ``final_unitaries`` by rounding, so its one caller is the adaptive
    round, whose U(T) only sets Born probabilities that uniform draws are
    compared with.
    """
    final = None
    for _, steps in _step_unitaries([h_of_t], [grid]):
        steps = steps[:, 0]
        while len(steps) > 1:
            pairs = len(steps) // 2 * 2
            later, earlier = steps[1:pairs:2], steps[0:pairs:2]
            if steps.shape[-1] == 2 and pairs > 2:
                products = later[:, :, 0, None] * earlier[:, None, 0, :]
                products += later[:, :, 1, None] * earlier[:, None, 1, :]
            else:
                products = np.matmul(later, earlier)
            steps = np.concatenate([products, steps[pairs:]]) if pairs < len(steps) else products
        final = steps[0] if final is None else steps[0] @ final
    return final


def _every_point(grid: TimeGrid) -> Callable:
    """The fold whose last total is U of each drive of its group at every
    point of ``grid``, shape (steps + 1, k, d, d)."""

    def fold(stack: Optional[np.ndarray], blk: slice, u: np.ndarray) -> np.ndarray:
        if stack is None:
            stack = np.empty((grid.steps + 1,) + u.shape[1:], dtype=complex)
        stack[blk.start : blk.stop + 1] = u
        return stack

    return fold


def _final_point(total: Optional[np.ndarray], blk: slice, u: np.ndarray) -> np.ndarray:
    """The fold whose last total is U(T) of each drive of its group, shape
    (k, d, d)."""
    return u[-1].copy()


def _run(groups: Sequence[tuple[Sequence[Callable], TimeGrid, Callable]]) -> list:
    """Run each group's drives on its grid and return, per group, the last
    total of its fold ``fold(total, steps, u)``. A fold is called once per
    block, in order, with its running total (None at the first block), the
    block's slice of steps and the (len + 1, k, d, d) unitaries of its
    group's k drives at the points steps.start .. steps.stop: a view into
    one buffer, sized by the first and longest block, that the next block
    overwrites. A group with no drives raises ValueError.

    Consecutive groups with equal step counts share one step loop over the
    steps of ``_step_unitaries``, and each loop raises its drives' checks
    before the next starts, so the checks raise and warn in the order of the
    drives, as they would with each drive run alone. With b > 1 drives in a
    loop each step is one np.matmul over the b drives, its output passed
    positionally (the same call as ``out=``, with less argument parsing per
    step), which multiplies each drive's pair of matrices exactly as a
    single-drive product would; a single drive advances over 2-D views with
    ndarray.dot, the same zgemm call with less dispatch per step.

    Making a view per step costs more than the zgemm call beside it, so each
    loop makes its views once: a ring of ``1 / _RING_FRACTION`` of the first
    block's steps, with a step buffer, a product buffer whose row 0 is the
    carried U, and the lists of their per-step views. A block goes through
    the ring a chunk at a time: its steps and the carried U are copied in,
    the products are formed over the cached views and copied out into the
    block's unitaries. A view takes about twice the bytes of the 2x2 matrix
    it shows, so the ring is sized by the block, not by a step count, and
    its bytes stay a fixed share of a block's at every d. No bit moves:
    each step unitary's bits do not depend on the block around it, a copy
    moves bits unchanged, and a product's bits do not depend on where its
    operands sit.
    """
    if any(len(drives) == 0 for drives, _, _ in groups):
        raise ValueError("every group needs at least one drive")
    totals: list = [None] * len(groups)
    for _, run in itertools.groupby(range(len(groups)), key=lambda j: groups[j][1].steps):
        members = list(run)
        drives = [h for j in members for h in groups[j][0]]
        grids = [groups[j][1] for j in members for _ in groups[j][0]]
        bounds = [0, *itertools.accumulate(len(groups[j][0]) for j in members)]
        single = len(drives) == 1
        multiply = np.ndarray.dot if single else np.matmul
        buffer = None
        for blk, steps in _step_unitaries(drives, grids):
            n = len(steps)
            if buffer is None:
                buffer = np.empty((n + 1,) + steps.shape[1:], dtype=complex)
                buffer[0] = np.eye(steps.shape[-1], dtype=complex)
                ring = max(1, n // _RING_FRACTION)
                ring_steps = np.empty((ring,) + steps.shape[1:], dtype=complex)
                ring_products = np.empty((ring + 1,) + steps.shape[1:], dtype=complex)
                drive_axis = 0 if single else slice(None)
                factors = list(ring_steps[:, drive_axis])
                carried, *targets = ring_products[:, drive_axis]
            u = buffer[: n + 1]
            for at in range(0, n, ring):
                m = min(ring, n - at)
                ring_steps[:m] = steps[at : at + m]
                ring_products[0] = u[at]
                acc = carried
                for step, target in zip(factors[:m], targets):
                    multiply(step, acc, target)
                    acc = target
                u[at + 1 : at + m + 1] = ring_products[1 : m + 1]
            for j, lo, hi in zip(members, bounds, bounds[1:]):
                totals[j] = groups[j][2](totals[j], blk, u[:, lo:hi])
            buffer[0] = u[n]
    return totals


def propagate(h_of_t: Callable, grid: TimeGrid) -> Propagator:
    """Propagate the identity under a time-dependent Hamiltonian callback.

    Raises StepTooCoarse if max ||H(t)|| * dt exceeds 0.1 on the sampled
    midpoints, and warns when above the recommended 0.01.
    """
    (unitaries,) = _run([([h_of_t], grid, _every_point(grid))])
    return Propagator(grid=grid, unitaries=unitaries[:, 0])


def final_unitaries(drives: Sequence[Callable], grid: TimeGrid) -> np.ndarray:
    """U(0 -> T) of several drives on one grid, shape (b, d, d).

    Bit-identical to ``propagate(drive, grid).final`` for each drive, with the
    same validation, but one step loop for all drives and only one block of
    unitaries held at a time. No drives raise ValueError.
    """
    (finals,) = _run([(drives, grid, _final_point)])
    return finals


def evolve_state(propagator: Propagator, psi0: np.ndarray) -> np.ndarray:
    """State trajectory psi(t_i) = U(0 -> t_i) psi0, shape (steps+1, dim)."""
    psi0 = require_state(psi0, propagator.dim)
    return np.einsum("nij,j->ni", propagator.unitaries, psi0)
