"""Synthesis of the transitionless control that saturates the Fisher bound.

The pipeline is: track the instantaneous eigenbasis of dH/dg at the design
parameter value across the time grid in a parallel-transport gauge, build the
control operator from the tracked transport term (plus optional per-branch
phase-rate functions), and assemble the total drive
H(g, t) - H(g_c, t) + H_cd(t), whose parameter derivative equals the model's
dH/dg by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateDerivativeSpectrum, FitError, GaugeError
from .fisher import generator_integral, optimal_qfi
from .models import ParametricModel
from .operators import (
    _align_phases,
    _fix_gauge_largest_component,
    block_slices,
    dagger,
    pauli_components,
    require_hermitian,
)
from .propagation import TimeGrid, eval_hamiltonian_batch

# Absolute spectral-gap floor below which a grid point counts as degenerate.
DEGENERACY_GAP = 1e-8


@dataclass(frozen=True)
class ControlConfig:
    """Design parameter value g_c and optional per-branch phase-rate functions
    f_k(t) (ascending branch order, defaults to all zero). The eigenvector
    gauge inside synthesis is always parallel transport."""

    g_c: float
    f_k: Optional[Sequence[Callable[[float], float]]] = None


@dataclass(frozen=True)
class TrackedBasis:
    """Eigenvalue branches and parallel-transported eigenvector columns of
    dH/dg(g_c, t) on a time grid, plus the accumulated phases theta_k(t_i).

    ``values[i, k]`` and ``vectors[i, :, k]`` follow branch k continuously in
    time; branches are ordered ascending at the first nondegenerate point.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)


def _phase_rates(f_k: Sequence[Callable], points: np.ndarray) -> np.ndarray:
    """Phase rates f_k(t_i) sampled on the grid points, shape (n_points, n_k)."""
    return np.stack([np.asarray([float(f(t)) for t in points]) for f in f_k], axis=1)


def _accumulated_phases(
    grid: TimeGrid, f_k: Optional[Sequence[Callable]], dim: int
) -> np.ndarray:
    """theta_k(t_i) as the cumulative trapezoid of the phase rates f_k."""
    phases = np.zeros((grid.steps + 1, dim))
    if f_k is None:
        return phases
    if len(f_k) != dim:
        raise ValueError(f"expected {dim} phase-rate functions, got {len(f_k)}")
    rates = _phase_rates(f_k, grid.points)
    if not np.all(np.isfinite(rates)):
        raise ValueError("phase-rate functions must be finite on the grid")
    increments = 0.5 * (rates[1:] + rates[:-1]) * grid.dt
    phases[1:] = np.cumsum(increments, axis=0)
    return phases


def _extrapolate_basis(sources: np.ndarray) -> np.ndarray:
    """Quadratic extrapolation of eigenvector columns to a degenerate grid
    point, re-orthonormalized. ``sources`` holds the three consecutive
    resolved column sets nearest to the target point, nearest first."""
    extrapolated = 3.0 * sources[0] - 3.0 * sources[1] + sources[2]
    q, _ = np.linalg.qr(extrapolated)
    # QR leaves each column's sign/phase arbitrary; re-anchor to the nearest
    # resolved point so transport continuity is preserved.
    return _align_phases(q, sources[0])


def track_eigenbasis(
    model: ParametricModel,
    g_c: float,
    grid: TimeGrid,
    f_k: Optional[Sequence[Callable]] = None,
) -> TrackedBasis:
    """Numerically track the eigensystem of dH/dg(g_c, t) along the grid.

    Branches are matched point-to-point by maximal overlap (continuity, not
    value order) and gauge-fixed so consecutive overlaps are real positive.
    Isolated degenerate points (e.g. a vanishing derivative at t = 0) take the
    model's closed-form limiting basis when available. Without one, leading
    degenerate points take a quadratic extrapolation from the resolved points
    after them, and a degenerate point inside the grid copies the basis of the
    point before it. Degeneracy on more than 1% of the grid aborts.

    The grid is decomposed with stacked ``eigh`` and transported block by
    block: ``values`` and ``vectors`` hold the raw decomposition until
    ``_transport_block`` overwrites a block with its matched, phase-aligned
    columns.
    """
    d_mats = eval_hamiltonian_batch(lambda t: model.d_param_h(g_c, t), grid.points)
    n_pts, dim = d_mats.shape[0], d_mats.shape[-1]
    values = np.empty((n_pts, dim))
    vectors = np.empty((n_pts, dim, dim), dtype=complex)
    for blk in block_slices(0, n_pts, dim):
        values[blk], vectors[blk] = np.linalg.eigh(require_hermitian(d_mats[blk]))
    gaps = np.min(np.diff(values, axis=1), axis=1) if dim > 1 else np.full(n_pts, np.inf)
    degenerate = gaps < DEGENERACY_GAP
    if int(np.count_nonzero(degenerate)) > max(1, n_pts // 100):
        raise DegenerateDerivativeSpectrum(
            f"derivative spectrum degenerate on {int(np.count_nonzero(degenerate))} "
            f"of {n_pts} grid points"
        )
    first = int(np.argmax(~degenerate))
    if degenerate[first]:
        raise DegenerateDerivativeSpectrum("derivative spectrum degenerate everywhere")

    vectors[first] = _fix_gauge_largest_component(vectors[first])
    # Runs of resolved points, each ended by an isolated degenerate point
    # that is filled from the point before it; the next run restarts there.
    start = first + 1
    for stop in [*(np.flatnonzero(degenerate[start:]) + start), n_pts]:
        for blk in block_slices(start, stop, dim):
            _transport_block(values, vectors, blk)
        if stop < n_pts:
            vectors[stop] = _fill_degenerate(model, g_c, grid.points[stop], vectors[stop - 1])
            values[stop] = _branch_values(d_mats[stop], vectors[stop])
        start = stop + 1
    # Leading degenerate points (typically only t = 0) get the limiting basis;
    # everything before `first` is degenerate by construction.
    for i in range(first - 1, -1, -1):
        vectors[i] = _fill_degenerate(
            model, g_c, grid.points[i], vectors[i + 1], forward=vectors[i + 1: i + 4]
        )
        values[i] = _branch_values(d_mats[i], vectors[i])

    phases = _accumulated_phases(grid, f_k, dim)
    return TrackedBasis(grid=grid, values=values, vectors=vectors, phases=phases)


def _transport_block(values: np.ndarray, vectors: np.ndarray, blk: slice) -> None:
    """Discrete parallel transport of the raw eigensystems in ``blk``, in
    place, from the finished columns at ``blk.start - 1``.

    All neighbour overlaps O_i = V_{i-1}^dag V_i come from one batched
    matmul; the first is taken against the finished reference, so its rows
    are already in branch order. Branch k at point i is raw column
    perm_i[k] = sigma_i[perm_{i-1}][k], and its phase is the cumulative
    product of the unit overlap phases along the block, so every finished
    overlap <v_{i-1,k}|v_{i,k}> is real positive.
    """
    m, identity = blk.stop - blk.start, np.arange(values.shape[1])
    overlaps = dagger(vectors[blk.start - 1: blk.stop - 1]) @ vectors[blk]
    sigma = _match_branches(np.abs(overlaps))
    perm = np.empty_like(sigma)
    current, last = identity, 0
    for j in np.flatnonzero(np.any(sigma != identity, axis=1)):
        perm[last:j] = current
        current, last = sigma[j][current], j
    perm[last:] = current
    prev = np.concatenate([identity[None], perm[:-1]])
    w = overlaps[np.arange(m)[:, None], prev, perm]
    del overlaps
    modulus = np.abs(w)
    # A column orthogonal to its predecessor is not rotated at that step.
    unit = np.divide(w, modulus, out=np.ones_like(w), where=modulus > 0)
    phase = np.cumprod(unit.conj(), axis=0)
    phase /= np.abs(phase)
    values[blk] = np.take_along_axis(values[blk], perm, axis=1)
    vectors[blk] = np.take_along_axis(vectors[blk], perm[:, None, :], axis=2) * phase[:, None, :]


def _match_branches(magnitudes: np.ndarray) -> np.ndarray:
    """Branch assignment per point from overlap magnitudes |O_i|, shape
    (m, d, d): row k goes to column sigma[i, k].

    The row argmax is used wherever it is a permutation. Elsewhere the
    assignment is greedy, largest overlaps first; the two agree whenever the
    argmax is a permutation. Exact ties cannot occur for the nondegenerate
    spectra this is used on.
    """
    dim = magnitudes.shape[-1]
    sigma = np.argmax(magnitudes, axis=2)
    for i in np.flatnonzero(np.any(np.sort(sigma, axis=1) != np.arange(dim), axis=1)):
        order = np.full(dim, -1)
        taken = np.zeros(dim, dtype=bool)
        for idx in np.argsort(-magnitudes[i], axis=None):
            k, j = divmod(int(idx), dim)
            if order[k] == -1 and not taken[j]:
                order[k] = j
                taken[j] = True
        sigma[i] = order
    return sigma


def _branch_values(d_mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.einsum("ik,ij,jk->k", cols.conj(), d_mat, cols).real


def _fill_degenerate(
    model: ParametricModel,
    g_c: float,
    t: float,
    reference: np.ndarray,
    forward: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Basis at a degenerate point: the model's closed-form limit if
    available (branch-aligned to the neighboring resolved point), otherwise a
    quadratic extrapolation through ``forward`` when it holds at least three
    points, otherwise a copy of ``reference``."""
    if model.analytic_eigs_of_dparamh is not None:
        limit = model.analytic_eigs_of_dparamh(g_c, float(t))
        return _align_phases(limit.vectors.astype(complex), reference)
    if forward is not None and forward.shape[0] >= 3:
        return _extrapolate_basis(forward)
    return reference.copy()


def tracked_basis_from_analytic(
    model: ParametricModel,
    g_c: float,
    grid: TimeGrid,
    f_k: Optional[Sequence[Callable]] = None,
) -> TrackedBasis:
    """TrackedBasis straight from the model's closed-form smooth eigensystem."""
    if model.analytic_eigs_of_dparamh is None:
        raise ValueError("model does not supply a closed-form eigensystem")
    values, vectors = model.analytic_eigs_of_dparamh(g_c, grid.points)
    phases = _accumulated_phases(grid, f_k, vectors.shape[-1])
    return TrackedBasis(
        grid=grid,
        values=np.asarray(values, dtype=float),
        vectors=np.asarray(vectors, dtype=complex),
        phases=phases,
    )


class GridHamiltonian:
    """Hermitian-matrix-valued function of time stored on a grid, evaluated
    anywhere in [0, T] by linear interpolation (consistent with the
    second-order integrator)."""

    def __init__(self, grid: TimeGrid, matrices: np.ndarray, hermiticity_residual: float = 0.0):
        self.grid = grid
        self.matrices = np.asarray(matrices, dtype=complex)
        self.hermiticity_residual = hermiticity_residual

    def __call__(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        pos = np.clip(ts / self.grid.dt, 0.0, float(self.grid.steps))
        idx = np.minimum(pos.astype(int), self.grid.steps - 1)
        frac = (pos - idx)[:, None, None]
        # In place: fancy indexing already copies, and the stack is large.
        mats = self.matrices[idx]
        mats *= 1.0 - frac
        upper = self.matrices[idx + 1]
        upper *= frac
        mats += upper
        return mats[0] if np.isscalar(t) or np.ndim(t) == 0 else mats


def synthesize_cd(
    basis: TrackedBasis, f_k: Optional[Sequence[Callable]] = None
) -> GridHamiltonian:
    """Control operator sum_k f_k P_k + i sum_k |d_t psi_k><psi_k| on the grid.

    Time derivatives of the tracked eigenvectors come from central differences
    (second-order one-sided at the endpoints). In the parallel-transport gauge
    the transport term is Hermitian up to O(dt^2) discretization; a residual
    above 1e-6 indicates a gauge violation and aborts.
    """
    v = basis.vectors
    dt = basis.grid.dt
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    dv[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    dv[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    mats = np.einsum("nik,njk->nij", dv, v.conj())
    del dv
    mats *= 1j
    if f_k is not None:
        rates = _phase_rates(f_k, basis.grid.points)
        mats += np.einsum("nik,nk,njk->nij", v, rates, v.conj())
    # Residual and Hermitian part block by block, in place: full-stack
    # temporaries here would set the peak memory of control synthesis.
    residual = 0.0
    for blk in block_slices(0, mats.shape[0], mats.shape[-1]):
        adjoint = dagger(mats[blk])
        residual = max(residual, float(np.max(np.abs(mats[blk] - adjoint))))
        mats[blk] += adjoint
        mats[blk] *= 0.5
    if residual > 1e-6:
        raise GaugeError(
            f"transport term Hermiticity residual {residual:.3e} exceeds 1e-6; "
            "tracked basis is not parallel-transported"
        )
    return GridHamiltonian(basis.grid, mats, hermiticity_residual=residual)


@dataclass(frozen=True)
class ControlledDrive:
    """Controlled drive family (gv, t) -> H(gv, t) - H(g_c, t) + H_cd(t), the
    value g it is evaluated at, and the tracked basis the control came from."""

    g: float
    basis: TrackedBasis
    family: Callable = field(repr=False)

    def hamiltonian(self, t):
        """Total controlled Hamiltonian at the drive's own g."""
        return self.family(self.g, t)


def build_controlled_drive(
    model: ParametricModel,
    g: float,
    config: ControlConfig,
    grid: TimeGrid,
) -> ControlledDrive:
    """Assemble H(g, t) - H(g_c, t) + H_cd(t) with its supporting basis.

    The total drive reduces to the control operator at g = g_c, and the
    parameter derivative of its family equals the model's dH/dg by
    construction. The closed-form control operator and eigensystem are used
    when the model provides them (exact, and consistent with the numeric
    route); otherwise the basis is tracked numerically and the control
    synthesized from it.
    """
    g_c = config.g_c
    if model.analytic_eigs_of_dparamh is not None:
        basis = tracked_basis_from_analytic(model, g_c, grid, f_k=config.f_k)
    else:
        basis = track_eigenbasis(model, g_c, grid, f_k=config.f_k)
    if model.analytic_cd is not None and config.f_k is None:
        cd = lambda t: model.analytic_cd(g_c, t)  # noqa: E731
    else:
        cd = synthesize_cd(basis, f_k=config.f_k)

    def family(gv, t):
        return (
            np.asarray(model.hamiltonian(gv, t), dtype=complex)
            - np.asarray(model.hamiltonian(g_c, t), dtype=complex)
            + np.asarray(cd(t), dtype=complex)
        )

    return ControlledDrive(g=g, basis=basis, family=family)


@dataclass(frozen=True)
class ExpansionFit:
    """Polynomial fits of the generator's Pauli components in the control
    mismatch delta = g_c - g, plus per-mismatch eigenvalue spreads.

    ``coefficients[a][m]`` is the delta^m coefficient of Pauli component a
    (order I, x, y, z); ``stderr`` holds matching standard errors.
    """

    deltas: np.ndarray
    components: np.ndarray
    tau_max: np.ndarray
    tau_min: np.ndarray
    optimal_qfi: np.ndarray
    coefficients: np.ndarray
    stderr: np.ndarray
    degree: int


def _polyfit_with_stderr(x: np.ndarray, y: np.ndarray, degree: int):
    vand = np.vander(x, degree + 1, increasing=True)
    cond = np.linalg.cond(vand)
    if not np.isfinite(cond) or cond > 1e10:
        raise FitError(f"expansion design matrix ill-conditioned (cond {cond:.3e})")
    coeffs, residuals, rank, _ = np.linalg.lstsq(vand, y, rcond=None)
    dof = max(1, len(x) - (degree + 1))
    rss = float(residuals[0]) if residuals.size else float(
        np.sum((y - vand @ coeffs) ** 2)
    )
    cov = np.linalg.inv(vand.T @ vand) * (rss / dof)
    return coeffs, np.sqrt(np.maximum(np.diag(cov), 0.0))


def expand_generator(
    model: ParametricModel,
    g: float,
    grid: TimeGrid,
    deltas: Sequence[float],
    f_k: Optional[Sequence[Callable]] = None,
    degree: int = 3,
) -> ExpansionFit:
    """Generator of the controlled drive for each control mismatch
    delta = g_c - g, decomposed in the Pauli basis and fitted to polynomials
    in delta.

    Only two-level models are supported, and every |delta| * T must stay at or
    below 0.1 so the truncated expansion is meaningful.
    """
    if model.dim != 2:
        raise ValueError("generator expansion requires a two-level model")
    deltas = np.asarray(sorted(float(d) for d in deltas))
    if np.max(np.abs(deltas)) * grid.t_end > 0.1 + 1e-12:
        raise ValueError("control mismatch out of range: require |delta|*T <= 0.1")
    if deltas.size < degree + 1:
        raise FitError(
            f"need at least {degree + 1} mismatch samples for degree {degree}"
        )
    components = np.empty((deltas.size, 4))
    tau_max = np.empty(deltas.size)
    tau_min = np.empty(deltas.size)
    qfi = np.empty(deltas.size)
    for i, delta in enumerate(deltas):
        drive = build_controlled_drive(
            model, g, ControlConfig(g_c=g + delta, f_k=f_k), grid
        )
        h_gen = generator_integral(model, g, drive.hamiltonian, grid)
        components[i] = pauli_components(h_gen)
        spread_sq, _ = optimal_qfi(h_gen)
        eig = np.linalg.eigvalsh(h_gen)
        tau_min[i], tau_max[i] = float(eig[0]), float(eig[-1])
        qfi[i] = spread_sq
    coeffs = np.empty((4, degree + 1))
    errs = np.empty((4, degree + 1))
    for a in range(4):
        coeffs[a], errs[a] = _polyfit_with_stderr(deltas, components[:, a], degree)
    return ExpansionFit(
        deltas=deltas,
        components=components,
        tau_max=tau_max,
        tau_min=tau_min,
        optimal_qfi=qfi,
        coefficients=coeffs,
        stderr=errs,
        degree=degree,
    )
