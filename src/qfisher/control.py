"""Synthesis of the transitionless control that saturates the Fisher bound.

The pipeline is: track the eigenbasis of dH/dg at the design parameter value
across the time grid in a parallel-transport gauge, with the optional
per-branch phase rates f_k and their integrals theta_k; build the control
from its transport term plus sum_k f_k P_k; and assemble the total drive
H(g, t) - H(g_c, t) + H_cd(t), whose dH/dg is the model's by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateDerivativeSpectrum, FitError, GaugeError
from .fisher import _generator_integrals, optimal_qfi
from .models import ParametricModel
from .operators import (
    _align_phases,
    _fix_gauge_largest_component,
    _time_stack,
    _times_dagger,
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
    f_k(t) (ascending branch order, defaults to all zero), given to the
    tracked basis only: it checks them and synthesis reads them from it. The
    eigenvector gauge inside synthesis is always parallel transport."""

    g_c: float
    f_k: Optional[Sequence[Callable[[float], float]]] = None


@dataclass(frozen=True)
class TrackedBasis:
    """Eigenvalue branches and parallel-transported eigenvector columns of
    dH/dg(g_c, t) on a time grid, plus the phase rates f_k(t_i), ``rates``
    (n_points, dim) or None (all zero), and their integrals theta_k(t_i).

    ``values[i, k]`` and ``vectors[i, :, k]`` follow branch k continuously in
    time; branches are ordered ascending at the first nondegenerate point.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)
    rates: Optional[np.ndarray] = field(default=None, repr=False)


def _accumulated_phases(
    grid: TimeGrid, f_k: Optional[Sequence[Callable]], dim: int
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """theta_k(t_i) as the cumulative trapezoid of the phase rates f_k, and
    the rates f_k(t_i) (None without f_k), one call per grid point."""
    phases = np.zeros((grid.steps + 1, dim))
    if f_k is None:
        return phases, None
    if len(f_k) != dim:
        raise ValueError(f"expected {dim} phase-rate functions, got {len(f_k)}")
    rates = np.stack([np.asarray([float(f(t)) for t in grid.points]) for f in f_k], axis=1)
    if not np.all(np.isfinite(rates)):
        raise ValueError("phase-rate functions must be finite on the grid")
    increments = 0.5 * (rates[1:] + rates[:-1]) * grid.dt
    phases[1:] = np.cumsum(increments, axis=0)
    return phases, rates


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

    The grid is evaluated and decomposed with stacked ``eigh`` one
    ``operators.block_slices`` block at a time, so dH/dg is kept only at the
    degenerate points (at most 1% of the grid) and the work beside the
    result stays block-sized. ``values`` and ``vectors`` hold the raw
    decomposition until ``_transport_block`` overwrites a block with its
    matched, phase-aligned columns. Each block continues the run from the
    carry of the block before it, so the result has the same bits at any
    block length.
    """
    dparam = lambda t: model.d_param_h(g_c, t)  # noqa: E731
    n_pts = grid.steps + 1
    # One point gives the dimension, which sets the block length.
    dim = eval_hamiltonian_batch(dparam, grid._points(0, 1)).shape[-1]
    values = np.empty((n_pts, dim))
    vectors = np.empty((n_pts, dim, dim), dtype=complex)
    degenerate = np.zeros(n_pts, dtype=bool)
    limit = max(1, n_pts // 100)
    degenerate_mats: dict[int, np.ndarray] = {}
    for blk in block_slices(0, n_pts, dim):
        mats = require_hermitian(
            eval_hamiltonian_batch(dparam, grid._points(blk.start, blk.stop))
        )
        values[blk], vectors[blk] = np.linalg.eigh(mats)
        if dim > 1:
            degenerate[blk] = np.min(np.diff(values[blk], axis=1), axis=1) < DEGENERACY_GAP
        for i in np.flatnonzero(degenerate[blk]):
            if len(degenerate_mats) <= limit:
                degenerate_mats[blk.start + int(i)] = mats[i].copy()
        del mats
    if int(np.count_nonzero(degenerate)) > limit:
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
        carry = (vectors[start - 1], np.arange(dim), np.ones((2, dim), dtype=complex))
        for blk in block_slices(start, stop, dim):
            carry = _transport_block(values, vectors, blk, carry)
        if stop < n_pts:
            t_stop = grid._points(stop, stop + 1)[0]
            vectors[stop] = _fill_degenerate(model, g_c, t_stop, vectors[stop - 1])
            values[stop] = _branch_values(degenerate_mats[stop], vectors[stop])
        start = stop + 1
    # Leading degenerate points (typically only t = 0) get the limiting basis;
    # everything before `first` is degenerate by construction.
    for i in range(first - 1, -1, -1):
        vectors[i] = _fill_degenerate(
            model, g_c, grid._points(i, i + 1)[0], vectors[i + 1], forward=vectors[i + 1: i + 4]
        )
        values[i] = _branch_values(degenerate_mats[i], vectors[i])

    phases, rates = _accumulated_phases(grid, f_k, dim)
    return TrackedBasis(grid=grid, values=values, vectors=vectors, phases=phases, rates=rates)


def _transport_block(values: np.ndarray, vectors: np.ndarray, blk: slice, carry: tuple) -> tuple:
    """Discrete parallel transport of the raw eigensystems in ``blk``, in
    place, continuing a run from ``carry`` and returning the carry of the
    block's last point, so a run's bits do not depend on its blocks. A carry
    holds a point's raw columns, their branch permutation, and two factor
    rows whose cumulative product ends in their unnormalized phase.

    Overlaps O_i = V_{i-1}^dag V_i of raw columns match branches point to
    point: branch k at point i is raw column perm_i[k] = sigma_i[perm_{i-1}][k].
    Its phase is the cumulative product of the unit overlap phases along the
    run, so every finished overlap <v_{i-1,k}|v_{i,k}> is real positive.
    ``np.cumprod`` takes two rows as one vectorized product that can round
    differently, so the carry keeps every block at three rows or more.
    """
    raw, current, factors = carry
    m, identity = blk.stop - blk.start, np.arange(values.shape[1])
    overlaps = np.empty((m, *raw.shape), dtype=complex)
    np.matmul(dagger(raw), vectors[blk.start], out=overlaps[0])
    np.matmul(dagger(vectors[blk][:-1]), vectors[blk][1:], out=overlaps[1:])
    sigma = _match_branches(np.abs(overlaps))
    perm = np.empty_like(sigma)
    prev, last = current, 0
    for j in np.flatnonzero(np.any(sigma != identity, axis=1)):
        perm[last:j] = current
        current, last = sigma[j][current], j
    perm[last:] = current
    w = overlaps[np.arange(m)[:, None], np.concatenate([prev[None], perm[:-1]]), perm]
    del overlaps
    modulus = np.abs(w)
    # A column orthogonal to its predecessor is not rotated at that step.
    unit = np.divide(w, modulus, out=np.ones_like(w), where=modulus > 0)
    factors = np.concatenate([factors, unit.conj()])
    phase = np.cumprod(factors, axis=0)
    carry = (vectors[blk.stop - 1].copy(), perm[-1], np.stack([phase[-2], factors[-1]]))
    phase = phase[2:] / np.abs(phase[2:])
    values[blk] = np.take_along_axis(values[blk], perm, axis=1)
    vectors[blk] = np.take_along_axis(vectors[blk], perm[:, None, :], axis=2) * phase[:, None, :]
    return carry


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
        _, limit = model.analytic_eigs_of_dparamh(g_c, np.array([t]))
        return _align_phases(limit[0].astype(complex), reference)
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
    values, vectors = np.asarray(values, dtype=float), np.asarray(vectors, dtype=complex)
    phases, rates = _accumulated_phases(grid, f_k, vectors.shape[-1])
    return TrackedBasis(grid=grid, values=values, vectors=vectors, phases=phases, rates=rates)


class GridHamiltonian:
    """Hermitian-matrix-valued function of time stored on a grid, evaluated
    anywhere in [0, T] by linear interpolation (consistent with the
    second-order integrator)."""

    def __init__(self, grid: TimeGrid, matrices: np.ndarray, hermiticity_residual: float = 0.0):
        self.grid = grid
        self.matrices = np.asarray(matrices, dtype=complex)
        self.hermiticity_residual = hermiticity_residual

    @_time_stack
    def __call__(self, ts):
        pos = np.clip(ts / self.grid.dt, 0.0, float(self.grid.steps))
        idx = np.minimum(pos.astype(int), self.grid.steps - 1)
        frac = (pos - idx)[:, None, None]
        # In place: fancy indexing already copies, and the stack is large.
        mats = self.matrices[idx]
        mats *= 1.0 - frac
        upper = self.matrices[idx + 1]
        upper *= frac
        mats += upper
        return mats


def synthesize_cd(basis: TrackedBasis) -> GridHamiltonian:
    """Control operator sum_k f_k P_k + i sum_k |d_t psi_k><psi_k| on the grid,
    with the phase rates ``basis.rates`` whose integrals are ``basis.phases``.

    Time derivatives of the tracked eigenvectors come from central differences
    (second-order one-sided at the endpoints). In the parallel-transport gauge
    the transport term is Hermitian up to O(dt^2) discretization; a residual
    above 1e-6 indicates a gauge violation and aborts.

    The differences, the transport term and its Hermitian part are formed
    one ``operators.block_slices`` block at a time, each block reading one
    point on either side of it, so nothing grid-long is held beside the
    result; every entry has the bits of the whole-grid form. At d = 2 the
    transport term's einsum is ``operators._times_dagger``, the same bits.
    """
    v = basis.vectors
    n_pts, dim = v.shape[0], v.shape[-1]
    if n_pts < 3:
        raise ValueError(f"control synthesis needs at least 3 grid points, got {n_pts}")
    two_dt = 2.0 * basis.grid.dt
    mats = np.empty_like(v)
    residual = 0.0
    for blk in block_slices(0, n_pts, dim):
        # Central differences on the block's interior points, one-sided ones
        # at the grid's ends.
        lo, hi = max(blk.start, 1), min(blk.stop, n_pts - 1)
        dv = np.empty_like(v[blk])
        dv[lo - blk.start : hi - blk.start] = (v[lo + 1 : hi + 1] - v[lo - 1 : hi - 1]) / two_dt
        if blk.start == 0:
            dv[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / two_dt
        if blk.stop == n_pts:
            dv[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / two_dt
        if dim == 2:
            _times_dagger(dv, v[blk], mats[blk])
        else:
            np.einsum("nik,njk->nij", dv, v[blk].conj(), out=mats[blk])
        del dv
        mats[blk] *= 1j
        if basis.rates is not None:
            mats[blk] += np.einsum("nik,nk,njk->nij", v[blk], basis.rates[blk], v[blk].conj())
        adjoint = dagger(mats[blk])
        residual = float(np.maximum(residual, np.max(np.abs(mats[blk] - adjoint))))
        mats[blk] += adjoint
        mats[blk] *= 0.5
    if not residual <= 1e-6:  # NaN fails too
        raise GaugeError(
            f"transport term Hermiticity residual {residual:.3e} exceeds 1e-6; "
            "tracked basis is not parallel-transported"
        )
    return GridHamiltonian(basis.grid, mats, hermiticity_residual=residual)


@dataclass(frozen=True)
class ControlledDrive:
    """Controlled drive family (gv, t) -> H(gv, t) - H(g_c, t) + H_cd(t), the
    value g it is evaluated at, and the tracked basis the control came from.

    ``basis`` is built once, on first read: while the drive is built when
    the control is synthesized from it, otherwise (the model's closed-form
    control and no f_k) only if ``basis`` is read.
    """

    g: float
    family: Callable = field(repr=False)
    _make_basis: Callable[[], TrackedBasis] = field(repr=False)

    @property
    def basis(self) -> TrackedBasis:
        return self._make_basis()

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
    synthesized from it. Beside the closed-form control the basis is built
    only when ``drive.basis`` is first read.
    """
    g_c = config.g_c

    @cache
    def basis() -> TrackedBasis:
        if model.analytic_eigs_of_dparamh is not None:
            return tracked_basis_from_analytic(model, g_c, grid, f_k=config.f_k)
        return track_eigenbasis(model, g_c, grid, f_k=config.f_k)

    if model.analytic_cd is not None and config.f_k is None:
        cd = lambda t: model.analytic_cd(g_c, t)  # noqa: E731
    else:
        cd = synthesize_cd(basis())

    def family(gv, t):
        # A non-finite model entry makes inf - inf NaN without a warning;
        # the step loop's non-finite check then rejects it.
        with np.errstate(invalid="ignore"):
            if gv == g_c and np.signbit(gv) == np.signbit(g_c):
                # The same float: one model call gives the same bits,
                # including NaN from inf - inf and +0.0 + cd's -0.0 entries.
                h_c = np.asarray(model.hamiltonian(g_c, t), dtype=complex)
                return h_c - h_c + np.asarray(cd(t), dtype=complex)
            return (
                np.asarray(model.hamiltonian(gv, t), dtype=complex)
                - np.asarray(model.hamiltonian(g_c, t), dtype=complex)
                + np.asarray(cd(t), dtype=complex)
            )

    return ControlledDrive(g=g, family=family, _make_basis=basis)


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
) -> ExpansionFit:
    """Generator of the controlled drive for each control mismatch
    delta = g_c - g, decomposed in the Pauli basis and fitted to polynomials
    of degree 3 in delta.

    Only two-level models are supported, and every |delta| * T must stay at or
    below 0.1 so the truncated expansion is meaningful. The controlled drives
    of all mismatches run in one step loop.
    """
    if model.dim != 2:
        raise ValueError("generator expansion requires a two-level model")
    degree = 3
    deltas = np.asarray(sorted(float(d) for d in deltas))
    if deltas.size < degree + 1:
        raise FitError(
            f"need at least {degree + 1} mismatch samples for degree {degree}"
        )
    if np.max(np.abs(deltas)) * grid.t_end > 0.1 + 1e-12:
        raise ValueError("control mismatch out of range: require |delta|*T <= 0.1")
    components = np.empty((deltas.size, 4))
    tau_max = np.empty(deltas.size)
    tau_min = np.empty(deltas.size)
    qfi = np.empty(deltas.size)
    drives = [
        build_controlled_drive(model, g, ControlConfig(g_c=g + delta), grid).hamiltonian
        for delta in deltas
    ]
    h_gens = _generator_integrals([(model, g, drive, grid) for drive in drives])
    for i, h_gen in enumerate(h_gens):
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
