"""Sensitivity generator of a parameterized evolution and the three Fisher
quantities built from it: the value for a given initial state (4 Var), the
optimum over initial states (squared spread of the generator spectrum), and
the spectral-gap upper bound that control can saturate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericalError
from .models import ParametricModel
from .operators import (
    block_slices,
    eig_hermitian,
    frobenius,
    hermiticity_defect,
    hermitize,
    pairwise_sum,
    require_hermitian,
    require_state,
    sandwich,
)
from .propagation import Propagator, TimeGrid, _run, eval_hamiltonian_batch, final_unitaries


@dataclass(frozen=True)
class GeneratorReport:
    """Generator at the final time with its extreme eigenvalues and the three
    Fisher quantities. tau_max/tau_min are the extreme generator eigenvalues;
    optimal_qfi = (tau_max - tau_min)^2."""

    generator: np.ndarray
    tau_max: float
    tau_min: float
    optimal_qfi: float
    upper_bound_qfi: float

    def __post_init__(self) -> None:
        # Each check is written so that a NaN fails it too.
        if not self.tau_min <= self.tau_max:
            raise NumericalError("tau_max < tau_min in generator report")
        spread_sq = (self.tau_max - self.tau_min) ** 2
        if not abs(self.optimal_qfi - spread_sq) <= 1e-12 * max(1.0, spread_sq):
            raise NumericalError("optimal QFI inconsistent with eigenvalue spread")
        if not self.optimal_qfi <= self.upper_bound_qfi * (1.0 + 1e-6) + 1e-12:
            raise NumericalError(
                f"optimal QFI {self.optimal_qfi} exceeds upper bound "
                f"{self.upper_bound_qfi}"
            )


def generator_integral(
    model: ParametricModel,
    g: float,
    drive: Callable,
    grid: TimeGrid,
    dparam: Optional[Callable] = None,
    propagator: Optional[Propagator] = None,
) -> np.ndarray:
    """Generator as the time integral of U^dag(0->t) dH/dg(t) U(0->t).

    ``drive`` is the Hamiltonian callback that generates the evolution (the
    bare family at g, or a controlled total Hamiltonian). The integrand
    derivative defaults to the model's dH/dg; pass ``dparam`` to override
    (e.g. for negative-control studies). Trapezoidal quadrature on the
    propagation grid keeps the error budget at the integrator's O(dt^2).

    The integrand is formed and summed one block of grid points at a time:
    over a precomputed ``propagator``, which must be on ``grid``, or, without
    one, over the unitaries as the step loop produces them, so no stack of U
    is ever stored.
    """
    if propagator is not None and propagator.grid != grid:
        raise ValueError(
            f"propagator grid {propagator.grid} differs from the integration grid {grid}"
        )
    dp = dparam if dparam is not None else model.d_param_h
    fold = _trapezoid_sandwich(lambda t: dp(g, t), grid)
    if propagator is None:
        (h_gen,) = _run([([drive], grid, fold)])
    else:
        h_gen = None
        for blk in block_slices(0, grid.steps, propagator.dim):
            h_gen = fold(h_gen, blk, propagator.unitaries[blk.start : blk.stop + 1, None])
    return _hermitian_generator(h_gen)


def _generator_integrals(
    jobs: Sequence[tuple[ParametricModel, float, Callable, TimeGrid]]
) -> list[np.ndarray]:
    """``generator_integral(model, g, drive, grid)`` of each job, without a
    propagator: consecutive drives of one step count run in one step loop,
    each folding its own trapezoid total, so every generator has the bits it
    has alone.
    """
    totals = _run([
        ([drive], grid, _trapezoid_sandwich(lambda t, m=model, gv=g: m.d_param_h(gv, t), grid))
        for model, g, drive, grid in jobs
    ])
    return [_hermitian_generator(total) for total in totals]


def _hermitian_generator(h_gen: np.ndarray) -> np.ndarray:
    """The hermitized generator integral; NumericalError if its
    anti-Hermitian part is not at rounding level, or it is not finite."""
    defect = hermiticity_defect(h_gen)
    if not defect <= 1e-10:  # NaN fails too
        raise NumericalError(
            f"generator integral lost Hermiticity (relative defect {defect:.3e})"
        )
    return hermitize(h_gen)


def _trapezoid_sandwich(dh: Callable, grid: TimeGrid) -> Callable:
    """Trapezoid rule for U^dag dH U on ``grid``, as a fold over blocks.

    ``fold(total, steps, u)`` takes the running total (None at the first
    block) and u, the (len + 1, 1, d, d) unitaries of one drive at the
    points steps.start .. steps.stop, and returns the total with the block's
    terms added; over blocks that cover the grid in order, the last total is
    the integral.
    The integrand comes from the sandwich kernel ``operators.sandwich``.
    Each block's trapezoid terms are summed with the running total as their
    first row; numpy sums the outer axis of a stack sequentially, so this is
    the sum np.trapezoid forms over the whole stack, bit for bit.
    """

    def fold(total: Optional[np.ndarray], blk: slice, u: np.ndarray) -> np.ndarray:
        points = grid._points(blk.start, blk.stop + 1)
        mats = sandwich(u[:, 0], eval_hamiltonian_batch(dh, points))
        dx = np.diff(points)[:, None, None]
        terms = dx * (mats[1:] + mats[:-1]) / 2.0
        del mats
        if total is not None:
            terms = np.concatenate((total[None], terms))
        return np.add.reduce(terms, axis=0)

    return fold


def generator_derivative(
    model: Optional[ParametricModel], g: float, drive: Callable, grid: TimeGrid
) -> np.ndarray:
    """Generator from the parameter derivative of the full propagator,
    i U^dag(g) [U(g+eps) - U(g-eps)] / (2 eps) with eps = 1e-5 max(1, |g|),
    symmetrized.

    ``drive`` is a family (g, t) -> H. The anti-Hermitian residual of the raw
    finite difference is O(eps^2); symmetrization removes it, and
    ``derivative_generators`` returns it.
    """
    ((h_gen, _),) = derivative_generators([drive], g, grid)
    return h_gen


def derivative_generators(
    families: Sequence[Callable], g: float, grid: TimeGrid
) -> list[tuple[np.ndarray, float]]:
    """``generator_derivative`` of several families, as (generator, residual)
    pairs: the 3 drives per family at g, g + eps and g - eps run in one batch
    of final unitaries."""
    drives, eps = _derivative_drives(families, g)
    return _generators_from_finals(final_unitaries(drives, grid), eps)


def _derivative_drives(families: Sequence[Callable], g: float) -> tuple[list[Callable], float]:
    """The drives at g, g + eps and g - eps of each family, in that order,
    and eps = 1e-5 max(1, |g|)."""
    eps = 1e-5 * max(1.0, abs(g))
    drives = [
        lambda t, family=family, gv=gv: family(gv, t)
        for family in families
        for gv in (g, g + eps, g - eps)
    ]
    return drives, eps


def _generators_from_finals(
    finals: Sequence[np.ndarray], eps: float
) -> list[tuple[np.ndarray, float]]:
    """(generator, residual) per family from the U(T) of its
    ``_derivative_drives``, three per family in their order."""
    pairs = []
    for k in range(0, len(finals), 3):
        u_mid, u_hi, u_lo = finals[k : k + 3]
        raw = 1j * (u_mid.conj().T @ ((u_hi - u_lo) / (2.0 * eps)))
        pairs.append((hermitize(raw), frobenius(0.5 * (raw - raw.conj().T))))
    return pairs


def maximal_qfi(h_gen: np.ndarray, psi0: np.ndarray) -> float:
    """Fisher information for a given initial state: 4 (<h^2> - <h>^2).

    The generator must be a finite Hermitian matrix (InvalidMatrix
    otherwise) and the state normalized to 1e-12 (ValueError otherwise).
    <h^2> - <h>^2 rounds at about eps * <h^2>, so a variance below
    -1e-12 * max(1, <h^2>) raises NumericalError."""
    h_gen = require_hermitian(h_gen)
    psi0 = require_state(psi0, h_gen.shape[0])
    h_psi = h_gen @ psi0
    mean = np.vdot(psi0, h_psi).real
    second = np.vdot(h_psi, h_psi).real
    value = 4.0 * (second - mean * mean)
    if value < -1e-12 * max(1.0, second):
        raise NumericalError(f"negative variance {value} in Fisher evaluation")
    return value


def optimal_qfi(h_gen: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimum of the Fisher information over initial states:
    (tau_max - tau_min)^2, achieved by the equal superposition of the extreme
    eigenvectors (also returned)."""
    values, vectors = eig_hermitian(np.asarray(h_gen, dtype=complex))
    spread = float(values[-1] - values[0])
    psi_opt = (vectors[:, -1] + vectors[:, 0]) / np.sqrt(2.0)
    return spread * spread, psi_opt


def spectral_gap_integral(model: ParametricModel, g: float, grid: TimeGrid) -> float:
    """Time integral of the spectral gap mu_max(t) - mu_min(t) of dH/dg,
    from the model's closed-form eigenvalues when it has them, else from
    ``eigvalsh`` of ``d_param_h``, each block validated by
    ``require_hermitian`` (non-finite or non-Hermitian raises InvalidMatrix).

    Bit for bit ``np.trapezoid(gaps, x=grid.points)``, without the grid-long
    gap array: ``operators.pairwise_sum`` forms the trapezoid terms
    ``diff(t) * (gap[k + 1] + gap[k]) / 2.0`` one block of steps at a time,
    each from the gaps at that block's points, and adds them in numpy's
    pairwise order.
    """
    def terms(seg: slice) -> np.ndarray:
        points = grid._points(seg.start, seg.stop + 1)
        if model.analytic_eigs_of_dparamh is not None:
            values, _ = model.analytic_eigs_of_dparamh(g, points)
        else:
            values = np.linalg.eigvalsh(require_hermitian(
                eval_hamiltonian_batch(lambda t: model.d_param_h(g, t), points)
            ))
        gaps = values[:, -1] - values[:, 0]
        return np.diff(points) * (gaps[1:] + gaps[:-1]) / 2.0

    return pairwise_sum(grid.steps, terms, model.dim)


def upper_bound_qfi(model: ParametricModel, g: float, grid: TimeGrid) -> float:
    """Upper bound of the Fisher information: squared gap integral of dH/dg."""
    gap = spectral_gap_integral(model, g, grid)
    return gap * gap


def generator_report(
    model: ParametricModel, g: float, drive: Callable, grid: TimeGrid
) -> GeneratorReport:
    """Generator of a family (g, t) -> H evaluated at g, by the integral
    form, with its eigenvalue spread, optimal QFI and upper bound."""
    h_gen = generator_integral(model, g, lambda t: drive(g, t), grid)
    return _report(model, g, grid, h_gen)


def _report(
    model: ParametricModel, g: float, grid: TimeGrid, h_gen: np.ndarray
) -> GeneratorReport:
    """``generator_report`` of the generator ``h_gen`` found at g on ``grid``."""
    values, _ = eig_hermitian(h_gen)
    tau_min = float(values[0])
    tau_max = float(values[-1])
    spread = tau_max - tau_min
    return GeneratorReport(
        generator=h_gen,
        tau_max=tau_max,
        tau_min=tau_min,
        optimal_qfi=spread * spread,
        upper_bound_qfi=upper_bound_qfi(model, g, grid),
    )
