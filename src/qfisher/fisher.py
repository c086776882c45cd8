"""Sensitivity generator of a parameterized evolution and the three Fisher
quantities built from it: the value for a given initial state (4 Var), the
optimum over initial states (squared spread of the generator spectrum), and
the spectral-gap upper bound that control can saturate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimMismatch, NumericalError
from .models import ParametricModel
from .operators import eig_hermitian, frobenius, hermitize
from .propagation import (
    Propagator,
    TimeGrid,
    eval_hamiltonian_batch,
    final_unitaries,
    propagate,
)


class GeneratorMethod(Enum):
    INTEGRAL_FORM = "integral_form"
    DERIVATIVE_FORM = "derivative_form"


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
    method: GeneratorMethod

    def __post_init__(self) -> None:
        if self.tau_max < self.tau_min:
            raise NumericalError("tau_max < tau_min in generator report")
        spread_sq = (self.tau_max - self.tau_min) ** 2
        if abs(self.optimal_qfi - spread_sq) > 1e-12 * max(1.0, spread_sq):
            raise NumericalError("optimal QFI inconsistent with eigenvalue spread")
        if self.optimal_qfi > self.upper_bound_qfi * (1.0 + 1e-6) + 1e-12:
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
    A precomputed ``propagator`` must be on ``grid``.
    """
    if propagator is not None and propagator.grid != grid:
        raise ValueError(
            f"propagator grid {propagator.grid} differs from the integration grid {grid}"
        )
    prop = propagator if propagator is not None else propagate(drive, grid)
    dp = dparam if dparam is not None else model.d_param_h
    # dH/dg is passed inline so its stack is freed before the trapezoid.
    sandwich = np.einsum(
        "nji,njk,nkl->nil",
        prop.unitaries.conj(),
        eval_hamiltonian_batch(lambda t: dp(g, t), grid.points),
        prop.unitaries,
    )
    h_gen = np.trapezoid(sandwich, x=grid.points, axis=0)
    defect = frobenius(h_gen - h_gen.conj().T)
    if defect > 1e-10 * max(1.0, frobenius(h_gen)):
        raise NumericalError(
            f"generator integral lost Hermiticity (defect {defect:.3e})"
        )
    return hermitize(h_gen)


def generator_derivative(
    model: Optional[ParametricModel],
    g: float,
    drive: Callable,
    grid: TimeGrid,
    eps: Optional[float] = None,
    return_residual: bool = False,
):
    """Generator from the parameter derivative of the full propagator,
    i U^dag(g) [U(g+eps) - U(g-eps)] / (2 eps), symmetrized.

    ``drive`` is a family (g, t) -> H. The anti-Hermitian residual of the raw
    finite difference is O(eps^2); it is removed by symmetrization and
    optionally returned as a diagnostic.
    """
    ((h_gen, residual),) = derivative_generators([drive], g, grid, eps)
    if return_residual:
        return h_gen, residual
    return h_gen


def derivative_generators(
    families: Sequence[Callable],
    g: float,
    grid: TimeGrid,
    eps: Optional[float] = None,
) -> list[tuple[np.ndarray, float]]:
    """``generator_derivative`` of several families, as (generator, residual)
    pairs: the 3 drives per family at g, g + eps and g - eps run in one batch
    of final unitaries."""
    if eps is None:
        eps = 1e-5 * max(1.0, abs(g))
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    drives = [
        lambda t, family=family, gv=gv: family(gv, t)
        for family in families
        for gv in (g, g + eps, g - eps)
    ]
    finals = final_unitaries(drives, grid)
    pairs = []
    for u_mid, u_hi, u_lo in finals.reshape((len(families), 3) + finals.shape[1:]):
        raw = 1j * (u_mid.conj().T @ ((u_hi - u_lo) / (2.0 * eps)))
        pairs.append((hermitize(raw), frobenius(0.5 * (raw - raw.conj().T))))
    return pairs


def maximal_qfi(h_gen: np.ndarray, psi0: np.ndarray) -> float:
    """Fisher information for a given initial state: 4 (<h^2> - <h>^2)."""
    h_gen = np.asarray(h_gen, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h_gen.shape[0],):
        raise DimMismatch(
            f"state shape {psi0.shape} incompatible with generator {h_gen.shape}"
        )
    h_psi = h_gen @ psi0
    mean = np.vdot(psi0, h_psi).real
    second = np.vdot(h_psi, h_psi).real
    value = 4.0 * (second - mean * mean)
    if value < -1e-12:
        raise NumericalError(f"negative variance {value} in Fisher evaluation")
    return value


def optimal_qfi(h_gen: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimum of the Fisher information over initial states:
    (tau_max - tau_min)^2, achieved by the equal superposition of the extreme
    eigenvectors (also returned)."""
    eigensystem = eig_hermitian(np.asarray(h_gen, dtype=complex))
    spread = float(eigensystem.values[-1] - eigensystem.values[0])
    psi_opt = (eigensystem.vectors[:, -1] + eigensystem.vectors[:, 0]) / np.sqrt(2.0)
    return spread * spread, psi_opt


def spectral_gap_integral(
    model: ParametricModel,
    g: float,
    grid: TimeGrid,
    dparam: Optional[Callable] = None,
) -> float:
    """Time integral of the spectral gap mu_max(t) - mu_min(t) of dH/dg."""
    if dparam is None and model.analytic_eigs_of_dparamh is not None:
        values, _ = model.analytic_eigs_of_dparamh(g, grid.points)
        gaps = values[:, -1] - values[:, 0]
    else:
        dp = dparam if dparam is not None else model.d_param_h
        d_mats = eval_hamiltonian_batch(lambda t: dp(g, t), grid.points)
        values = np.linalg.eigvalsh(d_mats)
        gaps = values[:, -1] - values[:, 0]
    return float(np.trapezoid(gaps, x=grid.points))


def upper_bound_qfi(
    model: ParametricModel,
    g: float,
    grid: TimeGrid,
    dparam: Optional[Callable] = None,
) -> float:
    """Upper bound of the Fisher information: squared gap integral of dH/dg."""
    gap = spectral_gap_integral(model, g, grid, dparam=dparam)
    return gap * gap


def generator_report(
    model: ParametricModel,
    g: float,
    drive: Callable,
    grid: TimeGrid,
    method: GeneratorMethod = GeneratorMethod.INTEGRAL_FORM,
    dparam: Optional[Callable] = None,
    eps: Optional[float] = None,
) -> GeneratorReport:
    """Compute the generator by the requested method and assemble the report
    with its eigenvalue spread, optimal QFI and upper bound.

    ``drive`` is a family (g, t) -> H; the integral form evaluates it at the
    given g, the derivative form differentiates through it.
    """
    if method is GeneratorMethod.INTEGRAL_FORM:
        h_gen = generator_integral(
            model, g, lambda t: drive(g, t), grid, dparam=dparam
        )
    else:
        h_gen = generator_derivative(model, g, drive, grid, eps=eps)
    eigensystem = eig_hermitian(h_gen)
    tau_min = float(eigensystem.values[0])
    tau_max = float(eigensystem.values[-1])
    spread = tau_max - tau_min
    bound = upper_bound_qfi(model, g, grid, dparam=dparam)
    return GeneratorReport(
        generator=h_gen,
        tau_max=tau_max,
        tau_min=tau_min,
        optimal_qfi=spread * spread,
        upper_bound_qfi=bound,
        method=method,
    )
