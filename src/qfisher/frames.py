"""Physical unitary frame transformations.

A frame operator G(t) maps a drive H(t) to the genuinely different drive
H'(t) = G^dag(t) [H(t) - K(t)] G(t) with K = i G_dot G^dag. When G does not
depend on the estimated parameter, the sensitivity generator (and with it
every Fisher quantity) is unchanged, even though the interior-time dynamics
differ. The worked case is G(t) = exp(-i alpha(t) sigma_axis) with linear
alpha, which removes the sigma_y control term from the rotating-qubit drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidFrequency
from .fisher import (
    _derivative_drives,
    _generators_from_finals,
    derivative_generators,
    maximal_qfi,
    optimal_qfi,
    upper_bound_qfi,
)
from .models import ParametricModel, RotatingFieldConfig, make_rotating_qubit
from .operators import (
    PAULI,
    _time_stack,
    _xz_rotation_matrices,
    block_slices,
    frobenius,
    sandwich,
)
from .propagation import TimeGrid, _count, _final_point, _run, eval_hamiltonian_batch
from .control import ControlConfig, build_controlled_drive

# Grid of the formal-picture check in appendix_a_distinction.
FORMAL_T_END = 2.0
FORMAL_STEPS = 20000


@dataclass(frozen=True)
class FrameTransform:
    """Frame operator G(t) and its Hermitian connection K(t) = i G_dot G^dag."""

    unitary: Callable = field(repr=False)
    connection: Callable = field(repr=False)

    def boundary_deviation(self, t: float) -> float:
        """||G(t) - I||_F, used to check G(0) = G(T) = I when requested."""
        g_mat = np.asarray(self.unitary(t), dtype=complex)
        return frobenius(g_mat - np.eye(g_mat.shape[0]))


def pauli_frame(
    axis: str,
    alpha: Callable[[np.ndarray], np.ndarray],
    alpha_dot: Callable[[np.ndarray], np.ndarray],
) -> FrameTransform:
    """Frame G(t) = exp(-i alpha(t) sigma_axis) with K(t) = alpha_dot sigma_axis.

    ``alpha`` and its derivative ``alpha_dot`` are evaluated on a 1-D array
    of times; the frame's callbacks accept scalar or array times.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    sigma = PAULI[axis]

    return FrameTransform(
        unitary=_time_stack(lambda ts: _exp_pauli_angles(sigma, alpha(ts))),
        connection=_time_stack(lambda ts: alpha_dot(ts)[:, None, None] * sigma),
    )


def _exp_pauli_angles(sigma: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(-i angle_k sigma) for an array of angles (sigma^2 = I)."""
    cos = np.cos(angles)[:, None, None]
    sin = np.sin(angles)[:, None, None]
    eye = np.eye(2, dtype=complex)
    return cos * eye - 1j * sin * sigma


def sigma_y_removal_frame(omega_c: float) -> FrameTransform:
    """The frame alpha(t) = -omega_c t / 2 about sigma_y that cancels the
    -(omega_c/2) sigma_y control term of the rotating-qubit drive."""
    rate = -0.5 * omega_c
    return pauli_frame("y", lambda ts: rate * ts, lambda ts: np.full(ts.shape, float(rate)))


def transform_hamiltonian(h_of_t: Callable, frame: FrameTransform) -> Callable:
    """Transformed drive H'(t) = G^dag(t) [H(t) - K(t)] G(t), formed by the
    sandwich kernel ``operators.sandwich``.

    The returned callback accepts scalar or array times. An array is
    transformed one ``operators.block_slices`` block at a time, at the
    dimension of G at its first time, so the work beside the result stays
    block-sized; the sandwich's bits do not depend on the block.
    """

    @_time_stack
    def transformed(ts):
        dim = eval_hamiltonian_batch(frame.unitary, ts[:1]).shape[-1]
        out = np.empty((len(ts), dim, dim), dtype=complex)
        for blk in block_slices(0, len(ts), dim):
            h_mats = eval_hamiltonian_batch(h_of_t, ts[blk])
            g_mats = eval_hamiltonian_batch(frame.unitary, ts[blk])
            k_mats = eval_hamiltonian_batch(frame.connection, ts[blk])
            out[blk] = sandwich(g_mats, h_mats - k_mats)
        return out

    return transformed


def boundary_times(omega_c: float, n: int) -> float:
    """Durations T = 4 pi n / |omega_c|, for a positive integer n, at which
    exp(i omega_c T sigma_y / 2) returns to the identity."""
    if omega_c == 0.0 or not np.isfinite(omega_c):
        raise InvalidFrequency(f"frame frequency must be nonzero, got {omega_c}")
    _count("period count", n)
    return 4.0 * np.pi * n / abs(omega_c)


@dataclass(frozen=True)
class FrameInvarianceReport:
    """Numeric comparison of the sensitivity generator and Fisher quantities
    between a drive and its frame transform."""

    generator_diff: float
    generator_rel_diff: float
    generator_sq_rel_diff: float
    maximal_qfi: float
    maximal_qfi_transformed: float
    optimal_qfi: float
    optimal_qfi_transformed: float
    optimal_rel_diff: float
    upper_bound_qfi: float


def fisher_invariance_check(
    model: ParametricModel,
    g: float,
    drive: Callable,
    frame: FrameTransform,
    grid: TimeGrid,
) -> FrameInvarianceReport:
    """Compare generators of a drive family (g, t) -> H and its frame
    transform, computed independently by propagator differentiation.

    The frame must not depend on the estimated parameter (guaranteed here by
    construction: the transform wraps the family pointwise in g).
    """
    pairs = derivative_generators([drive, _transformed_family(drive, frame)], g, grid)
    return _invariance_report(model, g, grid, pairs)


def _transformed_family(drive: Callable, frame: FrameTransform) -> Callable:
    """The family (g, t) -> H' of the frame transform of ``drive`` at each g."""
    return lambda gv, t: transform_hamiltonian(lambda tt: drive(gv, tt), frame)(t)


def _invariance_report(
    model: ParametricModel, g: float, grid: TimeGrid, pairs: list
) -> FrameInvarianceReport:
    """Compare the (generator, residual) pairs of a drive family and of its
    frame transform, as ``fisher.derivative_generators`` returns them."""
    (h_plain, _), (h_prime, _) = pairs
    scale = max(1.0, frobenius(h_plain))
    diff = frobenius(h_prime - h_plain)
    sq_diff = frobenius(h_prime @ h_prime - h_plain @ h_plain)
    sq_scale = max(1.0, frobenius(h_plain @ h_plain))

    qfi_plain, psi_opt = optimal_qfi(h_plain)
    qfi_prime, _ = optimal_qfi(h_prime)
    return FrameInvarianceReport(
        generator_diff=diff,
        generator_rel_diff=diff / scale,
        generator_sq_rel_diff=sq_diff / sq_scale,
        maximal_qfi=maximal_qfi(h_plain, psi_opt),
        maximal_qfi_transformed=maximal_qfi(h_prime, psi_opt),
        optimal_qfi=qfi_plain,
        optimal_qfi_transformed=qfi_prime,
        optimal_rel_diff=abs(qfi_prime - qfi_plain) / max(1.0, abs(qfi_plain)),
        upper_bound_qfi=upper_bound_qfi(model, g, grid),
    )


def closed_form_transformed_drive(b_field: float, omega: float, omega_c: float) -> Callable:
    """Closed form of the sigma_y-free transformed total drive:
    B {1 - cos[(omega - omega_c) t]} sigma_x - B sin[(omega - omega_c) t] sigma_z.
    """

    @_time_stack
    def drive(ts):
        phase = (omega - omega_c) * ts
        return _xz_rotation_matrices(
            b_field * (1.0 - np.cos(phase)), -b_field * np.sin(phase)
        )

    return drive


@dataclass(frozen=True)
class PictureComparisonReport:
    """Numeric contrast between a formal picture change (same physics, states
    mapped pointwise by the picture operator) and a physical frame transform
    (different interior dynamics, identical Fisher information)."""

    formal_unitary_max_diff: float
    formal_probability_max_diff: float
    interior_max_deficit: float
    endpoint_state_diff: float
    optimal_qfi: float
    optimal_qfi_transformed: float
    optimal_rel_diff: float
    boundary_time: float


def appendix_a_distinction(
    b_field: float,
    omega: float,
    delta_omega: float,
    n_periods: int = 1,
    steps: Optional[int] = None,
) -> PictureComparisonReport:
    """Demonstrate the formal-vs-physical transformation distinction on the
    rotating-field qubit.

    (a) The rotating drive equals the interaction picture of the static
    operator -B sigma_x + (omega/2) sigma_y: mapping its evolution pointwise
    by exp(i omega t sigma_y / 2) reproduces the rotating-drive evolution
    (checked on its own short grid of ``FORMAL_STEPS`` steps to ``FORMAL_T_END``).
    (b) The sigma_y-removal frame applied to the controlled drive produces
    different interior-time states but the same endpoint state at boundary
    times T = 4 pi n / |omega_c| and the same Fisher information.
    """
    omega_c = omega + delta_omega
    t_end = boundary_times(omega_c, n_periods)
    if steps is None:
        steps = int(50000 * n_periods)
    grid = TimeGrid(t_end=t_end, steps=steps)

    model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))

    formal_grid = TimeGrid(t_end=FORMAL_T_END, steps=FORMAL_STEPS)
    static = np.array(
        [[0.0, -b_field], [-b_field, 0.0]], dtype=complex
    ) + 0.5 * omega * PAULI["y"]
    controlled = build_controlled_drive(model, omega, ControlConfig(g_c=omega_c), grid)
    frame = sigma_y_removal_frame(omega_c)
    transformed = closed_form_transformed_drive(b_field, omega, omega_c)
    derivative_drives, eps = _derivative_drives(
        [controlled.family, _transformed_family(controlled.family, frame)], omega
    )
    psi0 = (controlled.basis.vectors[0, :, 0] + controlled.basis.vectors[0, :, -1]) / np.sqrt(2.0)
    # exp(i w t sy/2) = exp(-i(-w t/2) sy), the sigma_y-removal frame at omega.
    picture = sigma_y_removal_frame(omega).unitary

    def formal_fold(total, blk, u):
        """(a) Formal picture: the maxima of exact static evolution mapped by
        the picture operator against direct propagation of the rotating
        drive."""
        diff, prob_diff = (-np.inf, -np.inf) if total is None else total
        picture_ops = picture(formal_grid._points(blk.start, blk.stop + 1))
        mapped = np.einsum("nij,njk->nik", picture_ops, u[:, 1])
        return (
            np.maximum(diff, np.max(np.abs(mapped - u[:, 0]))),
            np.maximum(prob_diff, np.max(np.abs(np.abs(mapped) ** 2 - np.abs(u[:, 0]) ** 2))),
        )

    def physical_fold(total, blk, u):
        """(b) Physical transform of the controlled drive: the interior
        deficit without the first and last grid points, both endpoint states
        and the controlled drive's U(T)."""
        deficit = -np.inf if total is None else total[0]
        traj = np.einsum("nij,j->ni", u[:, 0], psi0)
        traj_prime = np.einsum("nij,j->ni", u[:, 1], psi0)
        overlaps = np.abs(np.einsum("ni,ni->n", traj.conj(), traj_prime))
        lo = 1 if blk.start == 0 else 0
        hi = len(overlaps) - 1 if blk.stop == grid.steps else len(overlaps)
        deficit = np.maximum(deficit, np.max(1.0 - overlaps[lo:hi]))
        return deficit, traj[-1], traj_prime[-1], u[-1, 0].copy()

    # Every quantity is formed one block at a time with the bits of the
    # whole-stack einsums, and the maxima are folded with np.maximum, which
    # propagates a NaN as np.max does. The derivative drives are those of
    # fisher_invariance_check but the first, which is controlled.hamiltonian
    # on the same grid: the controlled drive's U(T) stands in for it.
    formal, physical, derivative_finals = _run([
        (
            [lambda t: model.hamiltonian(omega, t),
             lambda t: np.broadcast_to(static, (np.size(t), 2, 2)).copy()],
            formal_grid,
            formal_fold,
        ),
        ([controlled.hamiltonian, transformed], grid, physical_fold),
        (derivative_drives[1:], grid, _final_point),
    ])
    formal_diff, formal_prob_diff = formal
    interior_max_deficit, end_state, end_state_prime, controlled_final = physical
    endpoint_diff = float(np.linalg.norm(end_state - end_state_prime))
    finals = [controlled_final, *derivative_finals]

    invariance = _invariance_report(model, omega, grid, _generators_from_finals(finals, eps))

    return PictureComparisonReport(
        formal_unitary_max_diff=float(formal_diff),
        formal_probability_max_diff=float(formal_prob_diff),
        interior_max_deficit=float(interior_max_deficit),
        endpoint_state_diff=endpoint_diff,
        optimal_qfi=invariance.optimal_qfi,
        optimal_qfi_transformed=invariance.optimal_qfi_transformed,
        optimal_rel_diff=invariance.optimal_rel_diff,
        boundary_time=t_end,
    )
