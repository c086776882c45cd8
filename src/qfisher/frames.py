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
from .fisher import derivative_generators, maximal_qfi, optimal_qfi, upper_bound_qfi
from .models import ParametricModel, RotatingFieldConfig, make_rotating_qubit
from .operators import PAULI, _xz_rotation_matrices, frobenius
from .propagation import TimeGrid, eval_hamiltonian_batch, evolve_state, propagate_batch
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


def identity_frame(dim: int = 2) -> FrameTransform:
    eye = np.eye(dim, dtype=complex)
    zero = np.zeros((dim, dim), dtype=complex)

    def unitary(t):
        if np.isscalar(t) or np.ndim(t) == 0:
            return eye.copy()
        return np.broadcast_to(eye, (np.asarray(t).shape[0], dim, dim)).copy()

    def connection(t):
        if np.isscalar(t) or np.ndim(t) == 0:
            return zero.copy()
        return np.zeros((np.asarray(t).shape[0], dim, dim), dtype=complex)

    return FrameTransform(unitary=unitary, connection=connection)


def pauli_frame(
    axis: str,
    alpha: Callable[[float], float],
    alpha_dot: Optional[Callable[[float], float]] = None,
) -> FrameTransform:
    """Frame G(t) = exp(-i alpha(t) sigma_axis) with K(t) = alpha_dot sigma_axis.

    The angle derivative should be supplied analytically when known; otherwise
    a central difference with a scaled step is used.
    """
    if alpha_dot is None:

        def alpha_dot(t: float, _a=alpha) -> float:  # type: ignore[misc]
            h = 1e-6 * max(1.0, abs(t))
            return (_a(t + h) - _a(t - h)) / (2.0 * h)

    return _pauli_frame(
        axis,
        lambda ts: np.asarray([float(alpha(x)) for x in ts]),
        lambda ts: np.asarray([float(alpha_dot(x)) for x in ts]),
    )


def _pauli_frame(
    axis: str,
    angles: Callable[[np.ndarray], np.ndarray],
    rates: Callable[[np.ndarray], np.ndarray],
) -> FrameTransform:
    """``pauli_frame`` from the angle and its rate evaluated on a 1-D array
    of times."""
    if axis not in PAULI:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    sigma = PAULI[axis]

    def unitary(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        mats = _exp_pauli_angles(sigma, angles(ts))
        return mats[0] if np.isscalar(t) or np.ndim(t) == 0 else mats

    def connection(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        mats = rates(ts)[:, None, None] * sigma
        return mats[0] if np.isscalar(t) or np.ndim(t) == 0 else mats

    return FrameTransform(unitary=unitary, connection=connection)


def _exp_pauli_angles(sigma: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(-i angle_k sigma) for an array of angles (sigma^2 = I)."""
    cos = np.cos(angles)[:, None, None]
    sin = np.sin(angles)[:, None, None]
    eye = np.eye(2, dtype=complex)
    return cos * eye - 1j * sin * sigma


def linear_pauli_frame(axis: str, rate: float) -> FrameTransform:
    """Frame with linear angle alpha(t) = rate * t (constant connection),
    evaluated over whole time arrays."""
    return _pauli_frame(
        axis, lambda ts: rate * ts, lambda ts: np.full(ts.shape, float(rate))
    )


def sigma_y_removal_frame(omega_c: float) -> FrameTransform:
    """The frame alpha(t) = -omega_c t / 2 about sigma_y that cancels the
    -(omega_c/2) sigma_y control term of the rotating-qubit drive."""
    return linear_pauli_frame("y", -0.5 * omega_c)


def transform_hamiltonian(h_of_t: Callable, frame: FrameTransform) -> Callable:
    """Transformed drive H'(t) = G^dag(t) [H(t) - K(t)] G(t).

    The returned callback accepts scalar or array times.
    """

    def transformed(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        h_mats = eval_hamiltonian_batch(h_of_t, ts)
        g_mats = eval_hamiltonian_batch(frame.unitary, ts)
        k_mats = eval_hamiltonian_batch(frame.connection, ts)
        out = np.einsum(
            "nji,njk,nkl->nil", g_mats.conj(), h_mats - k_mats, g_mats
        )
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    return transformed


def boundary_times(omega_c: float, n: int) -> float:
    """Durations T = 4 pi n / |omega_c| at which exp(i omega_c T sigma_y / 2)
    returns to the identity."""
    if omega_c == 0.0 or not np.isfinite(omega_c):
        raise InvalidFrequency(f"frame frequency must be nonzero, got {omega_c}")
    if n < 1:
        raise ValueError(f"period count must be >= 1, got {n}")
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
    eps: Optional[float] = None,
    psi0: Optional[np.ndarray] = None,
) -> FrameInvarianceReport:
    """Compare generators of a drive family (g, t) -> H and its frame
    transform, computed independently by propagator differentiation.

    The frame must not depend on the estimated parameter (guaranteed here by
    construction: the transform wraps the family pointwise in g).
    """

    def transformed_family(gv: float, t):
        return transform_hamiltonian(lambda tt: drive(gv, tt), frame)(t)

    (h_plain, _), (h_prime, _) = derivative_generators(
        [drive, transformed_family], g, grid, eps=eps
    )

    scale = max(1.0, frobenius(h_plain))
    diff = frobenius(h_prime - h_plain)
    sq_diff = frobenius(h_prime @ h_prime - h_plain @ h_plain)
    sq_scale = max(1.0, frobenius(h_plain @ h_plain))

    qfi_plain, psi_opt = optimal_qfi(h_plain)
    qfi_prime, _ = optimal_qfi(h_prime)
    state = psi_opt if psi0 is None else np.asarray(psi0, dtype=complex)
    return FrameInvarianceReport(
        generator_diff=diff,
        generator_rel_diff=diff / scale,
        generator_sq_rel_diff=sq_diff / sq_scale,
        maximal_qfi=maximal_qfi(h_plain, state),
        maximal_qfi_transformed=maximal_qfi(h_prime, state),
        optimal_qfi=qfi_plain,
        optimal_qfi_transformed=qfi_prime,
        optimal_rel_diff=abs(qfi_prime - qfi_plain) / max(1.0, abs(qfi_plain)),
        upper_bound_qfi=upper_bound_qfi(model, g, grid),
    )


def closed_form_transformed_drive(b_field: float, omega: float, omega_c: float) -> Callable:
    """Closed form of the sigma_y-free transformed total drive:
    B {1 - cos[(omega - omega_c) t]} sigma_x - B sin[(omega - omega_c) t] sigma_z.
    """

    def drive(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        phase = (omega - omega_c) * ts
        out = _xz_rotation_matrices(
            b_field * (1.0 - np.cos(phase)), -b_field * np.sin(phase)
        )
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

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

    # (a) Formal picture: exact static evolution mapped by the picture
    # operator versus direct propagation of the rotating drive.
    formal_grid = TimeGrid(t_end=FORMAL_T_END, steps=FORMAL_STEPS)
    static = np.array(
        [[0.0, -b_field], [-b_field, 0.0]], dtype=complex
    ) + 0.5 * omega * PAULI["y"]
    prop_rotating, prop_static = propagate_batch(
        [
            lambda t: model.hamiltonian(omega, t),
            lambda t: np.broadcast_to(static, (np.size(t), 2, 2)).copy(),
        ],
        formal_grid,
    )
    angles = -0.5 * omega * formal_grid.points  # exp(i w t sy/2) = exp(-i(-w t/2) sy)
    picture_ops = _exp_pauli_angles(PAULI["y"], angles)
    mapped = np.einsum("nij,njk->nik", picture_ops, prop_static.unitaries)
    formal_diff = float(np.max(np.abs(mapped - prop_rotating.unitaries)))
    formal_prob_diff = float(
        np.max(np.abs(np.abs(mapped) ** 2 - np.abs(prop_rotating.unitaries) ** 2))
    )

    # (b) Physical transform of the controlled drive.
    controlled = build_controlled_drive(model, omega, ControlConfig(g_c=omega_c), grid)
    frame = sigma_y_removal_frame(omega_c)
    transformed = closed_form_transformed_drive(b_field, omega, omega_c)
    psi0 = (controlled.basis.vectors[0, :, 0] + controlled.basis.vectors[0, :, -1]) / np.sqrt(2.0)
    prop, prop_prime = propagate_batch([controlled.hamiltonian, transformed], grid)
    traj = evolve_state(prop, psi0)
    traj_prime = evolve_state(prop_prime, psi0)
    overlaps = np.abs(np.einsum("ni,ni->n", traj.conj(), traj_prime))
    interior_max_deficit = float(np.max(1.0 - overlaps[1:-1]))
    endpoint_diff = float(np.linalg.norm(traj[-1] - traj_prime[-1]))

    invariance = fisher_invariance_check(model, omega, controlled.family, frame, grid)

    return PictureComparisonReport(
        formal_unitary_max_diff=formal_diff,
        formal_probability_max_diff=formal_prob_diff,
        interior_max_deficit=interior_max_deficit,
        endpoint_state_diff=endpoint_diff,
        optimal_qfi=invariance.optimal_qfi,
        optimal_qfi_transformed=invariance.optimal_qfi_transformed,
        optimal_rel_diff=invariance.optimal_rel_diff,
        boundary_time=t_end,
    )
