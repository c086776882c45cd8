"""Tests for the midpoint-exponential propagator."""

import numpy as np
import pytest

from qfisher import (
    ControlConfig,
    DimMismatch,
    RotatingFieldConfig,
    StepTooCoarse,
    TimeGrid,
    build_controlled_drive,
    evolve_state,
    make_rotating_qubit,
    propagate,
)
from qfisher.operators import IDENTITY_2, SIGMA_X, exp_skew_batch, unitarity_defect
from qfisher.propagation import default_steps, eval_hamiltonian_batch


def zero_h(t):
    if np.isscalar(t) or np.ndim(t) == 0:
        return np.zeros((2, 2), dtype=complex)
    return np.zeros((np.asarray(t).shape[0], 2, 2), dtype=complex)


def constant_minus_sx(t):
    mat = -SIGMA_X
    if np.isscalar(t) or np.ndim(t) == 0:
        return mat
    return np.broadcast_to(mat, (np.asarray(t).shape[0], 2, 2)).copy()


@pytest.fixture(scope="module")
def rotating_drive():
    model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))
    return lambda t: model.hamiltonian(1.0, t)


class TestTimeGrid:
    def test_points(self):
        grid = TimeGrid(t_end=2.0, steps=4)
        np.testing.assert_allclose(grid.points, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.points[0] == 0.0 and grid.points[-1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=0.0, steps=10)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, steps=0)


class TestPropagate:
    def test_null_hamiltonian(self):
        prop = propagate(zero_h, TimeGrid(t_end=3.0, steps=50))
        for u in prop.unitaries:
            np.testing.assert_array_equal(u, IDENTITY_2)

    def test_initial_unitary_exact_identity(self, rotating_drive):
        prop = propagate(rotating_drive, TimeGrid(t_end=1.0, steps=200))
        assert np.array_equal(prop.unitaries[0], IDENTITY_2)

    def test_constant_drive_closed_form(self):
        # U(0->1) for H = -sx is exp(i sx) = cos(1) I + i sin(1) sx.
        prop = propagate(constant_minus_sx, TimeGrid(t_end=1.0, steps=1000))
        expected = np.cos(1.0) * IDENTITY_2 + 1j * np.sin(1.0) * SIGMA_X
        assert np.max(np.abs(prop.final - expected)) <= 1e-9

    def test_step_halving_richardson(self, rotating_drive):
        # Self-convergence: the Richardson combination of the n and 2n results
        # estimates the true propagator to higher order.
        u_n = propagate(rotating_drive, TimeGrid(t_end=2.0, steps=4000)).final
        u_2n = propagate(rotating_drive, TimeGrid(t_end=2.0, steps=8000)).final
        richardson = (4.0 * u_2n - u_n) / 3.0
        assert np.max(np.abs(u_2n - richardson)) <= 1e-7

    def test_second_order_convergence(self, rotating_drive):
        reference = propagate(rotating_drive, TimeGrid(t_end=2.0, steps=64000)).final
        ns = np.array([250, 500, 1000, 2000])
        errs = []
        for n in ns:
            u = propagate(rotating_drive, TimeGrid(t_end=2.0, steps=int(n))).final
            errs.append(np.linalg.norm(u - reference))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert abs(slope + 2.0) <= 0.2

    def test_all_unitaries_unitary(self, rotating_drive):
        prop = propagate(rotating_drive, TimeGrid(t_end=4.0, steps=1500))
        defects = [unitarity_defect(u) for u in prop.unitaries[:: 100]]
        assert max(defects) <= 1e-9

    def test_composition_recomputation(self, rotating_drive):
        # U(0->T) equals the ordered product of the per-step factors.
        grid = TimeGrid(t_end=1.0, steps=300)
        prop = propagate(rotating_drive, grid)
        acc = IDENTITY_2.copy()
        for i in range(grid.steps):
            mid = grid.points[i] + 0.5 * grid.dt
            acc = exp_skew_batch(rotating_drive(mid)[None], grid.dt)[0] @ acc
        assert np.max(np.abs(acc - prop.final)) <= 1e-12

    def test_step_too_coarse(self, rotating_drive):
        with pytest.raises(StepTooCoarse):
            propagate(rotating_drive, TimeGrid(t_end=10.0, steps=50))

    def test_coarse_step_warns(self, rotating_drive):
        with pytest.warns(UserWarning):
            propagate(rotating_drive, TimeGrid(t_end=2.0, steps=50))

    def test_scalar_only_callback_fallback(self):
        def scalar_h(t):
            return np.array([[0.0, t], [t, 0.0]], dtype=complex)

        prop = propagate(scalar_h, TimeGrid(t_end=1.0, steps=500))
        # exp(-i sx integral t dt) = exp(-i sx / 2)
        expected = np.cos(0.5) * IDENTITY_2 - 1j * np.sin(0.5) * SIGMA_X
        assert np.max(np.abs(prop.final - expected)) <= 1e-6


class TestEvalHamiltonianBatch:
    def test_vectorized_callback_error_propagates(self):
        per_point_calls = []

        def buggy_h(t):
            if np.ndim(t) > 0:
                raise RuntimeError("bug in the vectorized branch")
            per_point_calls.append(t)
            return np.zeros((2, 2), dtype=complex)

        with pytest.raises(RuntimeError, match="vectorized branch"):
            eval_hamiltonian_batch(buggy_h, np.linspace(0.0, 1.0, 5))
        assert per_point_calls == []


class TestDefaultSteps:
    def test_heuristic_scaling(self, rotating_drive):
        # ceil(100 * T * max(1, max||H||)) with ||H|| = B = 1.
        assert default_steps(rotating_drive, 2.0) == 200
        assert default_steps(constant_minus_sx, 3.0) == 300

    def test_respects_larger_norms(self):
        def strong(t):
            return constant_minus_sx(t) * 5.0

        assert default_steps(strong, 1.0) == 500


class TestEvolveState:
    def test_constant_trajectory_for_null_drive(self):
        prop = propagate(zero_h, TimeGrid(t_end=1.0, steps=20))
        psi0 = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        traj = evolve_state(prop, psi0)
        assert np.max(np.abs(traj - psi0)) <= 1e-15

    def test_stationary_eigenstate(self):
        # An eigenstate of a constant drive only acquires phase.
        prop = propagate(constant_minus_sx, TimeGrid(t_end=2.0, steps=800))
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        traj = evolve_state(prop, psi0)
        overlaps = np.abs(traj @ psi0.conj())
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-9

    def test_norm_preservation(self, rotating_drive):
        prop = propagate(rotating_drive, TimeGrid(t_end=5.0, steps=2000))
        psi0 = np.array([0.6, 0.8j])
        traj = evolve_state(prop, psi0)
        norms = np.linalg.norm(traj, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_dimension_mismatch(self):
        prop = propagate(zero_h, TimeGrid(t_end=1.0, steps=5))
        with pytest.raises(DimMismatch):
            evolve_state(prop, np.array([1.0, 0.0, 0.0]))

    def test_unnormalized_rejected(self):
        prop = propagate(zero_h, TimeGrid(t_end=1.0, steps=5))
        with pytest.raises(ValueError):
            evolve_state(prop, np.array([1.0, 1.0]))

    def test_controlled_superposition_tracks_eigenvectors(self):
        # With matched control the equal superposition remains an equal
        # superposition of the instantaneous derivative eigenvectors.
        model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0), grid)
        psi0 = (drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, 1]) / np.sqrt(2)
        traj = evolve_state(propagate(drive.hamiltonian, grid), psi0)
        for k in (0, 1):
            overlaps = np.abs(
                np.einsum("ni,ni->n", drive.basis.vectors[:, :, k].conj(), traj)
            )
            assert np.min(overlaps) >= 1.0 / np.sqrt(2.0) - 1e-6
