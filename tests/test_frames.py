"""Tests for physical frame transformations and Fisher invariance."""

import numpy as np
import pytest

from qfisher import (
    ControlConfig,
    Estimand,
    InvalidFrequency,
    RotatingFieldConfig,
    TimeGrid,
    appendix_a_distinction,
    boundary_times,
    build_controlled_drive,
    closed_form_transformed_drive,
    fisher_invariance_check,
    identity_frame,
    linear_pauli_frame,
    make_rotating_qubit,
    pauli_frame,
    propagate,
    sigma_y_removal_frame,
    transform_hamiltonian,
)
from qfisher.operators import SIGMA_Y, hermiticity_defect, pauli_components
from qfisher.propagation import eval_hamiltonian_batch


@pytest.fixture(scope="module")
def setup_ht():
    """Controlled rotating drive at omega_c = 1 with a small mismatch."""
    omega_c, delta = 1.0, 0.01
    omega = omega_c - delta
    model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=omega))
    t_end = boundary_times(omega_c, 1)
    grid = TimeGrid(t_end=t_end, steps=20000)
    drive = build_controlled_drive(model, omega, ControlConfig(g_c=omega_c), grid)
    return model, omega, omega_c, grid, drive


class TestFrameConstruction:
    def test_connection_matches_rate(self):
        frame = pauli_frame("y", lambda t: 0.3 * np.sin(t))
        ts = np.linspace(0.1, 3.0, 7)
        for t in ts:
            k_mat = frame.connection(t)
            assert hermiticity_defect(k_mat) <= 1e-8
            expected = 0.3 * np.cos(t) * SIGMA_Y
            assert np.max(np.abs(k_mat - expected)) <= 1e-8

    def test_linear_frame_unitary(self):
        frame = linear_pauli_frame("y", -0.5)
        g_mat = frame.unitary(2.0)
        expected = np.cos(1.0) * np.eye(2) + 1j * np.sin(1.0) * SIGMA_Y
        np.testing.assert_allclose(g_mat, expected, atol=1e-14)

    @pytest.mark.parametrize("axis, rate", [("x", -0.37), ("y", 1.3), ("z", 2)])
    def test_linear_frame_matches_pointwise_angles(self, axis, rate):
        fast = linear_pauli_frame(axis, rate)
        slow = pauli_frame(axis, lambda t: rate * t, alpha_dot=lambda t: rate)
        for t in (np.linspace(0.0, 25.0, 1001), 1.7, np.float64(0.0)):
            assert np.array_equal(fast.unitary(t), slow.unitary(t))
            assert np.array_equal(fast.connection(t), slow.connection(t))

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            pauli_frame("q", lambda t: t)
        with pytest.raises(ValueError):
            linear_pauli_frame("q", 1.0)


class TestTransformHamiltonian:
    def test_identity_frame_is_noop(self, setup_ht):
        _, _, _, grid, drive = setup_ht
        transformed = transform_hamiltonian(drive.hamiltonian, identity_frame())
        ts = grid.points[::1000]
        assert np.max(np.abs(transformed(ts) - drive.hamiltonian(ts))) <= 1e-12

    def test_closed_form_pointwise(self, setup_ht):
        model, omega, omega_c, grid, drive = setup_ht
        frame = sigma_y_removal_frame(omega_c)
        transformed = transform_hamiltonian(drive.hamiltonian, frame)
        closed = closed_form_transformed_drive(1.0, omega, omega_c)
        ts = grid.points[::500]
        assert np.max(np.abs(transformed(ts) - closed(ts))) <= 1e-8

    def test_sigma_y_eliminated(self, setup_ht):
        _, _, omega_c, grid, drive = setup_ht
        frame = sigma_y_removal_frame(omega_c)
        transformed = transform_hamiltonian(drive.hamiltonian, frame)
        ts = grid.points[::500]
        sy = [abs(pauli_components(m)[2]) for m in transformed(ts)]
        assert max(sy) <= 1e-10

    def test_zero_mismatch_vanishes(self):
        omega = 1.0
        model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=omega))
        grid = TimeGrid(t_end=4.0, steps=2000)
        drive = build_controlled_drive(model, omega, ControlConfig(g_c=omega), grid)
        transformed = transform_hamiltonian(drive.hamiltonian, sigma_y_removal_frame(omega))
        ts = grid.points[::100]
        assert np.max(np.abs(transformed(ts))) <= 1e-12

    def test_transformed_propagator_consistency(self, setup_ht):
        # U'(0->t) = G^dag(t) U(0->t) G(0) on the grid.
        model, omega, omega_c, _, _ = setup_ht
        grid = TimeGrid(t_end=2.0, steps=4000)
        drive = build_controlled_drive(model, omega, ControlConfig(g_c=omega_c), grid)
        frame = sigma_y_removal_frame(omega_c)
        transformed = transform_hamiltonian(drive.hamiltonian, frame)
        plain = propagate(drive.hamiltonian, grid)
        primed = propagate(transformed, grid)
        g_mats = eval_hamiltonian_batch(frame.unitary, grid.points)
        expected = np.einsum("nji,njk->nik", g_mats.conj(), plain.unitaries)
        assert np.max(np.abs(primed.unitaries - expected)) <= 1e-6


class TestBoundaryTimes:
    def test_basic_value(self):
        # The frame returns to the identity after 4 pi for either sign.
        for omega_c in (1.0, -1.0):
            t_end = boundary_times(omega_c, 1)
            assert abs(t_end - 4.0 * np.pi) <= 1e-15
            frame = sigma_y_removal_frame(omega_c)
            assert frame.boundary_deviation(t_end) <= 1e-10
            assert frame.boundary_deviation(0.0) <= 1e-10

    def test_plug_in_formula(self):
        assert abs(boundary_times(2.0 * np.pi, 3) - 6.0) <= 1e-12

    def test_non_boundary_time_negative_control(self):
        frame = sigma_y_removal_frame(1.0)
        assert frame.boundary_deviation(np.pi) > 0.1

    def test_zero_frequency_rejected(self):
        with pytest.raises(InvalidFrequency):
            boundary_times(0.0, 1)
        with pytest.raises(ValueError):
            boundary_times(1.0, 0)


class TestFisherInvariance:
    def test_identity_frame_exact(self, setup_ht):
        model, omega, omega_c, _, _ = setup_ht
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(model, omega, ControlConfig(g_c=omega_c), grid)
        report = fisher_invariance_check(
            model, omega, drive.family, identity_frame(), grid
        )
        assert report.generator_diff <= 1e-12
        assert report.optimal_rel_diff <= 1e-12

    def test_sigma_y_removal_invariance(self, setup_ht):
        model, omega, omega_c, grid, drive = setup_ht
        report = fisher_invariance_check(
            model, omega, drive.family, sigma_y_removal_frame(omega_c), grid
        )
        assert report.generator_rel_diff <= 1e-5
        assert report.generator_sq_rel_diff <= 1e-5
        assert report.optimal_rel_diff <= 1e-5
        rel_max = abs(report.maximal_qfi_transformed - report.maximal_qfi) / report.maximal_qfi
        assert rel_max <= 1e-5
        # Both reproduce the mismatch expansion to its next order.
        t_end, delta = grid.t_end, omega_c - omega
        closed = t_end**4 * (1.0 - t_end**2 * delta**2 / 18.0)
        for value in (report.optimal_qfi, report.optimal_qfi_transformed):
            assert abs(value / closed - 1.0) <= (t_end * delta) ** 4

    def test_amplitude_model_invariance(self):
        model = make_rotating_qubit(
            RotatingFieldConfig(B=1.0, omega=1.0, estimand=Estimand.AMPLITUDE)
        )
        grid = TimeGrid(t_end=2.0, steps=2000)
        frame = linear_pauli_frame("y", 0.4)

        def family(g, t):
            return model.hamiltonian(g, t)

        report = fisher_invariance_check(model, 1.0, family, frame, grid)
        assert report.optimal_rel_diff <= 1e-5
        assert report.generator_rel_diff <= 1e-5

    def test_upper_bound_unchanged(self, setup_ht):
        # The bound depends only on dH/dg, which no frame touches.
        model, omega, _, _, _ = setup_ht
        grid = TimeGrid(t_end=2.0, steps=1000)
        from qfisher import upper_bound_qfi

        assert abs(upper_bound_qfi(model, omega, grid) - grid.t_end**4) <= 1e-9


class TestAppendixDistinction:
    def test_formal_vs_physical(self):
        report = appendix_a_distinction(1.0, 1.0, 0.1, n_periods=1, steps=50000)
        assert report.formal_unitary_max_diff <= 1e-8
        assert report.formal_probability_max_diff <= 1e-8
        assert report.interior_max_deficit > 1e-3
        assert report.endpoint_state_diff <= 1e-6
        assert report.optimal_rel_diff <= 1e-5
