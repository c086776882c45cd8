"""Tests for physical frame transformations and Fisher invariance."""

import dataclasses
import tracemalloc
from unittest import mock

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
    evolve_state,
    fisher_invariance_check,
    make_rotating_qubit,
    pauli_frame,
    propagate,
    sigma_y_removal_frame,
    transform_hamiltonian,
)
from qfisher import frames, operators
from qfisher.fisher import _derivative_drives, _generators_from_finals
from qfisher.frames import _exp_pauli_angles, _invariance_report, _transformed_family
from qfisher.operators import PAULI, SIGMA_Y, hermiticity_defect, pauli_components
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
        frame = pauli_frame("y", lambda ts: 0.3 * np.sin(ts), lambda ts: 0.3 * np.cos(ts))
        ts = np.linspace(0.1, 3.0, 7)
        for t in ts:
            k_mat = frame.connection(t)
            assert hermiticity_defect(k_mat) <= 1e-8
            expected = 0.3 * np.cos(t) * SIGMA_Y
            assert np.max(np.abs(k_mat - expected)) <= 1e-8

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_nonlinear_angle_at_array_float_and_0d_times(self, axis):
        sigma = PAULI[axis]
        frame = pauli_frame(axis, lambda ts: 0.3 * np.sin(ts), lambda ts: 0.3 * np.cos(ts))
        ts = np.linspace(0.0, 6.0, 13)
        alpha = 0.3 * np.sin(ts)[:, None, None]
        expected_g = np.cos(alpha) * np.eye(2) - 1j * np.sin(alpha) * sigma
        expected_k = 0.3 * np.cos(ts)[:, None, None] * sigma
        np.testing.assert_allclose(frame.unitary(ts), expected_g, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(frame.connection(ts), expected_k, rtol=0.0, atol=1e-15)
        a = 0.3 * np.sin(1.7)
        g_point = np.cos(a) * np.eye(2) - 1j * np.sin(a) * sigma
        for t in (1.7, np.float64(1.7), np.array(1.7)):
            g_mat, k_mat = frame.unitary(t), frame.connection(t)
            assert g_mat.shape == k_mat.shape == (2, 2)
            np.testing.assert_allclose(g_mat, g_point, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(k_mat, 0.3 * np.cos(1.7) * sigma, rtol=0.0, atol=1e-15)

    def test_linear_frame_unitary(self):
        frame = pauli_frame("y", lambda ts: -0.5 * ts, lambda ts: np.full(ts.shape, -0.5))
        g_mat = frame.unitary(2.0)
        expected = np.cos(1.0) * np.eye(2) + 1j * np.sin(1.0) * SIGMA_Y
        np.testing.assert_allclose(g_mat, expected, atol=1e-14)

    @pytest.mark.parametrize("omega_c", [-1.3, 0.37, 1.0, 2.0])
    def test_sigma_y_removal_frame_angles(self, omega_c):
        ts = np.linspace(0.0, 25.0, 1001)
        frame = sigma_y_removal_frame(omega_c)
        assert np.array_equal(frame.unitary(ts), _exp_pauli_angles(SIGMA_Y, -0.5 * omega_c * ts))
        rates = np.full(ts.shape, -0.5 * omega_c)
        assert np.array_equal(frame.connection(ts), rates[:, None, None] * SIGMA_Y)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            pauli_frame("q", lambda ts: ts, lambda ts: np.ones(ts.shape))


class TestTransformHamiltonian:
    def test_identity_frame_is_noop(self, setup_ht):
        _, _, _, grid, drive = setup_ht
        # A zero angle about any axis gives G = I and K = 0.
        transformed = transform_hamiltonian(
            drive.hamiltonian, pauli_frame("z", lambda ts: 0.0 * ts, np.zeros_like)
        )
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

    def test_transform_matches_einsum_formula_bitwise(self, setup_ht):
        # The formula transform_hamiltonian evaluated before the sandwich
        # kernel replaced its einsum.
        _, _, omega_c, grid, drive = setup_ht
        frame = sigma_y_removal_frame(omega_c)
        ts = grid.points
        h_mats = eval_hamiltonian_batch(drive.hamiltonian, ts)
        g_mats = eval_hamiltonian_batch(frame.unitary, ts)
        k_mats = eval_hamiltonian_batch(frame.connection, ts)
        expected = np.einsum("nji,njk,nkl->nil", g_mats.conj(), h_mats - k_mats, g_mats)
        actual = transform_hamiltonian(drive.hamiltonian, frame)(ts)
        for a, b in ((actual.real, expected.real), (actual.imag, expected.imag)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_holds_a_few_blocks_beside_the_result(self, setup_ht):
        # 100,001 times in blocks of 1000 points: beside the 6.4 MB result
        # only block-sized work is alive (about 9 blocks), not float rows of the
        # whole stack (48 MB).
        _, _, omega_c, grid, drive = setup_ht
        transformed = transform_hamiltonian(drive.hamiltonian, sigma_y_removal_frame(omega_c))
        ts = TimeGrid(t_end=grid.t_end, steps=100_000).points
        output, block = len(ts) * 4 * 16, 1000 * 4 * 16
        with mock.patch.object(operators, "_BLOCK_ENTRIES", 1000 * 4):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                transformed(ts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - before <= output + 16 * block

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

    # A bool is an int to isinstance: True used to give T = 4 pi.
    @pytest.mark.parametrize("n", [1.5, 2.0, True, np.True_])
    def test_non_integer_count_rejected(self, n):
        # At n = 1.5, T = 6 pi and G(T) = -I: not a boundary time.
        with pytest.raises(ValueError, match="integer"):
            boundary_times(1.0, n)
        with pytest.raises(ValueError, match="integer"):
            appendix_a_distinction(1.0, 1.0, 0.1, n_periods=n, steps=75000)

    def test_numpy_integer_count(self):
        assert boundary_times(1.0, np.int64(2)) == boundary_times(1.0, 2) == 8.0 * np.pi


class TestFisherInvariance:
    def test_identity_frame_exact(self, setup_ht):
        model, omega, omega_c, _, _ = setup_ht
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(model, omega, ControlConfig(g_c=omega_c), grid)
        report = fisher_invariance_check(
            model, omega, drive.family, pauli_frame("z", lambda ts: 0.0 * ts, np.zeros_like),
            grid,
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
        frame = pauli_frame("y", lambda ts: 0.4 * ts, lambda ts: np.full(ts.shape, 0.4))

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


def whole_stack_appendix(b_field, omega, delta_omega, steps):
    """``appendix_a_distinction`` at one period, each drive propagated alone
    into a full stack, the first derivative drive included, with the states
    from ``evolve_state`` and the quantities from whole-stack einsums."""
    omega_c = omega + delta_omega
    t_end = boundary_times(omega_c, 1)
    grid = TimeGrid(t_end=t_end, steps=steps)
    formal_grid = TimeGrid(t_end=frames.FORMAL_T_END, steps=frames.FORMAL_STEPS)
    model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=omega))
    static = np.array([[0.0, -b_field], [-b_field, 0.0]], dtype=complex) + 0.5 * omega * PAULI["y"]
    controlled = build_controlled_drive(model, omega, ControlConfig(g_c=omega_c), grid)
    frame = sigma_y_removal_frame(omega_c)

    u_rotating = propagate(lambda t: model.hamiltonian(omega, t), formal_grid).unitaries
    u_static = propagate(
        lambda t: np.broadcast_to(static, (np.size(t), 2, 2)).copy(), formal_grid
    ).unitaries
    mapped = np.einsum(
        "nij,njk->nik", sigma_y_removal_frame(omega).unitary(formal_grid.points), u_static
    )
    psi0 = (controlled.basis.vectors[0, :, 0] + controlled.basis.vectors[0, :, -1]) / np.sqrt(2.0)
    traj = evolve_state(propagate(controlled.hamiltonian, grid), psi0)
    transformed = closed_form_transformed_drive(b_field, omega, omega_c)
    traj_prime = evolve_state(propagate(transformed, grid), psi0)
    overlaps = np.abs(np.einsum("ni,ni->n", traj.conj(), traj_prime))
    drives, eps = _derivative_drives(
        [controlled.family, _transformed_family(controlled.family, frame)], omega
    )
    finals = [propagate(drive, grid).final for drive in drives]
    invariance = _invariance_report(model, omega, grid, _generators_from_finals(finals, eps))
    return frames.PictureComparisonReport(
        formal_unitary_max_diff=float(np.max(np.abs(mapped - u_rotating))),
        formal_probability_max_diff=float(
            np.max(np.abs(np.abs(mapped) ** 2 - np.abs(u_rotating) ** 2))
        ),
        interior_max_deficit=float(np.max(1.0 - overlaps[1:-1])),
        endpoint_state_diff=float(np.linalg.norm(traj[-1] - traj_prime[-1])),
        optimal_qfi=invariance.optimal_qfi,
        optimal_qfi_transformed=invariance.optimal_qfi_transformed,
        optimal_rel_diff=invariance.optimal_rel_diff,
        boundary_time=t_end,
    )


class TestStreamedAppendix:
    # One step loop at the formal grid's step count, two at any other.
    @pytest.mark.parametrize("steps", [frames.FORMAL_STEPS, 23000])
    def test_fields_equal_the_whole_stack_form(self, steps):
        report = appendix_a_distinction(1.0, 1.0, 0.1, steps=steps)
        reference = whole_stack_appendix(1.0, 1.0, 0.1, steps)
        for field in dataclasses.fields(report):
            assert getattr(report, field.name) == getattr(reference, field.name), field.name
