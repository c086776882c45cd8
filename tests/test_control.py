"""Tests for eigenbasis tracking, control synthesis, the total controlled
drive, and the generator expansion in the control mismatch."""

import numpy as np
import pytest

from qfisher import (
    ControlConfig,
    DegenerateDerivativeSpectrum,
    Estimand,
    FitError,
    GaugeError,
    ParametricModel,
    RotatingFieldConfig,
    TimeGrid,
    build_controlled_drive,
    evolve_state,
    expand_generator,
    generator_integral,
    make_rotating_qubit,
    optimal_qfi,
    propagate,
    synthesize_cd,
    track_eigenbasis,
    tracked_basis_from_analytic,
    upper_bound_qfi,
)
from qfisher.control import TrackedBasis
from qfisher.operators import SIGMA_X, SIGMA_Y, SIGMA_Z


@pytest.fixture(scope="module")
def freq_model():
    return make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))


def static_spectrum_model():
    """dH/dg constant in time: eigenbasis is static, only phases can move."""
    d_mat = 0.5 * SIGMA_Z + 0.2 * SIGMA_X

    def ham(g, t):
        return g * d_mat

    def dham(g, t):
        if np.isscalar(t) or np.ndim(t) == 0:
            return d_mat.copy()
        return np.broadcast_to(d_mat, (np.asarray(t).shape[0], 2, 2)).copy()

    return ParametricModel(2, ham, dham)


class TestTrackEigenbasis:
    def test_branches_follow_t_times_b(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=800)
        basis = track_eigenbasis(freq_model, 1.0, grid)
        np.testing.assert_allclose(basis.values[:, 0], -grid.points, atol=1e-10)
        np.testing.assert_allclose(basis.values[:, 1], grid.points, atol=1e-10)

    def test_static_spectrum_constant_basis(self):
        model = static_spectrum_model()
        grid = TimeGrid(t_end=1.0, steps=200)
        basis = track_eigenbasis(model, 1.0, grid)
        drift = np.max(np.abs(basis.vectors - basis.vectors[0]))
        assert drift <= 1e-12

    def test_matches_analytic_basis(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        numeric = track_eigenbasis(freq_model, 1.0, grid)
        analytic = tracked_basis_from_analytic(freq_model, 1.0, grid)
        for k in (0, 1):
            overlaps = np.abs(
                np.einsum(
                    "ni,ni->n", analytic.vectors[:, :, k].conj(), numeric.vectors[:, :, k]
                )
            )
            assert np.min(overlaps) >= 1.0 - 1e-8

    def test_continuity_and_transport_gauge(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        basis = track_eigenbasis(freq_model, 1.0, grid)
        step_norm = np.linalg.norm(np.diff(basis.vectors, axis=0), axis=(1, 2))
        # ||dv/dt|| = w/2 per branch -> sqrt(2)*(w/2)*dt per step for the pair.
        assert np.max(step_norm) <= 2.0 * grid.dt
        overlaps = np.einsum(
            "nik,nik->nk", basis.vectors[:-1].conj(), basis.vectors[1:]
        )
        assert np.max(np.abs(overlaps.imag)) <= 1e-12
        assert np.max(np.abs(overlaps.real - 1.0)) <= grid.dt**2

    def test_degenerate_start_without_analytic_limit(self, freq_model):
        bare = ParametricModel(2, freq_model.hamiltonian, freq_model.d_param_h)
        grid = TimeGrid(t_end=2.0, steps=2000)
        basis = track_eigenbasis(bare, 1.0, grid)
        analytic = tracked_basis_from_analytic(freq_model, 1.0, grid)
        # The extrapolated t=0 basis still matches the smooth limit.
        for k in (0, 1):
            ov = abs(np.vdot(analytic.vectors[0, :, k], basis.vectors[0, :, k]))
            assert ov >= 1.0 - 1e-6

    def test_persistent_degeneracy_rejected(self):
        def ham(g, t):
            return g * np.eye(2, dtype=complex)

        def dham(g, t):
            if np.isscalar(t) or np.ndim(t) == 0:
                return np.eye(2, dtype=complex)
            return np.broadcast_to(
                np.eye(2, dtype=complex), (np.asarray(t).shape[0], 2, 2)
            ).copy()

        model = ParametricModel(2, ham, dham)
        with pytest.raises(DegenerateDerivativeSpectrum):
            track_eigenbasis(model, 1.0, TimeGrid(t_end=1.0, steps=100))

    def test_phase_accumulation(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        basis = track_eigenbasis(
            freq_model, 1.0, grid, f_k=(lambda t: 0.0, lambda t: 3.0)
        )
        np.testing.assert_allclose(basis.phases[:, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(basis.phases[:, 1], 3.0 * grid.points, atol=1e-10)


class TestSynthesizeCd:
    def test_rotating_model_constant_control(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=4000)
        cd = synthesize_cd(track_eigenbasis(freq_model, 1.0, grid))
        assert np.max(np.abs(cd.matrices - (-0.5 * SIGMA_Y))) <= 1e-6
        assert cd.hermiticity_residual <= 1e-8

    def test_static_basis_with_phase_rates(self):
        model = static_spectrum_model()
        grid = TimeGrid(t_end=1.0, steps=400)
        basis = track_eigenbasis(model, 1.0, grid)
        c1, c2 = -0.4, 0.9
        cd = synthesize_cd(basis, f_k=(lambda t: c1, lambda t: c2))
        p1 = np.outer(basis.vectors[0, :, 0], basis.vectors[0, :, 0].conj())
        p2 = np.outer(basis.vectors[0, :, 1], basis.vectors[0, :, 1].conj())
        expected = c1 * p1 + c2 * p2
        assert np.max(np.abs(cd.matrices - expected)) <= 1e-10

    def test_transitionless_driving(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=4000)
        basis = track_eigenbasis(freq_model, 1.0, grid)
        cd = synthesize_cd(basis)
        prop = propagate(cd, grid)
        for k in (0, 1):
            traj = evolve_state(prop, basis.vectors[0, :, k])
            overlaps = np.abs(
                np.einsum("ni,ni->n", basis.vectors[:, :, k].conj(), traj)
            )
            assert np.min(overlaps) >= 1.0 - 1e-5

    def test_transitionless_driving_amplitude_model(self):
        # No closed form is supplied for this estimand; the synthesized
        # control is validated by the driving property itself.
        model = make_rotating_qubit(
            RotatingFieldConfig(B=1.0, omega=1.0, estimand=Estimand.AMPLITUDE)
        )
        grid = TimeGrid(t_end=2.0, steps=4000)
        basis = track_eigenbasis(model, 1.0, grid)
        cd = synthesize_cd(basis)
        prop = propagate(cd, grid)
        for k in (0, 1):
            traj = evolve_state(prop, basis.vectors[0, :, k])
            overlaps = np.abs(
                np.einsum("ni,ni->n", basis.vectors[:, :, k].conj(), traj)
            )
            assert np.min(overlaps) >= 1.0 - 1e-5

    def test_gauge_violation_detected(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=500)
        good = track_eigenbasis(freq_model, 1.0, grid)
        vectors = good.vectors.copy()
        vectors[:, :, 0] *= (1.0 + 0.1 * np.sin(grid.points))[:, None]
        bad = TrackedBasis(
            grid=grid, values=good.values, vectors=vectors, phases=good.phases
        )
        with pytest.raises(GaugeError):
            synthesize_cd(bad)

    def test_grid_interpolation(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        cd = synthesize_cd(track_eigenbasis(freq_model, 1.0, grid))
        sample = np.array([0.0, 0.3337, 1.5551, 2.0])
        mats = cd(sample)
        assert mats.shape == (4, 2, 2)
        assert np.max(np.abs(mats - (-0.5 * SIGMA_Y))) <= 1e-5
        single = cd(0.777)
        assert single.shape == (2, 2)


class TestTotalHamiltonian:
    def test_reduces_to_control_at_design_point(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=500)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid).hamiltonian
        ts = np.linspace(0.0, 2.0, 40)
        assert np.max(np.abs(drive(ts) - (-0.5 * SIGMA_Y))) <= 1e-12

    def test_rotating_model_closed_form(self, freq_model):
        omega, omega_c = 1.0, 1.3
        grid = TimeGrid(t_end=2.0, steps=500)
        drive = build_controlled_drive(
            freq_model, omega, ControlConfig(g_c=omega_c), grid
        ).hamiltonian
        ts = np.linspace(0.0, 2.0, 50)
        expected = (
            -(np.cos(omega * ts)[:, None, None] * SIGMA_X
              + np.sin(omega * ts)[:, None, None] * SIGMA_Z)
            + (np.cos(omega_c * ts)[:, None, None] * SIGMA_X
               + np.sin(omega_c * ts)[:, None, None] * SIGMA_Z)
            - 0.5 * omega_c * SIGMA_Y
        )
        assert np.max(np.abs(drive(ts) - expected)) <= 1e-12

    @pytest.mark.parametrize("estimand", [Estimand.FREQUENCY, Estimand.AMPLITUDE])
    def test_family_matches_drive_built_at_other_g(self, estimand):
        # Closed-form control for frequency, numeric synthesis for amplitude.
        model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0, estimand=estimand))
        grid = TimeGrid(t_end=2.0, steps=500)
        cfg = ControlConfig(g_c=1.0)
        family = build_controlled_drive(model, 1.0, cfg, grid).family
        ts = np.linspace(0.0, 2.0, 30)
        for g_other in (0.9, 1.07):
            rebuilt = build_controlled_drive(model, g_other, cfg, grid).hamiltonian
            assert np.array_equal(family(g_other, ts), rebuilt(ts))
            assert np.array_equal(family(g_other, 0.61), rebuilt(0.61))

    def test_parameter_derivative_matches_model(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=500)
        cfg = ControlConfig(g_c=1.1)
        eps = 1e-6
        hi = build_controlled_drive(freq_model, 1.0 + eps, cfg, grid).hamiltonian
        lo = build_controlled_drive(freq_model, 1.0 - eps, cfg, grid).hamiltonian
        ts = np.linspace(0.0, 2.0, 30)
        fd = (hi(ts) - lo(ts)) / (2.0 * eps)
        assert np.max(np.abs(fd - freq_model.d_param_h(1.0, ts))) <= 1e-6

    def test_state_guidance_at_design_point(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        psi0 = (drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, 1]) / np.sqrt(2)
        traj = evolve_state(propagate(drive.hamiltonian, grid), psi0)
        for k in (0, 1):
            overlaps = np.abs(
                np.einsum("ni,ni->n", drive.basis.vectors[:, :, k].conj(), traj)
            )
            assert np.max(np.abs(overlaps - 1.0 / np.sqrt(2.0))) <= 1e-4

    def test_saturation_at_design_point(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid)
        value, _ = optimal_qfi(h_gen)
        bound = upper_bound_qfi(freq_model, 1.0, grid)
        assert abs(value - bound) <= 1e-4 * bound

    def test_phase_rate_freedom(self, freq_model):
        # Nonzero f_k changes the accumulated phases but neither the
        # transition-free property nor the optimal QFI at the design point.
        grid = TimeGrid(t_end=2.0, steps=4000)
        f_k = (lambda t: 0.3 * np.sin(t), lambda t: -0.2)
        plain = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        gauged = build_controlled_drive(
            freq_model, 1.0, ControlConfig(g_c=1.0, f_k=f_k), grid
        )
        assert np.max(np.abs(gauged.basis.phases)) > 0.1
        psi0 = (gauged.basis.vectors[0, :, 0] + gauged.basis.vectors[0, :, 1]) / np.sqrt(2)
        traj = evolve_state(propagate(gauged.hamiltonian, grid), psi0)
        for k in (0, 1):
            overlaps = np.abs(
                np.einsum("ni,ni->n", gauged.basis.vectors[:, :, k].conj(), traj)
            )
            assert np.max(np.abs(overlaps - 1.0 / np.sqrt(2.0))) <= 1e-4
        h_plain = generator_integral(freq_model, 1.0, plain.hamiltonian, grid)
        h_gauged = generator_integral(freq_model, 1.0, gauged.hamiltonian, grid)
        q_plain, _ = optimal_qfi(h_plain)
        q_gauged, _ = optimal_qfi(h_gauged)
        assert abs(q_gauged - q_plain) <= 1e-6 * q_plain

    def test_naive_control_only_scales_as_t2(self, freq_model):
        # Driving with the bare control operator and differentiating it
        # directly gives the wrong (quadratic) time scaling.
        def dparam_cd(g, t):
            mat = -0.5 * SIGMA_Y
            if np.isscalar(t) or np.ndim(t) == 0:
                return mat.copy()
            return np.broadcast_to(mat, (np.asarray(t).shape[0], 2, 2)).copy()

        ts = np.array([1.0, 2.0, 4.0, 8.0])
        values = []
        for t_end in ts:
            grid = TimeGrid(t_end=t_end, steps=int(500 * t_end))
            cd_drive = lambda t: freq_model.analytic_cd(1.0, t)  # noqa: E731
            h_gen = generator_integral(
                freq_model, 1.0, cd_drive, grid, dparam=dparam_cd
            )
            values.append(optimal_qfi(h_gen)[0])
        slope = np.polyfit(np.log(ts), np.log(values), 1)[0]
        assert abs(slope - 2.0) <= 0.1


class TestExpandGenerator:
    def test_leading_coefficients(self, freq_model):
        b_field, t_end = 1.0, 2.0
        grid = TimeGrid(t_end=t_end, steps=2000)
        deltas = [s * m for m in (0.001, 0.002, 0.003, 0.004, 0.005) for s in (1, -1)]
        fit = expand_generator(freq_model, 1.0, grid, deltas)
        assert abs(fit.coefficients[3][0] / (-b_field * t_end**2 / 2) - 1.0) <= 0.01
        assert abs(fit.coefficients[1][1] / (-b_field * t_end**3 / 3) - 1.0) <= 0.01

    def test_zero_mismatch_has_single_component(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid)
        from qfisher.operators import pauli_components

        c_i, c_x, c_y, c_z = pauli_components(h_gen)
        assert abs(c_z + 2.0) <= 1e-6
        assert max(abs(c_i), abs(c_x), abs(c_y)) <= 1e-8

    def test_mismatch_window_enforced(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        with pytest.raises(ValueError):
            expand_generator(freq_model, 1.0, grid, [0.0, 0.02, 0.06])

    def test_too_few_samples(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        with pytest.raises(FitError):
            expand_generator(freq_model, 1.0, grid, [0.001, -0.001])
