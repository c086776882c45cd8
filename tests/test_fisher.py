"""Tests for the sensitivity generator and the three Fisher quantities."""

import numpy as np
import pytest

from qfisher import (
    ControlConfig,
    DimMismatch,
    Estimand,
    InvalidMatrix,
    NumericalError,
    ParametricModel,
    RotatingFieldConfig,
    TimeGrid,
    build_controlled_drive,
    generator_derivative,
    generator_integral,
    generator_report,
    make_rotating_qubit,
    maximal_qfi,
    optimal_qfi,
    propagate,
    upper_bound_qfi,
)
from qfisher.fisher import GeneratorReport, derivative_generators
from qfisher.operators import SIGMA_X, SIGMA_Z, eig_hermitian, hermitize


@pytest.fixture(scope="module")
def freq_model():
    return make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))


def linear_sx_model():
    """Time-independent family H(g) = -g sx; its generator is -T sx."""

    def ham(g, t):
        mat = -g * SIGMA_X
        if np.isscalar(t) or np.ndim(t) == 0:
            return mat
        return np.broadcast_to(mat, (np.asarray(t).shape[0], 2, 2)).copy()

    def dham(g, t):
        mat = -SIGMA_X
        if np.isscalar(t) or np.ndim(t) == 0:
            return mat.copy()
        return np.broadcast_to(mat, (np.asarray(t).shape[0], 2, 2)).copy()

    return ParametricModel(2, ham, dham)


def random_model(rng, dim):
    """Random smooth family H(g, t) = A0 + g A1 + sin(t) A2 + g cos(t) A3."""
    mats = [
        hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for _ in range(4)
    ]
    a0, a1, a2, a3 = [0.4 * m / np.linalg.norm(m) for m in mats]

    def ham(g, t):
        return a0 + g * a1 + np.sin(t) * a2 + g * np.cos(t) * a3

    def dham(g, t):
        return a1 + np.cos(t) * a3

    return ParametricModel(dim, ham, dham)


class TestGeneratorIntegral:
    def test_commuting_family(self):
        model = linear_sx_model()
        grid = TimeGrid(t_end=2.0, steps=500)
        h_gen = generator_integral(
            model, 0.7, lambda t: model.hamiltonian(0.7, t), grid
        )
        np.testing.assert_allclose(h_gen, -2.0 * SIGMA_X, atol=1e-12)

    def test_matched_control_generator(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=4000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid)
        assert np.max(np.abs(h_gen - (-2.0 * SIGMA_Z))) <= 1e-4

    def test_small_mismatch_eigenvalues(self, freq_model):
        b_field, t_end, delta = 1.0, 2.0, 0.01
        grid = TimeGrid(t_end=t_end, steps=4000)
        drive = build_controlled_drive(
            freq_model, 1.0, ControlConfig(g_c=1.0 + delta), grid
        )
        h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid)
        values = np.linalg.eigvalsh(h_gen)
        predicted = b_field * t_end**2 / 2 - b_field * t_end**4 * delta**2 / 72
        # Agreement to the next expansion order in the mismatch.
        assert abs(values[-1] - predicted) <= 1e-7
        assert abs(values[0] + predicted) <= 1e-7


    def test_precomputed_propagator_reused(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=4000)
        drive = lambda t: freq_model.hamiltonian(1.0, t)  # noqa: E731
        prop = propagate(drive, grid)
        reused = generator_integral(freq_model, 1.0, drive, grid, propagator=prop)
        fresh = generator_integral(freq_model, 1.0, drive, grid)
        assert np.array_equal(reused, fresh)

    def test_nan_derivative_raises(self, freq_model):
        # A NaN integrand makes a NaN generator, which fails the Hermiticity
        # check instead of passing it.
        grid = TimeGrid(t_end=2.0, steps=500)
        drive = lambda t: freq_model.hamiltonian(1.0, t)  # noqa: E731
        nan_dparam = lambda g, t: np.full((np.size(t), 2, 2), np.nan, dtype=complex)  # noqa: E731
        with pytest.raises(NumericalError, match="Hermiticity"):
            generator_integral(freq_model, 1.0, drive, grid, dparam=nan_dparam)

    def test_propagator_on_other_grid_rejected(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=4000)
        drive = lambda t: freq_model.hamiltonian(1.0, t)  # noqa: E731
        prop = propagate(drive, TimeGrid(t_end=3.0, steps=4000))
        with pytest.raises(ValueError, match="grid"):
            generator_integral(freq_model, 1.0, drive, grid, propagator=prop)


class TestGeneratorDerivative:
    def test_parameter_independent_drive(self, freq_model):
        grid = TimeGrid(t_end=1.0, steps=500)
        h_gen = generator_derivative(
            freq_model, 1.0, lambda g, t: freq_model.hamiltonian(1.0, t), grid
        )
        assert np.max(np.abs(h_gen)) <= 1e-9

    def test_matches_integral_form_without_control(self, freq_model):
        grid = TimeGrid(t_end=1.0, steps=2000)
        h_int = generator_integral(
            freq_model, 1.0, lambda t: freq_model.hamiltonian(1.0, t), grid
        )
        h_der = generator_derivative(freq_model, 1.0, freq_model.hamiltonian, grid)
        scale = np.linalg.norm(h_int)
        assert np.linalg.norm(h_der - h_int) <= 1e-5 * scale

    def test_time_independent_closed_form(self):
        model = linear_sx_model()
        grid = TimeGrid(t_end=3.0, steps=1500)
        h_gen = generator_derivative(model, 0.5, model.hamiltonian, grid)
        assert np.max(np.abs(h_gen - (-3.0 * SIGMA_X))) <= 1e-6

    def test_residual_diagnostic(self, freq_model):
        grid = TimeGrid(t_end=1.0, steps=1000)
        ((h_gen, residual),) = derivative_generators([freq_model.hamiltonian], 1.0, grid)
        assert residual <= 1e-8
        assert np.max(np.abs(h_gen - h_gen.conj().T)) == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_form_equivalence_random_models(self, dim):
        rng = np.random.default_rng(60 + dim)
        grid = TimeGrid(t_end=1.5, steps=1500)
        for _ in range(3):
            model = random_model(rng, dim)
            g = rng.uniform(0.2, 1.0)
            h_int = generator_integral(
                model, g, lambda t, _g=g: model.hamiltonian(_g, t), grid
            )
            h_der = generator_derivative(model, g, model.hamiltonian, grid)
            scale = max(1.0, np.linalg.norm(h_int))
            assert np.linalg.norm(h_der - h_int) <= 1e-5 * scale


class TestQFIQuantities:
    def test_maximal_zero_for_eigenvector(self):
        h_gen = -2.0 * SIGMA_Z
        assert maximal_qfi(h_gen, np.array([1.0, 0.0])) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
    def test_maximal_accepts_eigenstates_at_any_scale(self, scale):
        # <h^2> - <h>^2 on an eigenstate rounds at about eps * <h^2>, which
        # an absolute floor of -1e-12 rejects above unit scale.
        rng = np.random.default_rng(1)
        for _ in range(200):
            h_gen = scale * hermitize(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            _, vectors = eig_hermitian(h_gen)
            h_psi = h_gen @ vectors[:, 0]
            second = np.vdot(h_psi, h_psi).real
            assert abs(maximal_qfi(h_gen, vectors[:, 0])) <= 1e-12 * max(1.0, second)

    def test_maximal_equal_superposition_saturates_spread(self):
        rng = np.random.default_rng(8)
        h_gen = hermitize(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        spread_sq, psi_opt = optimal_qfi(h_gen)
        np.testing.assert_allclose(maximal_qfi(h_gen, psi_opt), spread_sq, rtol=1e-12)

    def test_maximal_direct_two_level_value(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(maximal_qfi(-2.0 * SIGMA_Z, psi) - 16.0) <= 1e-12

    def test_maximal_dimension_mismatch(self):
        with pytest.raises(DimMismatch):
            maximal_qfi(SIGMA_Z, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("h_gen, psi, error", [
        (np.full((2, 2), np.nan), [1.0, 0.0], InvalidMatrix),
        ([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0], InvalidMatrix),
        (SIGMA_Z, [1.0, 1.0], ValueError),
        (SIGMA_Z, [np.nan, 0.0], ValueError),
    ], ids=["nan-generator", "non-hermitian", "unnormalized", "nan-state"])
    def test_maximal_rejects_invalid_input(self, h_gen, psi, error):
        with pytest.raises(error):
            maximal_qfi(np.asarray(h_gen, dtype=complex), np.asarray(psi, dtype=complex))

    def test_optimal_zero_generator(self):
        value, _ = optimal_qfi(np.zeros((2, 2), dtype=complex))
        assert value == 0.0

    def test_optimal_controlled_saturates_bound(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid)
        value, _ = optimal_qfi(h_gen)
        assert abs(value - 16.0) <= 1e-8

    def test_optimal_no_control_long_time(self, freq_model):
        grid = TimeGrid(t_end=50.0, steps=20000)
        h_gen = generator_integral(
            freq_model, 1.0, lambda t: freq_model.hamiltonian(1.0, t), grid
        )
        value, _ = optimal_qfi(h_gen)
        assert abs(value / 2000.0 - 1.0) <= 0.05

    def test_upper_bound_frequency_model(self, freq_model):
        assert abs(upper_bound_qfi(freq_model, 1.0, TimeGrid(1.0, 500)) - 1.0) <= 1e-9
        model_b2 = make_rotating_qubit(RotatingFieldConfig(B=2.0, omega=0.7))
        assert abs(upper_bound_qfi(model_b2, 0.7, TimeGrid(3.0, 1500)) - 324.0) <= 1e-6

    @pytest.mark.parametrize("dparam_h", [
        np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex),
        np.array([[1.0, np.nan], [np.nan, -1.0]], dtype=complex),
    ], ids=["non-hermitian", "nan"])
    def test_upper_bound_rejects_invalid_derivative(self, dparam_h):
        # Without closed-form eigenvalues the gap comes from eigvalsh, which
        # reads one triangle and passes NaN through.
        model = ParametricModel(
            2,
            lambda g, t: g * np.broadcast_to(SIGMA_Z, np.shape(t) + (2, 2)),
            lambda g, t: np.broadcast_to(dparam_h, np.shape(t) + (2, 2)),
        )
        with pytest.raises(InvalidMatrix):
            upper_bound_qfi(model, 1.0, TimeGrid(t_end=1.0, steps=100))

    def test_upper_bound_amplitude_model(self):
        model = make_rotating_qubit(
            RotatingFieldConfig(B=1.0, omega=1.0, estimand=Estimand.AMPLITUDE)
        )
        grid = TimeGrid(t_end=2.5, steps=1000)
        assert abs(upper_bound_qfi(model, 1.0, grid) - (2.0 * 2.5) ** 2) <= 1e-9

    def test_hierarchy(self, freq_model):
        rng = np.random.default_rng(17)
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.02), grid)
        h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid)
        optimal, _ = optimal_qfi(h_gen)
        bound = upper_bound_qfi(freq_model, 1.0, grid)
        for _ in range(25):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            assert maximal_qfi(h_gen, psi) <= optimal * (1.0 + 1e-12) + 1e-12
        assert optimal <= bound * (1.0 + 1e-6)


class TestScaling:
    def test_t4_with_control(self, freq_model):
        ts = np.array([1.0, 2.0, 4.0, 8.0])
        values = []
        for t_end in ts:
            grid = TimeGrid(t_end=t_end, steps=int(1000 * t_end))
            drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
            h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid)
            values.append(optimal_qfi(h_gen)[0])
        slope = np.polyfit(np.log(ts), np.log(values), 1)[0]
        assert abs(slope - 4.0) <= 0.02

    def test_t2_without_control_long_time(self, freq_model):
        ts = np.array([12.5, 25.0, 50.0])
        values = []
        for t_end in ts:
            grid = TimeGrid(t_end=t_end, steps=int(400 * t_end))
            h_gen = generator_integral(
                freq_model, 1.0, lambda t: freq_model.hamiltonian(1.0, t), grid
            )
            values.append(optimal_qfi(h_gen)[0])
        slope = np.polyfit(np.log(ts), np.log(values), 1)[0]
        assert abs(slope - 2.0) <= 0.1

    def test_mismatch_quadratic_response_of_qfi(self, freq_model):
        # Quadratic coefficient of the controlled QFI in the mismatch.
        t_end = 2.0
        grid = TimeGrid(t_end=t_end, steps=2000)
        deltas = np.array([-0.01, -0.006, -0.002, 0.002, 0.006, 0.01]) / t_end
        values = []
        for delta in deltas:
            drive = build_controlled_drive(
                freq_model, 1.0, ControlConfig(g_c=1.0 + delta), grid
            )
            h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid)
            values.append(optimal_qfi(h_gen)[0])
        quad = np.polynomial.polynomial.polyfit(deltas, values, 2)[2]
        expected = -(t_end**6) / 18.0
        assert abs(quad / expected - 1.0) <= 0.02


class TestGeneratorReport:
    def test_integral_report(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        report = generator_report(freq_model, 1.0, drive.family, grid)
        assert abs(report.tau_max - 2.0) <= 1e-6
        assert abs(report.tau_min + 2.0) <= 1e-6
        assert abs(report.optimal_qfi - 16.0) <= 1e-6
        assert abs(report.upper_bound_qfi - 16.0) <= 1e-9

    @pytest.mark.parametrize(
        "b_field, t_end, delta, steps",
        [(1.0, 1.0, 0.0, 8000), (0.5, 3.0, 0.03, 3000), (2.0, 2.0, -0.05, 2000)],
    )
    def test_matches_separate_calls(self, b_field, t_end, delta, steps):
        # The ControlledQFI scenario reads its numbers from the report.
        model = make_rotating_qubit(RotatingFieldConfig(B=b_field, omega=1.0))
        grid = TimeGrid(t_end=t_end, steps=steps)
        drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0 + delta), grid)
        report = generator_report(model, 1.0, drive.family, grid)
        h_gen = generator_integral(model, 1.0, drive.hamiltonian, grid)
        assert np.array_equal(report.generator, h_gen)
        assert report.optimal_qfi == optimal_qfi(h_gen)[0]
        assert report.upper_bound_qfi == upper_bound_qfi(model, 1.0, grid)

    def test_inconsistent_report_rejected(self):
        with pytest.raises(NumericalError):
            GeneratorReport(
                generator=SIGMA_Z,
                tau_max=1.0,
                tau_min=-1.0,
                optimal_qfi=4.0,
                upper_bound_qfi=1.0,
            )

    @pytest.mark.parametrize("field, message", [
        ("tau_max", "tau_max < tau_min"),
        ("optimal_qfi", "inconsistent with eigenvalue spread"),
        ("upper_bound_qfi", "exceeds upper bound"),
    ], ids=["tau_max", "optimal_qfi", "upper_bound_qfi"])
    def test_nan_field_rejected(self, field, message):
        # A consistent report with one NaN, which each of the three checks
        # must catch in turn.
        values = dict(tau_max=1.0, tau_min=-1.0, optimal_qfi=4.0, upper_bound_qfi=4.0)
        values[field] = np.nan
        with pytest.raises(NumericalError, match=message):
            GeneratorReport(generator=SIGMA_Z, **values)
