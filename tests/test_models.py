"""Tests for the rotating-field qubit family and generic callback-defined
ParametricModel instances."""

import numpy as np
import pytest

from qfisher import (
    Estimand,
    InvalidConfig,
    NotImplementedForEstimand,
    ParametricModel,
    RotatingFieldConfig,
    analytic_cd_qubit,
    eig_hermitian,
    make_rotating_qubit,
)
from qfisher.operators import SIGMA_Y, hermiticity_defect


def finite_difference_d_param_h(model, g, t):
    """Central finite difference of the Hamiltonian in the parameter, used to
    cross-check a model's supplied derivative."""
    h = 1e-6 * max(1.0, abs(g))
    hi = np.asarray(model.hamiltonian(g + h, t), dtype=complex)
    lo = np.asarray(model.hamiltonian(g - h, t), dtype=complex)
    return (hi - lo) / (2.0 * h)


@pytest.fixture(scope="module")
def freq_model():
    return make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))


@pytest.fixture(scope="module")
def amp_model():
    return make_rotating_qubit(
        RotatingFieldConfig(B=1.0, omega=1.0, estimand=Estimand.AMPLITUDE)
    )


class TestRotatingQubit:
    def test_invalid_amplitude_rejected(self):
        with pytest.raises(InvalidConfig):
            RotatingFieldConfig(B=0.0, omega=1.0)
        with pytest.raises(InvalidConfig):
            RotatingFieldConfig(B=-1.0, omega=1.0)

    def test_derivative_vanishes_at_t0(self, freq_model):
        np.testing.assert_allclose(
            freq_model.d_param_h(1.0, 0.0), np.zeros((2, 2)), atol=1e-15
        )

    def test_frequency_derivative_eigenvalues(self, freq_model):
        rng = np.random.default_rng(1)
        for _ in range(50):
            omega = rng.uniform(-3.0, 3.0)
            t = rng.uniform(0.01, 10.0)
            values = np.linalg.eigvalsh(freq_model.d_param_h(omega, t))
            np.testing.assert_allclose(values, [-t, t], atol=1e-12)

    def test_amplitude_derivative_eigenvalues(self, amp_model):
        rng = np.random.default_rng(2)
        for _ in range(50):
            b = rng.uniform(0.1, 3.0)
            t = rng.uniform(0.0, 10.0)
            values = np.linalg.eigvalsh(amp_model.d_param_h(b, t))
            np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("estimand", [Estimand.FREQUENCY, Estimand.AMPLITUDE])
    def test_hamiltonian_hermitian(self, estimand):
        model = make_rotating_qubit(
            RotatingFieldConfig(B=1.3, omega=0.7, estimand=estimand)
        )
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = rng.uniform(0.2, 2.0)
            t = rng.uniform(0.0, 8.0)
            assert hermiticity_defect(model.hamiltonian(g, t)) <= 1e-12

    def test_spectrum_constancy(self, freq_model):
        # The drive never widens its own gap: eigenvalues are +-B for all t.
        ts = np.linspace(0.0, 20.0, 400)
        mats = freq_model.hamiltonian(1.0, ts)
        values = np.linalg.eigvalsh(mats)
        assert np.max(np.abs(values[:, 0] + 1.0)) <= 1e-10
        assert np.max(np.abs(values[:, 1] - 1.0)) <= 1e-10

    @pytest.mark.parametrize("estimand", [Estimand.FREQUENCY, Estimand.AMPLITUDE])
    def test_derivative_matches_finite_difference(self, estimand):
        model = make_rotating_qubit(
            RotatingFieldConfig(B=0.9, omega=1.4, estimand=estimand)
        )
        rng = np.random.default_rng(4)
        for _ in range(40):
            g = rng.uniform(0.3, 2.0)
            t = rng.uniform(0.0, 6.0)
            fd = finite_difference_d_param_h(model, g, t)
            an = model.d_param_h(g, t)
            scale = max(1.0, np.max(np.abs(an)))
            assert np.max(np.abs(fd - an)) <= 1e-5 * scale

    def test_batch_scalar_consistency(self, freq_model):
        ts = np.linspace(0.0, 5.0, 17)
        batch_h = freq_model.hamiltonian(0.8, ts)
        batch_d = freq_model.d_param_h(0.8, ts)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(batch_h[i], freq_model.hamiltonian(0.8, t))
            np.testing.assert_allclose(batch_d[i], freq_model.d_param_h(0.8, t))


class TestAnalyticEigensystem:
    @pytest.mark.parametrize("estimand", [Estimand.FREQUENCY, Estimand.AMPLITUDE])
    def test_matches_numeric_eigensystem(self, estimand):
        model = make_rotating_qubit(
            RotatingFieldConfig(B=1.0, omega=1.0, estimand=estimand)
        )
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.uniform(0.3, 2.5)
            ts = rng.uniform(0.01, 12.0, size=20)
            values, vectors = model.analytic_eigs_of_dparamh(g, ts)
            assert values.shape == (20, 2) and vectors.shape == (20, 2, 2)
            for value, vector, mat in zip(values, vectors, model.d_param_h(g, ts)):
                numeric_values, numeric_vectors = eig_hermitian(mat)
                np.testing.assert_allclose(value, numeric_values, atol=1e-10)
                # Same one-dimensional eigenspaces up to gauge.
                for k in range(2):
                    assert abs(np.vdot(vector[:, k], numeric_vectors[:, k])) >= 1.0 - 1e-10

    @pytest.mark.parametrize("estimand", [Estimand.FREQUENCY, Estimand.AMPLITUDE])
    def test_parallel_transport_compatible(self, estimand):
        # Real smooth half-angle vectors: <v|dv/dt> must vanish.
        model = make_rotating_qubit(
            RotatingFieldConfig(B=1.0, omega=1.3, estimand=estimand)
        )
        dt = 1e-6
        for t in (0.5, 1.7, 4.4):
            _, (v_lo, v, v_hi) = model.analytic_eigs_of_dparamh(1.3, np.array([t - dt, t, t + dt]))
            dv = (v_hi - v_lo) / (2 * dt)
            for k in range(2):
                assert abs(np.vdot(v[:, k], dv[:, k])) <= 1e-6

    def test_smooth_through_degenerate_origin(self):
        model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))
        _, (v0, v1) = model.analytic_eigs_of_dparamh(1.0, np.array([0.0, 1e-7]))
        assert np.max(np.abs(v0 - v1)) <= 1e-6


class TestAnalyticControl:
    def test_closed_form_value(self):
        cfg = RotatingFieldConfig(B=1.0, omega=1.0)
        np.testing.assert_allclose(analytic_cd_qubit(cfg), -0.5 * SIGMA_Y, atol=1e-15)

    def test_zero_frequency_gives_zero(self):
        cfg = RotatingFieldConfig(B=1.0, omega=0.0)
        np.testing.assert_allclose(analytic_cd_qubit(cfg), np.zeros((2, 2)), atol=1e-15)

    def test_matches_numeric_synthesis(self):
        from qfisher import TimeGrid, track_eigenbasis, synthesize_cd

        cfg = RotatingFieldConfig(B=1.0, omega=2.0)
        model = make_rotating_qubit(cfg)
        grid = TimeGrid(t_end=2.0, steps=16000)
        numeric = synthesize_cd(track_eigenbasis(model, 2.0, grid))
        target = analytic_cd_qubit(cfg)
        assert np.max(np.abs(numeric.matrices - target)) <= 1e-8

    def test_amplitude_estimand_rejected(self):
        cfg = RotatingFieldConfig(B=1.0, omega=1.0, estimand=Estimand.AMPLITUDE)
        with pytest.raises(NotImplementedForEstimand):
            analytic_cd_qubit(cfg)


def test_callback_model_roundtrip():
    def ham(g, t):
        return np.array([[g, 0.3 * t], [0.3 * t, -g]], dtype=complex)

    def dham(g, t):
        return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

    model = ParametricModel(2, ham, dham)
    assert model.dim == 2
    fd = finite_difference_d_param_h(model, 0.7, 1.2)
    np.testing.assert_allclose(fd, dham(0.7, 1.2), atol=1e-9)
