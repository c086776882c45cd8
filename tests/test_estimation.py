"""Tests for the measurement protocol and the adaptive estimation loop."""

import json

import numpy as np
import pytest

from qfisher import (
    AmbiguousPhase,
    BasisError,
    ControlConfig,
    NumericalError,
    RotatingFieldConfig,
    StatisticsError,
    TimeGrid,
    adaptive_estimate,
    born_probabilities,
    build_controlled_drive,
    build_observable,
    expected_statistics,
    make_rotating_qubit,
    propagate,
    sample_shots,
    spectral_gap_integral,
    track_eigenbasis,
)
from qfisher.control import TrackedBasis
from qfisher.estimation import _invert_mean
from qfisher.operators import SIGMA_X


@pytest.fixture(scope="module")
def freq_model():
    return make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))


def static_basis(grid, phases=None):
    """TrackedBasis whose branches are the coordinate axes at all times."""
    n = grid.steps + 1
    values = np.tile(np.array([-1.0, 1.0]), (n, 1))
    vectors = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    ph = np.zeros((n, 2)) if phases is None else np.tile(phases, (n, 1))
    return TrackedBasis(grid=grid, values=values, vectors=vectors, phases=ph)


class TestBuildObservable:
    def test_static_basis_gives_sigma_x(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid))
        np.testing.assert_allclose(setup.observable, SIGMA_X, atol=1e-14)

    def test_pi_phase_flips_sign(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid), phases=(np.pi, 0.0))
        np.testing.assert_allclose(setup.observable, -SIGMA_X, atol=1e-14)

    def test_spectrum_plus_minus_one(self, freq_model):
        grid = TimeGrid(t_end=4.0 * np.pi, steps=2000)
        basis = track_eigenbasis(freq_model, 1.0, grid)
        setup = build_observable(basis)
        values = np.linalg.eigvalsh(setup.observable)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-10)
        square = setup.observable @ setup.observable
        assert np.max(np.abs(square - np.eye(2))) <= 1e-10

    def test_nonorthogonal_basis_rejected(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        basis = static_basis(grid)
        vectors = basis.vectors.copy()
        vectors[:, :, 1] = vectors[:, :, 0]
        broken = TrackedBasis(
            grid=grid, values=basis.values, vectors=vectors, phases=basis.phases
        )
        with pytest.raises(BasisError):
            build_observable(broken)


class TestExpectedStatistics:
    def test_zero_offset(self):
        mean, variance = expected_statistics(0.0, 4.0)
        assert mean == 1.0 and variance == 0.0

    def test_trigonometric_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = rng.uniform(-0.5, 0.5)
            gamma = rng.uniform(0.5, 10.0)
            mean, variance = expected_statistics(delta, gamma)
            assert abs(mean * mean + variance - 1.0) <= 1e-12

    def test_gap_integral_validation(self):
        with pytest.raises(ValueError):
            expected_statistics(0.1, 0.0)

    def test_full_simulation_cross_check(self, freq_model):
        # Leading-order statistics vs the full Born-rule simulation; the
        # deviation is bounded by the next order in offset * duration.
        t_end = 2.0
        grid = TimeGrid(t_end=t_end, steps=2000)
        gamma = spectral_gap_integral(freq_model, 1.0, grid)
        assert abs(gamma - 4.0) <= 1e-12
        for delta in (0.02, 0.1, 0.15):
            drive = build_controlled_drive(
                freq_model, 1.0, ControlConfig(g_c=1.0 - delta), grid
            )
            psi0 = (
                drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, 1]
            ) / np.sqrt(2.0)
            psi_final = propagate(drive.hamiltonian, grid).final @ psi0
            setup = build_observable(drive.basis)
            p_plus, p_minus, _ = born_probabilities(psi_final, setup)
            mean, _ = expected_statistics(delta, gamma)
            assert abs((p_plus - p_minus) - mean) <= delta**3 * t_end

    def test_rotating_model_reference_value(self, freq_model):
        mean, variance = expected_statistics(0.1, 4.0)
        assert abs(mean - np.cos(0.4)) <= 1e-15
        assert abs(mean - 0.92106) <= 1e-5
        assert abs(variance - np.sin(0.4) ** 2) <= 1e-15


class TestSampleShots:
    def test_plus_state_all_plus_one(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid), shots=500)
        outcomes = sample_shots(setup.plus_state, setup, rng=1)
        assert np.all(outcomes == 1)

    def test_balanced_state_concentration(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        n_shots = 10**6
        setup = build_observable(static_basis(grid), shots=n_shots)
        psi = np.array([1.0, 0.0], dtype=complex)  # p+ = p- = 1/2
        outcomes = sample_shots(psi, setup, rng=123)
        assert abs(np.mean(outcomes)) <= 4.0 / np.sqrt(n_shots)

    def test_zero_offset_controlled_run(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
        psi0 = (drive.basis.vectors[0, :, 0] + drive.basis.vectors[0, :, 1]) / np.sqrt(2)
        psi_final = propagate(drive.hamiltonian, grid).final @ psi0
        setup = build_observable(drive.basis, shots=2000)
        outcomes = sample_shots(psi_final, setup, rng=7)
        assert np.all(outcomes == 1)

    def test_deterministic_given_seed(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid), shots=1000)
        psi = np.array([0.8, 0.6], dtype=complex)
        a = sample_shots(psi, setup, rng=99)
        b = sample_shots(psi, setup, rng=99)
        assert np.array_equal(a, b)

    def test_invalid_state_rejected(self):
        grid = TimeGrid(t_end=1.0, steps=10)
        setup = build_observable(static_basis(grid), shots=10)
        with pytest.raises(NumericalError):
            born_probabilities(np.array([2.0, 0.0], dtype=complex), setup)


class TestInversion:
    def test_exact_arccos_inversion(self):
        mean, _ = expected_statistics(0.1, 4.0)
        assert abs(_invert_mean(mean, 4.0) - 0.1) <= 1e-12

    def test_clamping_tolerance(self):
        assert _invert_mean(1.0 + 1e-12, 4.0) == 0.0
        with pytest.raises(StatisticsError):
            _invert_mean(1.5, 4.0)


class TestAdaptiveEstimate:
    def test_stays_put_at_true_value(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        n_shots = 10**4
        trace = adaptive_estimate(
            freq_model, 1.0, 1.0, rounds=3, shots_per_round=n_shots, grid=grid,
            rng_seed=5,
        )
        noise = 1.0 / (np.sqrt(n_shots) * trace.gap_integral)
        assert abs(trace.final_estimate - 1.0) <= 3.0 * noise

    def test_converges_and_meets_crb_budget(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        trace = adaptive_estimate(
            freq_model, 1.0, 1.05, rounds=5, shots_per_round=10**4, grid=grid,
            rng_seed=1000,
        )
        err = abs(trace.final_estimate - 1.0)
        assert err < 0.05
        assert err**2 <= 3.0 * trace.crb_variance
        errors = [abs(r.updated_g_c - 1.0) for r in trace.rounds]
        assert errors[-1] <= errors[0]

    def test_sign_resolution_both_directions(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=2000)
        for g_c0, seed in ((1.05, 11), (0.95, 12)):
            trace = adaptive_estimate(
                freq_model, 1.0, g_c0, rounds=2, shots_per_round=10**4, grid=grid,
                rng_seed=seed,
            )
            assert trace.rounds[0].sign == (-1 if g_c0 > 1.0 else 1)
            assert abs(trace.rounds[0].raw_estimate - 1.0) < 0.01

    def test_reproducible_trace(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        kwargs = dict(rounds=3, shots_per_round=5000, grid=grid, rng_seed=21)
        a = adaptive_estimate(freq_model, 1.0, 1.04, **kwargs)
        b = adaptive_estimate(freq_model, 1.0, 1.04, **kwargs)
        assert a.to_json() == b.to_json()
        assert a.final_estimate == b.final_estimate

    def test_trace_json_roundtrip(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        trace = adaptive_estimate(
            freq_model, 1.0, 1.02, rounds=2, shots_per_round=2000, grid=grid,
            rng_seed=3,
        )
        payload = json.loads(trace.to_json())
        assert payload["seed"] == 3
        assert len(payload["rounds"]) == 2
        assert payload["rounds"][0]["main_shots"] == 2000

    def test_ambiguous_window_rejected(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        with pytest.raises(AmbiguousPhase):
            adaptive_estimate(
                freq_model, 1.0, 2.0, rounds=1, shots_per_round=100, grid=grid,
                rng_seed=0,
            )

    def test_shot_accounting(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        trace = adaptive_estimate(
            freq_model, 1.0, 1.05, rounds=2, shots_per_round=4000, grid=grid,
            rng_seed=8,
        )
        assert trace.total_main_shots == 8000
        probes = sum(r.probe_shots for r in trace.rounds)
        assert trace.total_probe_shots == probes
        assert trace.upper_bound_qfi == trace.gap_integral**2
