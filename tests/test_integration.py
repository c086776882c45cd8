"""End-to-end runs of the numeric-only pipeline: callback models without
closed-form eigensystems, and a three-level family where the observable gains
a zero eigenvalue on the orthogonal complement."""

import numpy as np
import pytest

from qfisher import (
    ControlConfig,
    TimeGrid,
    adaptive_estimate,
    build_controlled_drive,
    build_observable,
    ParametricModel,
    evolve_state,
    generator_integral,
    maximal_qfi,
    optimal_qfi,
    propagate,
    spectral_gap_integral,
    track_eigenbasis,
    upper_bound_qfi,
)
from qfisher.operators import SIGMA_X, SIGMA_Z, exp_skew_batch, hermitize


def rotating_xz_callback_model(rate):
    """Two-level family g * [cos(rate t) sx + sin(rate t) sz] with scalar-only
    callbacks and no closed-form helpers: forces the numeric route."""

    def ham(g, t):
        return g * (np.cos(rate * t) * SIGMA_X + np.sin(rate * t) * SIGMA_Z)

    def dham(g, t):
        return np.cos(rate * t) * SIGMA_X + np.sin(rate * t) * SIGMA_Z

    return ParametricModel(2, ham, dham)


def three_level_model(seed=14):
    """Three-level family g * W(t) D W(t)^dag with a rigidly rotating
    eigenframe W(t) = exp(-i t A) and fixed spectrum D = (-1, 0.15, 1)."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a_gen = hermitize(raw)
    a_gen = 0.8 * a_gen / np.linalg.norm(a_gen)
    spectrum = np.diag([-1.0, 0.15, 1.0]).astype(complex)

    def dham(g, t):
        w_t = exp_skew_batch(a_gen[None], float(t))[0]
        return w_t @ spectrum @ w_t.conj().T

    def ham(g, t):
        return g * dham(g, t)

    return ParametricModel(3, ham, dham)


class TestNumericOnlyTwoLevel:
    def test_controlled_saturation(self):
        model = rotating_xz_callback_model(rate=0.9)
        grid = TimeGrid(t_end=1.5, steps=1200)
        drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0), grid)
        h_gen = generator_integral(model, 1.0, drive.hamiltonian, grid)
        qfi, _ = optimal_qfi(h_gen)
        bound = upper_bound_qfi(model, 1.0, grid)
        assert abs(bound - (2.0 * 1.5) ** 2) <= 1e-9
        assert abs(qfi / bound - 1.0) <= 1e-4

    def test_adaptive_estimation(self):
        model = rotating_xz_callback_model(rate=0.9)
        grid = TimeGrid(t_end=1.5, steps=800)
        trace = adaptive_estimate(
            model, g_true=1.0, g_c0=1.2, rounds=2, shots_per_round=4000,
            grid=grid, rng_seed=31,
        )
        gamma = trace.gap_integral
        assert abs(gamma - 3.0) <= 1e-9
        assert abs(trace.final_estimate - 1.0) <= 5.0 / (np.sqrt(4000) * gamma)


@pytest.fixture(scope="module")
def three_level_setup():
    model = three_level_model()
    grid = TimeGrid(t_end=1.2, steps=900)
    basis = track_eigenbasis(model, 1.0, grid)
    return model, grid, basis


class TestThreeLevel:
    def test_tracked_branches_are_constant(self, three_level_setup):
        _, _, basis = three_level_setup
        np.testing.assert_allclose(
            basis.values, np.tile([-1.0, 0.15, 1.0], (basis.values.shape[0], 1)),
            atol=1e-9,
        )

    def test_transitionless_driving_all_branches(self, three_level_setup):
        model, grid, basis = three_level_setup
        from qfisher import synthesize_cd

        cd = synthesize_cd(basis)
        prop = propagate(cd, grid)
        for k in range(3):
            traj = evolve_state(prop, basis.vectors[0, :, k])
            overlaps = np.abs(
                np.einsum("ni,ni->n", basis.vectors[:, :, k].conj(), traj)
            )
            assert np.min(overlaps) >= 1.0 - 1e-4

    def test_controlled_saturation(self, three_level_setup):
        model, grid, _ = three_level_setup
        drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0), grid)
        h_gen = generator_integral(model, 1.0, drive.hamiltonian, grid)
        qfi, psi_opt = optimal_qfi(h_gen)
        bound = upper_bound_qfi(model, 1.0, grid)
        assert abs(bound - (2.0 * 1.2) ** 2) <= 1e-9
        assert abs(qfi / bound - 1.0) <= 1e-3
        assert abs(maximal_qfi(h_gen, psi_opt) / bound - 1.0) <= 1e-3

    def test_observable_spectrum_with_complement_zero(self, three_level_setup):
        model, grid, _ = three_level_setup
        drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0), grid)
        setup_obs = build_observable(drive.basis)
        values = np.linalg.eigvalsh(setup_obs.observable)
        np.testing.assert_allclose(values, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_adaptive_estimation_three_level(self, three_level_setup):
        model, grid, _ = three_level_setup
        trace = adaptive_estimate(
            model, g_true=0.8, g_c0=0.9, rounds=2, shots_per_round=4000,
            grid=grid, rng_seed=19,
        )
        gamma = spectral_gap_integral(model, 0.9, grid)
        assert abs(trace.final_estimate - 0.8) <= 5.0 / (np.sqrt(4000) * gamma)
