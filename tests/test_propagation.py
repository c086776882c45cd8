"""Tests for the midpoint-exponential propagator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfisher import (
    ControlConfig,
    DimMismatch,
    InvalidMatrix,
    RotatingFieldConfig,
    StepTooCoarse,
    TimeGrid,
    build_controlled_drive,
    evolve_state,
    generator_derivative,
    make_rotating_qubit,
    propagate,
)
from qfisher import propagation
from qfisher.operators import (
    IDENTITY_2,
    SIGMA_X,
    exp_skew_batch,
    frobenius,
    hermitize,
    unitarity_defect,
)
from qfisher.propagation import (
    default_steps,
    eval_hamiltonian_batch,
    final_unitaries,
    propagate_batch,
)


def zero_h(t):
    if np.isscalar(t) or np.ndim(t) == 0:
        return np.zeros((2, 2), dtype=complex)
    return np.zeros((np.asarray(t).shape[0], 2, 2), dtype=complex)


def constant_minus_sx(t):
    mat = -SIGMA_X
    if np.isscalar(t) or np.ndim(t) == 0:
        return mat
    return np.broadcast_to(mat, (np.asarray(t).shape[0], 2, 2)).copy()


def reference_unitaries(h_of_t, grid):
    """U(0 -> t_i) by the per-drive step loop, one drive at a time: the
    reference for the batched step loop."""
    step_unitaries = exp_skew_batch(eval_hamiltonian_batch(h_of_t, grid.midpoints), grid.dt)
    dim = step_unitaries.shape[-1]
    unitaries = np.empty((grid.steps + 1, dim, dim), dtype=complex)
    unitaries[0] = np.eye(dim, dtype=complex)
    acc = unitaries[0]
    for i in range(grid.steps):
        acc = step_unitaries[i] @ acc
        unitaries[i + 1] = acc
    return unitaries


def random_hermitian(rng, dim, norm):
    """Hermitian matrix of spectral norm ``norm``."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = a + a.conj().T
    return a * (norm / np.max(np.abs(np.linalg.eigvalsh(a))))


def random_family(rng, dim):
    """Family H(g, t) = g A + cos(w t) B, vectorized in t; ||H|| < 1.8 for
    g <= 1.1, so ||H|| dt stays below 0.01 from 180 steps per unit time."""
    a, b = random_hermitian(rng, dim, 0.8), random_hermitian(rng, dim, 0.9)
    w = rng.uniform(0.5, 3.0)

    def family(g, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        mats = g * a + np.cos(w * ts)[:, None, None] * b
        return mats[0] if np.ndim(t) == 0 else mats

    return family


def scaled(h_of_t, factor):
    return lambda t: factor * h_of_t(t)


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


class TestBatchedStepLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        batch=st.sampled_from([1, 2, 3, 6]),
        steps=st.integers(180, 300),
    )
    def test_matches_per_drive_loop(self, seed, dim, batch, steps):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(t_end=1.0, steps=steps)
        gs = rng.uniform(0.9, 1.1, size=batch)
        families = [random_family(rng, dim) for _ in range(batch)]
        drives = [lambda t, f=f, g=g: f(g, t) for f, g in zip(families, gs)]
        references = [reference_unitaries(h, grid) for h in drives]

        stacks = propagate_batch(drives, grid)
        finals = final_unitaries(drives, grid)
        assert finals.shape == (batch, dim, dim)
        for k, reference in enumerate(references):
            assert np.array_equal(stacks[k].unitaries, reference)
            assert np.array_equal(finals[k], reference[-1])
            assert np.array_equal(propagate(drives[k], grid).unitaries, reference)

        # The derivative form against three separate single-drive propagations.
        family, g = families[0], float(gs[0])
        eps = 1e-5 * max(1.0, abs(g))
        u_mid, u_hi, u_lo = (
            propagate(lambda t, gv=gv: family(gv, t), grid).final
            for gv in (g, g + eps, g - eps)
        )
        raw = 1j * (u_mid.conj().T @ ((u_hi - u_lo) / (2.0 * eps)))
        h_gen, residual = generator_derivative(None, g, family, grid, return_residual=True)
        assert np.array_equal(h_gen, hermitize(raw))
        assert residual == frobenius(0.5 * (raw - raw.conj().T))

    @pytest.mark.parametrize("batched", [final_unitaries, propagate_batch])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (lambda t: np.full((np.size(t), 2, 2), np.nan, dtype=complex), InvalidMatrix),
            (lambda t: np.broadcast_to(np.triu(np.ones((2, 2))), (np.size(t), 2, 2)).copy(),
             InvalidMatrix),
            (scaled(constant_minus_sx, 60.0), StepTooCoarse),
        ],
        ids=["nan", "non-hermitian", "too-coarse"],
    )
    def test_invalid_drive_in_batch_raises_as_alone(self, batched, bad, error):
        grid = TimeGrid(t_end=1.0, steps=400)
        with pytest.raises(error) as alone:
            propagate(bad, grid)
        with pytest.raises(error) as in_batch:
            batched([constant_minus_sx, bad, zero_h], grid)
        assert str(in_batch.value) == str(alone.value)

    @pytest.mark.parametrize("run", [
        lambda drives, grid: propagate(drives[1], grid),
        final_unitaries,
        propagate_batch,
    ], ids=["propagate", "final_unitaries", "propagate_batch"])
    def test_coarse_step_warning_names_caller(self, run):
        # ||H|| dt = 5 / 200: above the recommended 0.01, below the limit.
        grid = TimeGrid(t_end=1.0, steps=200)
        with pytest.warns(UserWarning, match="above recommended") as record:
            run([zero_h, scaled(constant_minus_sx, 5.0), zero_h], grid)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("batched", [final_unitaries, propagate_batch])
    def test_mismatched_dimensions_rejected(self, batched):
        def qutrit_zero(t):
            return np.zeros((np.size(t), 3, 3), dtype=complex)

        with pytest.raises(DimMismatch):
            batched([zero_h, qutrit_zero], TimeGrid(t_end=1.0, steps=10))

    @pytest.mark.parametrize("keep_all", [True, False])
    def test_single_drive_holds_no_copy_of_the_steps(self, monkeypatch, keep_all):
        # From the start of the step loop on, a single drive holds its step
        # stack and the output only: the evaluated midpoint Hamiltonians are
        # freed, and the stack enters the loop as a view, never as a copy.
        grid = TimeGrid(t_end=1.0, steps=20000)
        slack = grid.midpoints.nbytes
        step_stack = grid.steps * 4 * 16
        output = (grid.steps + 1) * 4 * 16 if keep_all else 0
        loop = propagation._cumulative_product
        at_loop = []

        def traced_loop(*args, **kwargs):
            at_loop.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return loop(*args, **kwargs)

        monkeypatch.setattr(propagation, "_cumulative_product", traced_loop)
        run = propagate if keep_all else (lambda h, g: final_unitaries([h], g))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(constant_minus_sx, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(at_loop) == 1
        assert at_loop[0] - before <= step_stack + slack
        assert peak - before <= step_stack + output + slack
