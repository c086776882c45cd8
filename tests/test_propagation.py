"""Tests for the midpoint-exponential propagator."""

import contextlib
import dataclasses
import itertools
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfisher import (
    ControlConfig,
    DimMismatch,
    InvalidMatrix,
    ParametricModel,
    RotatingFieldConfig,
    StepTooCoarse,
    TimeGrid,
    adaptive_estimate,
    appendix_a_distinction,
    build_controlled_drive,
    evolve_state,
    expand_generator,
    fisher_invariance_check,
    generator_derivative,
    generator_integral,
    generator_report,
    make_rotating_qubit,
    propagate,
    sigma_y_removal_frame,
    spectral_gap_integral,
)
from qfisher import frames, operators, propagation
from qfisher.fisher import _generator_integrals, derivative_generators
from qfisher.operators import (
    IDENTITY_2,
    SIGMA_X,
    exp_skew_batch,
    frobenius,
    hermitize,
    pauli_components,
    unitarity_defect,
)
from qfisher.propagation import (
    STEP_LIMIT,
    STEP_RECOMMENDED,
    Propagator,
    eval_hamiltonian_batch,
    final_unitaries,
)


def run_keep_all(drives, grid):
    """U at every point of each drive on one grid, from one ``_run`` group."""
    (stack,) = propagation._run([(drives, grid, propagation._every_point(grid))])
    return list(stack.swapaxes(0, 1))


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


def reference_step_stack(drives, grid):
    """Validated step unitaries of every drive over the whole grid, shape
    (steps, b, d, d): the full-stack path that the streamed blocks replace,
    kept as their reference."""
    stack = None
    for k, h_of_t in enumerate(drives):
        mids = eval_hamiltonian_batch(h_of_t, grid.midpoints)
        if not np.all(np.isfinite(mids.view(float))):
            raise InvalidMatrix("Hamiltonian evaluation produced non-finite entries")
        defect = np.max(np.abs(mids - mids.conj().transpose(0, 2, 1)))
        if defect > 1e-8:
            raise InvalidMatrix(
                f"Hamiltonian callback is not Hermitian (max defect {defect:.3e})"
            )
        if mids.shape[-1] == 2:
            # |c_I| + |c_vec| bounds the 2x2 spectrum exactly.
            c0, cx, cy, cz = pauli_components(mids)
            norms = np.abs(c0) + np.sqrt(cx * cx + cy * cy + cz * cz)
        else:
            norms = np.max(np.abs(np.linalg.eigvalsh(mids)), axis=-1)
        h_dt = float(np.max(norms)) * grid.dt
        if h_dt > STEP_LIMIT:
            raise StepTooCoarse(
                f"max ||H||*dt = {h_dt:.3g} exceeds {STEP_LIMIT}; increase steps"
            )
        if h_dt > STEP_RECOMMENDED:
            warnings.warn(
                f"max ||H||*dt = {h_dt:.3g} above recommended {STEP_RECOMMENDED}",
                stacklevel=2,
            )
        steps = exp_skew_batch(mids, grid.dt)
        if stack is None:
            stack = np.empty((grid.steps, len(drives)) + steps.shape[1:], dtype=complex)
        elif steps.shape[1:] != stack.shape[2:]:
            raise DimMismatch(
                f"drive {k} has {steps.shape[1:]} matrices, drive 0 has {stack.shape[2:]}"
            )
        stack[:, k] = steps
    return stack


def reference_cumulative_product(steps, keep_all):
    """Running products of a full (steps, b, d, d) step stack: every point,
    or only the finals."""
    n, b, dim, _ = steps.shape
    buffers = np.empty((n + 1 if keep_all else 2, b, dim, dim), dtype=complex)
    buffers[0] = np.eye(dim, dtype=complex)
    acc = buffers[0]
    targets = buffers[1:] if keep_all else itertools.cycle((buffers[1], buffers[0]))
    for step, target in zip(steps, targets):
        np.matmul(step, acc, out=target)
        acc = target
    return buffers if keep_all else acc


def reference_generator_integral(d_param_h, grid, unitaries):
    """np.trapezoid over the full sandwich stack U^dag dH/dg U, formed as
    ``operators.sandwich`` forms it: the einsum at d = 2, U^dag (dH U) in
    stacked matrix products otherwise."""
    dh = eval_hamiltonian_batch(d_param_h, grid.points)
    if unitaries.shape[-1] == 2:
        sandwich = np.einsum("nji,njk,nkl->nil", unitaries.conj(), dh, unitaries)
    else:
        sandwich = np.swapaxes(unitaries, -2, -1).conj() @ (dh @ unitaries)
    return hermitize(np.trapezoid(sandwich, x=grid.points, axis=0))


def reference_gap_integral(gaps_of, grid):
    values = gaps_of(grid.points)
    return float(np.trapezoid(values[:, -1] - values[:, 0], x=grid.points))


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


def random_model(rng, dim):
    """ParametricModel H(g, t) = g f(t) A + cos(w t) B with f(t) =
    1 + cos(v t) / 2, vectorized in t; ||H|| < 1.8 for g <= 1.1. dH/dg =
    f(t) A, whose eigensystem f(t) eigh(A) is supplied as the closed form."""
    a, b = random_hermitian(rng, dim, 0.5), random_hermitian(rng, dim, 0.9)
    w, v = rng.uniform(0.5, 3.0, size=2)
    lam, vecs = np.linalg.eigh(a)

    def stacked(mats_of):
        def h(g, t):
            ts = np.atleast_1d(np.asarray(t, dtype=float))
            mats = mats_of(g, ts)
            return mats[0] if np.ndim(t) == 0 else mats
        return h

    def f(ts):
        return (1.0 + 0.5 * np.cos(v * ts))[:, None, None]

    def eigs(g, ts):
        return f(ts)[:, 0] * lam, np.broadcast_to(vecs, ts.shape + (dim, dim))

    return ParametricModel(
        dim=dim,
        hamiltonian=stacked(lambda g, ts: g * f(ts) * a + np.cos(w * ts)[:, None, None] * b),
        d_param_h=stacked(lambda g, ts: f(ts) * a),
        analytic_eigs_of_dparamh=eigs,
    )


def window(bad_h, start, stop=np.inf):
    """bad_h for start < t < stop, zero_h elsewhere."""
    def h(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        inside = ((ts > start) & (ts < stop))[:, None, None]
        return np.where(inside, bad_h(ts), zero_h(ts))
    return h


def filled(value):
    return lambda t: np.full((np.size(t), 2, 2), value, dtype=complex)


def upper_triangular(t):
    return np.broadcast_to(np.triu(np.ones((2, 2))), (np.size(t), 2, 2)).copy()


def scaled(h_of_t, factor):
    return lambda t: factor * h_of_t(t)


def embedded(h_of_t, dim):
    """h_of_t's 2x2 matrices in the top-left corner of dim x dim zeros."""
    def h(t):
        small = h_of_t(t)
        mats = np.zeros(small.shape[:-2] + (dim, dim), dtype=complex)
        mats[..., :2, :2] = small
        return mats
    return h


@st.composite
def grid_cuts(draw):
    """(t_end, steps, start, stop) with 0 <= start <= stop <= steps + 1;
    t_end is normal or subnormal."""
    t_end = draw(st.one_of(
        st.floats(1e-6, 1e6),
        st.floats(5e-324, 1e-300, allow_subnormal=True),
    ))
    steps = draw(st.integers(1, 5000))
    start = draw(st.integers(0, steps + 1))
    return t_end, steps, start, draw(st.integers(start, steps + 1))


@pytest.fixture(scope="module")
def rotating_drive():
    model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))
    return lambda t: model.hamiltonian(1.0, t)


class TestTimeGrid:
    def test_points(self):
        grid = TimeGrid(t_end=2.0, steps=4)
        np.testing.assert_allclose(grid.points, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.points[0] == 0.0 and grid.points[-1] == 2.0

    @settings(max_examples=200, deadline=None)
    @given(cut=grid_cuts())
    @example(cut=(1.0, 1, 0, 2))  # one step
    @example(cut=(0.1, 11, 9, 12))  # a cut that ends at the last point, 11 * dt != 0.1
    @example(cut=(5e-324, 3, 1, 4))  # t_end / steps underflows to zero
    def test_block_times_are_linspace_bytes(self, cut):
        t_end, steps, start, stop = cut
        grid = TimeGrid(t_end=t_end, steps=steps)
        points = np.linspace(0.0, t_end, steps + 1)
        midpoints = points[:-1] + 0.5 * grid.dt
        assert grid._points(start, stop).tobytes() == points[start:stop].tobytes()
        block_mids = grid._midpoints(start, min(stop, steps))
        assert block_mids.tobytes() == midpoints[start:stop].tobytes()
        assert grid.points.tobytes() == points.tobytes()
        assert grid.midpoints.tobytes() == midpoints.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=0.0, steps=10)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, steps=0)

    # A bool is an int to isinstance, and np.True_ is none: both are rejected.
    @pytest.mark.parametrize("steps", [10.5, 2e4, 10.0, True, np.True_, False])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(t_end=1.0, steps=steps)

    def test_numpy_integer_steps(self):
        grid = TimeGrid(t_end=1.0, steps=np.int64(4))
        assert grid.points.tobytes() == TimeGrid(t_end=1.0, steps=4).points.tobytes()


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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_strided_stack_propagates_as_its_contiguous_twin(self, dim):
        # The same matrices with a last axis that is not contiguous.
        model = random_model(np.random.default_rng(dim), dim)

        def contiguous(t):
            return model.hamiltonian(1.0, t)

        def strided(t):
            mats = contiguous(t)
            return np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)

        grid = TimeGrid(t_end=1.0, steps=300)
        assert not strided(grid.midpoints).flags.c_contiguous
        twin = propagate(contiguous, grid).unitaries
        assert np.array_equal(propagate(strided, grid).unitaries, twin)


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

    def test_nan_state_rejected(self):
        prop = propagate(zero_h, TimeGrid(t_end=1.0, steps=5))
        with pytest.raises(ValueError, match="normalized"):
            evolve_state(prop, np.array([np.nan, 0.0]))

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

        stacks = run_keep_all(drives, grid)
        finals = final_unitaries(drives, grid)
        assert finals.shape == (batch, dim, dim)
        for k, reference in enumerate(references):
            assert np.array_equal(stacks[k], reference)
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
        ((h_gen, residual),) = derivative_generators([family], g, grid)
        assert np.array_equal(h_gen, hermitize(raw))
        assert residual == frobenius(0.5 * (raw - raw.conj().T))
        assert np.array_equal(generator_derivative(None, g, family, grid), h_gen)

    @pytest.mark.parametrize("batched", [final_unitaries, run_keep_all])
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

    @pytest.mark.parametrize("entry, count", [
        ("propagate", 1), ("final_unitaries", 1), ("run_keep_all", 1),
        ("generator_report", 1), ("generator_derivative", 3),
        ("fisher_invariance_check", 6), ("expand_generator", 5),
        ("appendix_a_distinction", 7), ("adaptive_estimate", 2),
    ])
    def test_coarse_step_warning_names_caller(self, entry, count):
        # Each entry point steps above the recommended 0.01 and below the
        # limit: ||H|| dt = 5 / 200 for the constant drive, 20 / 1000 for
        # B = 20 and for the control of omega = 40, and 0.0124 on the
        # appendix's main grid. One warning per coarse drive: the middle one
        # of the three, the derivative's g and g +- eps (and their frame
        # transforms), each offset of the expansion, each adaptive round.
        # Every warning names the line below, however deep the step loop runs.
        strong = make_rotating_qubit(RotatingFieldConfig(B=20.0, omega=1.0))
        fast = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=40.0))
        grid, fast_grid = TimeGrid(t_end=2.0, steps=2000), TimeGrid(t_end=1.0, steps=1000)
        drives = [zero_h, scaled(constant_minus_sx, 5.0), zero_h]
        run = {
            "propagate": lambda: propagate(drives[1], TimeGrid(t_end=1.0, steps=200)),
            "final_unitaries": lambda: final_unitaries(drives, TimeGrid(t_end=1.0, steps=200)),
            "run_keep_all": lambda: run_keep_all(drives, TimeGrid(t_end=1.0, steps=200)),
            "generator_report": lambda: generator_report(strong, 1.0, strong.hamiltonian, grid),
            "generator_derivative": lambda: generator_derivative(
                strong, 1.0, strong.hamiltonian, grid
            ),
            "fisher_invariance_check": lambda: fisher_invariance_check(
                strong, 1.0, strong.hamiltonian, sigma_y_removal_frame(1.0), grid
            ),
            "expand_generator": lambda: expand_generator(
                fast, 40.0, fast_grid, [-0.1, -0.05, 0.0, 0.05, 0.1]
            ),
            "appendix_a_distinction": lambda: appendix_a_distinction(
                20.0, 1.0, 0.1, steps=frames.FORMAL_STEPS
            ),
            "adaptive_estimate": lambda: adaptive_estimate(
                fast, 40.0, 40.05, rounds=2, shots_per_round=100, grid=fast_grid, rng_seed=0
            ),
        }[entry]
        with pytest.warns(UserWarning, match="above recommended") as record:
            run()
        assert [w.filename for w in record] == [__file__] * count

    @pytest.mark.parametrize("batched", [final_unitaries, run_keep_all])
    def test_mismatched_dimensions_rejected(self, batched):
        def qutrit_zero(t):
            return np.zeros((np.size(t), 3, 3), dtype=complex)

        with pytest.raises(DimMismatch):
            batched([zero_h, qutrit_zero], TimeGrid(t_end=1.0, steps=10))

    @pytest.mark.parametrize("run", [
        lambda drives, grid: propagate(drives[1], grid),
        final_unitaries,
        lambda drives, grid: generator_integral(
            None, 1.0, drives[1], grid, dparam=lambda g, t: zero_h(t)
        ),
    ], ids=["propagate", "final_unitaries", "generator_integral"])
    @pytest.mark.parametrize("bad, shape, alone_dim", [
        (lambda t: np.zeros((np.size(t), 2, 3), dtype=complex), (2, 3), 3),
        # Not vectorized: evaluated point by point into an (n, 2) stack.
        (lambda t: np.zeros(np.shape(t) + (2,), dtype=complex), (2,), 2),
    ], ids=["2x3-stack", "vectors"])
    def test_non_square_drive_raises_dim_mismatch(self, run, bad, shape, alone_dim):
        # Flagged before any arithmetic on the block, which would otherwise
        # fail with a raw ValueError or IndexError.
        alone = run is not final_unitaries
        k, dim = (0, alone_dim) if alone else (1, 2)
        message = f"drive {k} has {shape} matrices, drive 0's first midpoint has {(dim, dim)}"
        with pytest.raises(DimMismatch, match=re.escape(message)):
            run([zero_h, bad, zero_h], TimeGrid(t_end=1.0, steps=10))

    def test_drive_changing_shape_after_first_midpoint_names_it(self):
        def shifting(t):
            d = 2 if np.size(t) == 1 else 3
            return np.zeros((np.size(t), d, d), dtype=complex)

        message = "drive 0 has (3, 3) matrices, drive 0's first midpoint has (2, 2)"
        with pytest.raises(DimMismatch, match=re.escape(message)):
            propagate(shifting, TimeGrid(t_end=1.0, steps=10))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3]),
        step_counts=st.lists(st.sampled_from([180, 240]), min_size=1, max_size=5),
        keep=st.lists(st.booleans(), min_size=5, max_size=5),
        sizes=st.lists(st.integers(1, 3), min_size=5, max_size=5),
        block=st.sampled_from([1, 7, 64, 1 << 16]),
    )
    def test_drives_on_their_own_grids_match_alone(
        self, seed, dim, step_counts, keep, sizes, block
    ):
        # Groups of 1-3 drives, each group on its own grid, the grids of
        # different t_end with equal and unequal step counts, each group
        # keeping every point or only U(T): every drive's column has the
        # bits of the drive propagated alone on its grid, at any block length.
        rng = np.random.default_rng(seed)
        groups = []
        for n, size, keep_all in zip(step_counts, sizes, keep):
            grid = TimeGrid(t_end=float(rng.uniform(0.5, 1.0)), steps=n)
            families = [random_family(rng, dim) for _ in range(size)]
            drives = [lambda t, f=f: f(1.0, t) for f in families]
            fold = propagation._every_point(grid) if keep_all else propagation._final_point
            groups.append((drives, grid, fold))

        with mock.patch.object(operators, "_BLOCK_ENTRIES", block * dim * dim):
            outputs = propagation._run(groups)
        for out, (drives, grid, _), keep_all in zip(outputs, groups, keep):
            assert len(out) == (grid.steps + 1 if keep_all else len(drives))
            for k, h in enumerate(drives):
                reference = reference_unitaries(h, grid)
                if keep_all:
                    assert np.array_equal(out[:, k], reference)
                else:
                    assert np.array_equal(out[k], reference[-1])
                assert np.array_equal(propagate(h, grid).unitaries, reference)
                assert np.array_equal(final_unitaries([h], grid)[0], reference[-1])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3]),
        count=st.integers(1, 5),
        steps=st.sampled_from([180, 240]),
        block=st.sampled_from([1, 7, 64, 1 << 16]),
    )
    def test_batched_generator_integrals_match_alone(self, seed, dim, count, steps, block):
        # Random drives on grids of one step count and their own t_end, in
        # one step loop with a trapezoid total per drive: every generator has
        # the bits of generator_integral of its drive alone, at any block
        # length.
        rng = np.random.default_rng(seed)
        g = float(rng.uniform(0.9, 1.1))
        jobs = []
        for _ in range(count):
            model = random_model(rng, dim)
            grid = TimeGrid(t_end=float(rng.uniform(0.5, 1.0)), steps=steps)
            jobs.append((model, g, lambda t, m=model: m.hamiltonian(g, t), grid))
        with mock.patch.object(operators, "_BLOCK_ENTRIES", block * dim * dim):
            batched = _generator_integrals(jobs)
        assert len(batched) == count
        for h_gen, (model, _, drive, grid) in zip(batched, jobs):
            assert np.array_equal(h_gen, generator_integral(model, g, drive, grid))

    def test_checks_fire_in_drive_order(self):
        # Step counts 200, 300, 200: consecutive drives share a loop, so the
        # third drive is not checked before the second, and every warning
        # fires in the order of the drives, as with each drive alone.
        grids = [TimeGrid(t_end=1.0, steps=n) for n in (200, 300, 200)]
        drives = [scaled(constant_minus_sx, f) for f in (5.0, 6.0, 7.0)]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            propagation._run(
                [([h], grid, propagation._final_point) for h, grid in zip(drives, grids)]
            )
        assert [str(w.message) for w in record] == [
            f"max ||H||*dt = {f * grid.dt:.3g} above recommended {STEP_RECOMMENDED}"
            for f, grid in zip((5.0, 6.0, 7.0), grids)
        ]

    @pytest.mark.parametrize("run", [
        lambda grid: final_unitaries([], grid),
        lambda grid: propagation._run([
            ([zero_h], grid, propagation._final_point), ([], grid, propagation._final_point)
        ]),
    ], ids=["final_unitaries", "second-group"])
    def test_group_without_drives_raises(self, run):
        with pytest.raises(ValueError, match="at least one drive"):
            run(TimeGrid(t_end=1.0, steps=10))

    def test_one_loop_takes_one_step_count(self):
        blocks = propagation._step_unitaries(
            [zero_h, zero_h], [TimeGrid(t_end=1.0, steps=10), TimeGrid(t_end=1.0, steps=11)]
        )
        with pytest.raises(ValueError, match="one step count"):
            next(blocks)

    @pytest.mark.parametrize("steps, loops", [
        (20000, [(9, 20000)]),
        (50000, [(2, 20000), (7, 50000)]),
    ])
    def test_appendix_runs_one_step_loop_per_step_count(self, steps, loops):
        # The formal pair on its 20k-step grid, then the controlled and
        # transformed drives and five derivative drives on the main grid:
        # the sixth, the controlled drive itself, is not run twice.
        seen = []
        step_unitaries = propagation._step_unitaries

        def counting(drives, grids):
            seen.append((len(drives), grids[0].steps))
            return step_unitaries(drives, grids)

        with mock.patch.object(propagation, "_step_unitaries", counting):
            appendix_a_distinction(1.0, 1.0, 0.1, n_periods=1, steps=steps)
        assert seen == loops

    @pytest.mark.parametrize(
        "bad, error",
        [
            (filled(np.nan), InvalidMatrix),
            (upper_triangular, InvalidMatrix),
            (scaled(constant_minus_sx, 60.0), StepTooCoarse),
        ],
        ids=["nan", "non-hermitian", "too-coarse"],
    )
    def test_invalid_drive_on_its_own_grid_raises_as_alone(self, bad, error):
        # The bad drive shares a loop with a drive on a longer grid, after a
        # loop of another step count has run.
        grids = [TimeGrid(t_end=1.0, steps=300), TimeGrid(t_end=2.0, steps=400),
                 TimeGrid(t_end=1.0, steps=400)]
        with pytest.raises(error) as alone:
            propagate(bad, grids[2])
        with pytest.raises(error) as merged:
            propagation._run([
                ([zero_h], grids[0], propagation._every_point(grids[0])),
                ([constant_minus_sx], grids[1], propagation._final_point),
                ([bad], grids[2], propagation._every_point(grids[2])),
            ])
        assert str(merged.value) == str(alone.value)

    def test_appendix_failing_drive_raises_as_alone(self):
        # B = 1500: the formal rotating drive, first in the merged loop,
        # crosses the step limit on the 20k-step formal grid.
        model = make_rotating_qubit(RotatingFieldConfig(B=1500.0, omega=1.0))
        formal_grid = TimeGrid(t_end=frames.FORMAL_T_END, steps=frames.FORMAL_STEPS)
        with pytest.raises(StepTooCoarse) as alone:
            propagate(lambda t: model.hamiltonian(1.0, t), formal_grid)
        with pytest.raises(StepTooCoarse) as merged:
            appendix_a_distinction(1500.0, 1.0, 100.0, steps=frames.FORMAL_STEPS)
        assert str(merged.value) == str(alone.value)

    @pytest.mark.parametrize("b_field, delta, count", [
        # Only the formal pair warns.
        (150.0, 100.0, 2),
        # The controlled and transformed drives and five derivative drives.
        (20.0, 0.1, 7),
    ])
    def test_appendix_warnings_name_appendix(self, b_field, delta, count):
        # Every step-size warning, the derivative drives' included, names
        # the caller of appendix_a_distinction.
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            appendix_a_distinction(b_field, 1.0, delta, steps=frames.FORMAL_STEPS)
        assert [w.filename for w in record] == [__file__] * count
        assert all("above recommended" in str(w.message) for w in record)


def ring_examples(test):
    """Every (steps, block) below for one drive and a batch at d = 2, 3, 4
    and 8. ``_run``'s ring holds 1/16 of the first block's steps: one step
    for 7-point blocks, 6 steps that divide neither 100-point block nor the
    50-point last one, 4 steps beyond a 1-point last block of 64-point
    blocks, and 18 steps in a single 300-point block."""
    cases = [(200, 7), (250, 100), (257, 64), (300, 1 << 16)]
    for dim, batch, (steps, block) in itertools.product([2, 3, 4, 8], [1, 3], cases):
        test = example(seed=dim, dim=dim, batch=batch, steps=steps, block=block)(test)
    return test


class TestStreamedBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4, 8]),
        batch=st.sampled_from([1, 3]),
        steps=st.integers(180, 300),
        block=st.sampled_from([1, 7, 64, 100, 1 << 16]),
    )
    @ring_examples
    def test_matches_full_stack_path(self, seed, dim, batch, steps, block):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(t_end=1.0, steps=steps)
        g = float(rng.uniform(0.9, 1.1))
        models = [random_model(rng, dim) for _ in range(batch)]
        drives = [lambda t, m=m: m.hamiltonian(g, t) for m in models]
        step_stack = reference_step_stack(drives, grid)
        stacks = reference_cumulative_product(step_stack, keep_all=True)
        finals = reference_cumulative_product(step_stack, keep_all=False)
        first, last = models[0], models[-1]
        h_first = reference_generator_integral(lambda t: first.d_param_h(g, t), grid, stacks[:, 0])
        h_last = reference_generator_integral(lambda t: last.d_param_h(g, t), grid, stacks[:, -1])
        gap_closed = reference_gap_integral(
            lambda ts: first.analytic_eigs_of_dparamh(g, ts)[0], grid
        )
        gap_numeric = reference_gap_integral(
            lambda ts: np.linalg.eigvalsh(first.d_param_h(g, ts)), grid
        )
        numeric = dataclasses.replace(first, analytic_eigs_of_dparamh=None)

        # `block` points per block: one point, blocks that rarely divide the
        # step count, and a single block; the ring of cached step views in
        # each is 1/16 of the first block.
        with mock.patch.object(operators, "_BLOCK_ENTRIES", block * dim * dim):
            single = propagate(drives[0], grid)
            batched = run_keep_all(drives, grid)
            assert np.array_equal(single.unitaries, stacks[:, 0])
            for k, unitaries in enumerate(batched):
                assert np.array_equal(unitaries, stacks[:, k])
            assert np.array_equal(final_unitaries(drives, grid), finals)
            assert np.array_equal(generator_integral(first, g, drives[0], grid), h_first)
            assert np.array_equal(
                generator_integral(first, g, drives[0], grid, propagator=single), h_first
            )
            last_prop = Propagator(grid, batched[-1])
            assert np.array_equal(
                generator_integral(last, g, None, grid, propagator=last_prop), h_last
            )
            assert spectral_gap_integral(first, g, grid) == gap_closed
            assert spectral_gap_integral(numeric, g, grid) == gap_numeric

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_step_block_is_decomposed_once(self, dim):
        # The norm check and the step exponentials read one split per drive
        # and block. At d = 2 it is one Pauli split, counted in every module
        # of the step loop. At d = 3 it is the Frobenius norms: no eigh or
        # eigvalsh runs for steps below the Taylor cap and the recommended
        # step (the two random drives at half size, ||H||_F dt <= 0.0052),
        # and a drive whose Frobenius bound crosses the recommended step
        # gets exactly one eigvalsh per block: 2.5 sigma_x has
        # ||H||_F dt = 0.0118 but ||H|| dt = 0.0083, so it does not warn.
        rng = np.random.default_rng(dim)
        models = [random_model(rng, dim) for _ in range(2)]
        drives = [lambda t, m=m: m.hamiltonian(1.0, t) for m in models]
        if dim != 2:
            drives = [scaled(h, 0.5) for h in drives]
            drives.append(embedded(scaled(constant_minus_sx, 2.5), dim))
        grid = TimeGrid(t_end=1.0, steps=300)
        calls = []

        def counting(decompose):
            def wrapper(mats):
                calls.append(len(mats))
                return decompose(mats)
            return wrapper

        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(operators, "_BLOCK_ENTRIES", 64 * dim * dim))
            if dim == 2:
                split = counting(operators.pauli_components)
                for module in (operators, propagation):
                    stack.enter_context(
                        mock.patch.object(module, "pauli_components", split, create=True)
                    )
            else:
                stack.enter_context(
                    mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh ran"))
                )
                stack.enter_context(
                    mock.patch.object(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
                )
            blocks = operators.block_slices(0, grid.steps, dim)
            final_unitaries(drives, grid)
        if dim == 2:
            assert calls == [b.stop - b.start for b in blocks for _ in drives]
        else:
            assert calls == [b.stop - b.start for b in blocks]

    @pytest.mark.parametrize("dim, steps", [
        (2, 4096), (2, 4097), (2, 16384), (2, 16385), (2, 40000),
        (3, 1820), (3, 1821), (3, 7281), (3, 7282), (8, 5000),
    ])
    def test_gap_integral_is_the_trapezoid_across_leaf_caps(self, dim, steps):
        # One leaf of _BLOCK_ENTRIES // d**2 terms (4096 at d = 2, 1820 at
        # d = 3), one more term, and grids that halve into several leaves.
        model = random_model(np.random.default_rng(dim + steps), dim)
        grid = TimeGrid(t_end=1.0, steps=steps)
        closed = reference_gap_integral(lambda ts: model.analytic_eigs_of_dparamh(1.0, ts)[0], grid)
        numeric = reference_gap_integral(lambda ts: np.linalg.eigvalsh(model.d_param_h(1.0, ts)), grid)
        assert spectral_gap_integral(model, 1.0, grid) == closed
        without_closed_form = dataclasses.replace(model, analytic_eigs_of_dparamh=None)
        assert spectral_gap_integral(without_closed_form, 1.0, grid) == numeric

    @pytest.mark.parametrize("run", [
        lambda drives, grid: propagate(drives[1], grid),
        final_unitaries,
        run_keep_all,
        lambda drives, grid: generator_integral(
            None, 1.0, drives[1], grid, dparam=lambda g, t: np.zeros_like(drives[2](t))
        ),
    ], ids=["propagate", "final_unitaries", "run_keep_all", "generator_integral"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (window(filled(np.nan), 0.9), InvalidMatrix),
            (window(upper_triangular, 0.9), InvalidMatrix),
            (window(scaled(constant_minus_sx, 60.0), 0.9), StepTooCoarse),
            # Passes the first block, fails every later one; the message
            # quotes the maximum over the whole grid.
            (lambda t: (30.0 + 40.0 * np.atleast_1d(t))[:, None, None] * -SIGMA_X,
             StepTooCoarse),
            # A Hermiticity defect in the first block, NaN in the last.
            (lambda t: window(upper_triangular, -1.0, 0.1)(t) + window(filled(np.nan), 0.9)(t),
             InvalidMatrix),
            # inf in a middle block: exponentiating it would warn.
            (window(filled(np.inf), 0.4, 0.5), InvalidMatrix),
        ],
        ids=["nan", "non-hermitian", "too-coarse", "too-coarse-after-first",
             "defect-then-nan", "inf-mid"],
    )
    def test_bad_later_block_raises_as_full_stack(self, run, dim, bad, error):
        # 400 steps in blocks of 50 points: the late drives go bad only in
        # the last block. At d = 3 the drives sit in a corner of 3x3 zeros
        # and are checked through the eigendecomposition.
        grid = TimeGrid(t_end=1.0, steps=400)
        drives = [embedded(h, dim) for h in (constant_minus_sx, bad, zero_h)]
        with pytest.raises(error) as reference:
            reference_step_stack(drives, grid)
        with mock.patch.object(operators, "_BLOCK_ENTRIES", 50 * dim * dim):
            with pytest.raises(error) as streamed:
                run(drives, grid)
        assert str(streamed.value) == str(reference.value)

    @pytest.mark.parametrize(
        "case, dim",
        [
            *(pytest.param(case, 2, id=case) for case in (
                "propagate", "final_unitaries", "tree_final_unitary", "integral_given",
                "integral_streamed", "gap_integral",
            )),
            *(pytest.param(case, 8, id=f"{case}-d8") for case in ("propagate", "final_unitaries")),
        ],
    )
    def test_holds_at_most_a_few_blocks_beyond_output(self, case, dim):
        # Blocks of 1000 points on a 20k-step grid at d = 2, of 100 points
        # on a 2k-step grid at d = 8. Only propagate keeps a grid-sized
        # result; every other intermediate is block-sized, as is the
        # integral's work above the stack it is given. The gap integral
        # forms one block of eigensystems and trapezoid terms at a time, so
        # it stays under two blocks, as a grid-long gap array would not. At
        # d = 8 the step loop's ring of cached views stays a small fraction
        # of a block; a ring sized in steps (256, a real d = 8 block) would
        # hold the whole 100-point block twice over and cross the bound.
        if dim == 2:
            model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))
            grid, points = TimeGrid(t_end=1.0, steps=20000), 1000
        else:
            model = random_model(np.random.default_rng(dim), dim)
            grid, points = TimeGrid(t_end=1.0, steps=2000), 100

        def drive(t):
            return model.hamiltonian(1.0, t)

        matrix = dim * dim * 16
        block = points * matrix
        output = (grid.steps + 1) * matrix if case == "propagate" else 0
        prop = propagate(drive, grid) if case == "integral_given" else None
        run = {
            "propagate": lambda: propagate(drive, grid),
            "final_unitaries": lambda: final_unitaries([drive], grid),
            "tree_final_unitary": lambda: propagation._tree_final_unitary(drive, grid),
            "integral_given": lambda: generator_integral(model, 1.0, drive, grid, propagator=prop),
            "integral_streamed": lambda: generator_integral(model, 1.0, drive, grid),
            "gap_integral": lambda: spectral_gap_integral(model, 1.0, grid),
        }[case]
        with mock.patch.object(operators, "_BLOCK_ENTRIES", points * dim * dim):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        limit = 2 * block if case == "gap_integral" else 10 * block
        assert peak - before <= output + limit

    def test_streamed_integral_peak_does_not_grow_with_the_grid(self):
        # Blocks of 1000 points: neither the unitaries nor the times of a
        # streamed generator integral are held beyond one block, so 80k
        # steps peak within a block of 20k steps.
        model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))

        def drive(t):
            return model.hamiltonian(1.0, t)

        peaks = []
        for steps in (20000, 80000):
            grid = TimeGrid(t_end=1.0, steps=steps)
            with mock.patch.object(operators, "_BLOCK_ENTRIES", 1000 * 4):
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    generator_integral(model, 1.0, drive, grid)
                    peaks.append(tracemalloc.get_traced_memory()[1] - before)
                finally:
                    tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1000 * 4 * 16


class TestTreeFinalUnitary:
    """The adaptive round's pairwise-tree U(T) against ``final_unitaries``,
    the sequential product it replaces there."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 4097, 9001]),
        dim=st.sampled_from([2, 4]),
    )
    def test_matches_the_sequential_product(self, seed, steps, dim):
        # 4097 is one default d = 2 block plus one step. From 4 steps a d = 2
        # level has two or more pairs and takes the broadcast product; 5, 7
        # and 9 also carry an odd step up a level. d = 4 stays on np.matmul.
        # Both products multiply the same steps; only their association and
        # the 2x2 arithmetic differ, so the rounding apart grows at most like
        # steps * eps.
        rng = np.random.default_rng(seed)
        family, g = random_family(rng, dim), rng.uniform(0.9, 1.1)

        def drive(t):
            return family(g, t)

        grid = TimeGrid(t_end=steps / 200.0, steps=steps)
        tree = propagation._tree_final_unitary(drive, grid)
        sequential = final_unitaries([drive], grid)[0]
        eps = np.finfo(float).eps
        assert tree.shape == (dim, dim)
        assert np.max(np.abs(tree - sequential)) <= 4 * steps * eps
        assert unitarity_defect(tree) <= 4 * steps * eps
        if steps <= 3:
            # Up to three steps both associations are s2 @ (s1 @ s0).
            assert np.array_equal(tree, sequential)

    def test_zero_drive_gives_the_identity_exactly(self):
        # Every step of a zero drive is the identity, and a broadcast product
        # of identities is exact: each entry is 1 * 1 + 0 * 0 or 1 * 0 + 0 * 1.
        # 4097 steps are a full block of broadcast levels and a second block
        # of one step.
        tree = propagation._tree_final_unitary(zero_h, TimeGrid(t_end=1.0, steps=4097))
        assert np.array_equal(tree, np.eye(2))

    def test_one_step_blocks_give_the_sequential_product(self):
        # One step per block: each block's tree is its one step, so the
        # carried product is the sequential one, bit for bit, and no block
        # overwrites the product carried from the one before.
        family = random_family(np.random.default_rng(5), 2)

        def drive(t):
            return family(1.0, t)

        grid = TimeGrid(t_end=0.05, steps=10)
        with mock.patch.object(operators, "_BLOCK_ENTRIES", 4):
            tree = propagation._tree_final_unitary(drive, grid)
            sequential = final_unitaries([drive], grid)[0]
        assert np.array_equal(tree, sequential)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (filled(np.nan), InvalidMatrix),
            (upper_triangular, InvalidMatrix),
            (scaled(constant_minus_sx, 600.0), StepTooCoarse),
            (lambda t: np.zeros((np.size(t), 2, 3), dtype=complex), DimMismatch),
        ],
        ids=["nan", "non-hermitian", "too-coarse", "dim-mismatch"],
    )
    @pytest.mark.parametrize("late", [False, True], ids=["everywhere", "second-block"])
    def test_invalid_drive_raises_as_final_unitaries(self, bad, error, late):
        # 5000 steps are two d = 2 blocks; a late drive is bad only in the
        # second block (t > 0.8), after the first was multiplied.
        grid = TimeGrid(t_end=1.0, steps=5000)
        drive = (lambda t: bad(t) if np.min(t) > 0.8 else zero_h(t)) if late else bad
        with pytest.raises(error) as sequential:
            final_unitaries([drive], grid)
        with pytest.raises(error) as tree:
            propagation._tree_final_unitary(drive, grid)
        assert str(tree.value) == str(sequential.value)

    def test_drive_changing_shape_raises_as_final_unitaries(self):
        def shifting(t):
            d = 2 if np.size(t) == 1 else 3
            return np.zeros((np.size(t), d, d), dtype=complex)

        grid = TimeGrid(t_end=1.0, steps=10)
        with pytest.raises(DimMismatch) as sequential:
            final_unitaries([shifting], grid)
        with pytest.raises(DimMismatch) as tree:
            propagation._tree_final_unitary(shifting, grid)
        assert str(tree.value) == str(sequential.value)

    def test_coarse_step_warns_as_final_unitaries(self):
        # ||H|| dt = 5 / 200: above the recommended 0.01, below the limit.
        grid, drive = TimeGrid(t_end=1.0, steps=200), scaled(constant_minus_sx, 5.0)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            final_unitaries([drive], grid)
            propagation._tree_final_unitary(drive, grid)
        assert len(record) == 2
        assert str(record[1].message) == str(record[0].message)
        assert record[1].category is record[0].category
        assert [w.filename for w in record] == [__file__] * 2
