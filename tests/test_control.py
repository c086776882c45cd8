"""Tests for eigenbasis tracking, control synthesis, the total controlled
drive, and the generator expansion in the control mismatch."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfisher import (
    ControlConfig,
    DegenerateDerivativeSpectrum,
    Estimand,
    FitError,
    GaugeError,
    InvalidMatrix,
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
from qfisher import control, operators
from qfisher.control import (
    DEGENERACY_GAP,
    TrackedBasis,
    _branch_values,
    _fill_degenerate,
    _match_branches,
    _transport_block,
)
from qfisher.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _align_phases,
    _eig2_closed_form,
    eig_hermitian,
    hermitize,
    require_hermitian,
)
from qfisher.propagation import eval_hamiltonian_batch


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


def _align_to_reference(values, vectors, reference):
    """Greedy branch match to the reference columns, largest overlaps first,
    then phases so <ref_k|v_k> is real positive."""
    overlaps = reference.conj().T @ vectors
    order = np.full(vectors.shape[1], -1, dtype=int)
    taken = set()
    for idx in np.argsort(-np.abs(overlaps), axis=None):
        k, j = divmod(int(idx), vectors.shape[1])
        if order[k] == -1 and j not in taken:
            order[k] = j
            taken.add(j)
    return values[order], _align_phases(vectors[:, order], reference)


def _eig_transported(a, reference):
    """The per-point decomposition the tracker used to run: validation, the
    2x2 closed form or eigh, then the greedy parallel-transport match."""
    a = require_hermitian(a)
    values, vectors = _eig2_closed_form(a) if a.shape[0] == 2 else np.linalg.eigh(a)
    return _align_to_reference(values, vectors, reference)


def reference_track(model, g_c, grid):
    """Per-point tracking loop, the slow path ``track_eigenbasis`` replaced."""
    d_mats = eval_hamiltonian_batch(lambda t: model.d_param_h(g_c, t), grid.points)
    n_pts, dim = d_mats.shape[0], d_mats.shape[-1]
    raw_values = np.linalg.eigvalsh(d_mats)
    gaps = np.min(np.diff(raw_values, axis=1), axis=1) if dim > 1 else np.full(n_pts, np.inf)
    degenerate = gaps < DEGENERACY_GAP
    values = np.empty((n_pts, dim))
    vectors = np.empty((n_pts, dim, dim), dtype=complex)
    first = int(np.argmax(~degenerate))
    values[first], vectors[first] = eig_hermitian(d_mats[first])
    reference = vectors[first]
    for i in range(first + 1, n_pts):
        if degenerate[i]:
            vectors[i] = _fill_degenerate(model, g_c, grid.points[i], reference)
            values[i] = _branch_values(d_mats[i], vectors[i])
        else:
            values[i], vectors[i] = _eig_transported(d_mats[i], reference)
        reference = vectors[i]
    for i in range(first - 1, -1, -1):
        vectors[i] = _fill_degenerate(
            model, g_c, grid.points[i], vectors[i + 1], forward=vectors[i + 1: i + 4]
        )
        values[i] = _branch_values(d_mats[i], vectors[i])
    return values, vectors


def random_hermitian(rng, dim):
    return hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def derivative_model(dim, d_of_t):
    """Model g * D(t) with dH/dg = D(t); ``d_of_t`` maps a time array to an
    (n, dim, dim) stack."""

    def dham(g, t):
        mats = d_of_t(np.atleast_1d(np.asarray(t, dtype=float)))
        return mats[0] if np.ndim(t) == 0 else mats

    return ParametricModel(dim, lambda g, t: g * dham(g, t), dham)


def smooth_family(rng, dim):
    """dH/dg = A + sin(w t) B + t^2 C with random Hermitian A, B, C."""
    a, b, c = (random_hermitian(rng, dim) for _ in range(3))
    w = rng.uniform(0.5, 3.0)
    return derivative_model(
        dim, lambda ts: a + np.sin(w * ts)[:, None, None] * b + (ts**2)[:, None, None] * c
    )


def slow_rotating_frame(rng, dim):
    """dH/dg = V(t) M V(t)^dag with V(t) = exp(-i t K): an eigenframe turning
    at rates up to 0.1 with the fixed, evenly spaced spectrum of M, slow
    enough for ``synthesize_cd``'s gauge check on grids of 50 steps."""
    kappa, q = np.linalg.eigh(random_hermitian(rng, dim))
    kappa *= 0.05 / np.max(np.abs(kappa))
    m = np.diag(np.linspace(-1.0, 1.0, dim)).astype(complex)

    def d_of_t(ts):
        v = (q * np.exp(-1j * ts[:, None, None] * kappa)) @ q.conj().T
        return v @ m @ np.swapaxes(v, -1, -2).conj()

    return derivative_model(dim, d_of_t)


def rotating_three_level():
    """dH/dg = W(t) D W(t)^dag with W(t) = exp(-i t A): a rigidly rotating
    eigenframe with the fixed spectrum D = (-1, 0.15, 1)."""
    a = random_hermitian(np.random.default_rng(14), 3)
    values, vectors = np.linalg.eigh(0.8 * a / np.linalg.norm(a))
    spectrum = np.diag([-1.0, 0.15, 1.0])

    def d_of_t(ts):
        w = (vectors * np.exp(-1j * ts[:, None, None] * values)) @ vectors.conj().T
        return w @ spectrum @ w.conj().transpose(0, 2, 1)

    return derivative_model(3, d_of_t)


def assert_matches_reference(model, grid, dim):
    basis = track_eigenbasis(model, 1.0, grid)
    values, vectors = reference_track(model, 1.0, grid)
    if dim == 2:
        # The reference decomposes 2x2 matrices in closed form, the tracker
        # with LAPACK: the values agree to rounding.
        scale = max(1.0, float(np.max(np.abs(values))))
        np.testing.assert_allclose(basis.values, values, rtol=0.0, atol=1e-14 * scale)
    else:
        assert np.array_equal(basis.values, values)
    assert np.max(np.abs(basis.vectors - vectors)) <= 1e-12
    return basis


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


class TestBatchedTracking:
    """The stacked tracker against the per-point loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([2, 3, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(20, 400),
        block_entries=st.sampled_from([16, 200, 1 << 16]),
    )
    def test_matches_per_point_loop(self, dim, seed, steps, block_entries):
        rng = np.random.default_rng(seed)
        model = smooth_family(rng, dim)
        grid = TimeGrid(t_end=rng.uniform(0.5, 2.0), steps=steps)
        # Small blocks restart the transport every few points.
        with mock.patch.object(operators, "_BLOCK_ENTRIES", block_entries):
            assert_matches_reference(model, grid, dim)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([2, 3, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(50, 300),
        block_points=st.integers(1, 40),
    )
    def test_bits_do_not_depend_on_block_length(self, dim, seed, steps, block_points):
        # Blocks of a few points, one-point blocks included, against one
        # block for the whole grid (2^16 entries are at least 1024 points).
        rng = np.random.default_rng(seed)
        tracked, synthesized = smooth_family(rng, dim), slow_rotating_frame(rng, dim)
        grid = TimeGrid(t_end=rng.uniform(0.5, 2.0), steps=steps)
        results = []
        for entries in (block_points * dim * dim, 1 << 16):
            with mock.patch.object(operators, "_BLOCK_ENTRIES", entries):
                basis = track_eigenbasis(tracked, 1.0, grid)
                cd = synthesize_cd(track_eigenbasis(synthesized, 1.0, grid))
            results.append((basis.values, basis.vectors, cd.matrices))
        for blocked, whole in zip(*results):
            assert np.array_equal(blocked, whole)

    @pytest.mark.parametrize("block_points", [1, 2, 7, 64])
    def test_branch_permutation_carries_across_blocks(self, block_points):
        # Levels t - 1 and 1 - t cross at t = 1 with a coupling far below
        # the grid's resolution: the raw eigh order swaps there, and blocks
        # after the crossing must continue the swapped permutation.
        model = derivative_model(
            2, lambda ts: (ts - 1.0)[:, None, None] * SIGMA_Z + 1e-6 * SIGMA_X
        )
        grid = TimeGrid(t_end=2.0, steps=201)
        results = []
        for entries in (block_points * 4, 1 << 16):
            with mock.patch.object(operators, "_BLOCK_ENTRIES", entries):
                results.append(track_eigenbasis(model, 1.0, grid))
        blocked, whole = results
        np.testing.assert_allclose(whole.values[:, 0], grid.points - 1.0, atol=1e-6)
        assert np.array_equal(blocked.values, whole.values)
        assert np.array_equal(blocked.vectors, whole.vectors)

    def test_near_crossing_permutes_branches(self):
        # Diabatic levels 1 - t, t - 1 and 0.5, with a coupling far below the
        # grid's resolution: branches keep their character through the
        # crossings, so the ascending eigh order is permuted after them.
        coupling = np.zeros((3, 3), dtype=complex)
        coupling[0, 1] = coupling[1, 0] = 1e-6
        diabatic = np.diag([-1.0, 1.0, 0.0]).astype(complex)
        offset = np.diag([0.0, 0.0, 0.5]).astype(complex)
        model = derivative_model(
            3, lambda ts: (ts - 1.0)[:, None, None] * diabatic + offset + coupling
        )
        grid = TimeGrid(t_end=2.0, steps=201)
        basis = assert_matches_reference(model, grid, 3)
        np.testing.assert_allclose(basis.values[:, 0], grid.points - 1.0, atol=1e-6)
        np.testing.assert_allclose(basis.values[:, 1], 0.5, atol=1e-6)
        np.testing.assert_allclose(basis.values[:, 2], 1.0 - grid.points, atol=1e-6)

    def test_greedy_fallback_when_argmax_is_not_a_permutation(self):
        # The eigenframe jumps by a fixed unitary R between two grid points,
        # so the overlap there is R itself. Two rows of |R| peak in the same
        # column: the argmax match fails and the greedy order takes over.
        rows = np.array([[0.7, 0.5, 0.51], [0.7, -0.62, -0.353], [0.1, 0.2, 0.3]])
        jump, _ = np.linalg.qr(rows.T)
        jump = jump.T.astype(complex)
        assert len(set(np.argmax(np.abs(jump), axis=1))) < 3
        spectrum = np.array([-1.0, 0.2, 1.0])
        after = (jump * spectrum) @ jump.conj().T

        def d_of_t(ts):
            return np.where((ts < 0.5)[:, None, None], np.diag(spectrum), after)

        grid = TimeGrid(t_end=1.0, steps=100)
        basis = assert_matches_reference(derivative_model(3, d_of_t), grid, 3)
        gram = np.einsum("nik,nil->nkl", basis.vectors.conj(), basis.vectors)
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        greedy = _match_branches(np.abs(jump)[None])[0]
        assert list(greedy) == [1, 0, 2]
        np.testing.assert_allclose(basis.values[-1], spectrum[greedy], atol=1e-12)

    def test_isolated_degenerate_point_restarts_run(self):
        # dH/dg = (t - 1) W(t) vanishes at t = 1 only; the branches cross
        # there and the run restarts from the filled point.
        rng = np.random.default_rng(4)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        model = derivative_model(
            4, lambda ts: (ts - 1.0)[:, None, None] * (a + np.sin(ts)[:, None, None] * b)
        )
        grid = TimeGrid(t_end=2.0, steps=200)
        mid = 100
        assert grid.points[mid] == 1.0
        basis = assert_matches_reference(model, grid, 4)
        assert np.array_equal(basis.vectors[mid], basis.vectors[mid - 1])
        np.testing.assert_allclose(basis.values[mid], 0.0, atol=1e-15)
        overlaps = np.einsum("nik,nik->nk", basis.vectors[:-1].conj(), basis.vectors[1:])
        assert np.min(overlaps.real) >= 1.0 - 1e-3
        assert np.max(np.abs(overlaps.imag)) <= 1e-12
        # Branch values change sign through the crossing, following (t - 1).
        assert np.all(np.sign(basis.values[mid - 1]) == -np.sign(basis.values[mid + 1]))

    @pytest.mark.parametrize("block_points", [1, 4, 101])
    def test_degenerate_point_at_block_edges(self, block_points):
        # The degenerate point t = 1 (index 100) is a one-point block, the
        # first row of a block after a boundary, and the last row of the
        # first block: its stored dH/dg and filled basis keep the bits of
        # one block for the whole grid.
        rng = np.random.default_rng(4)
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        model = derivative_model(
            4, lambda ts: (ts - 1.0)[:, None, None] * (a + np.sin(ts)[:, None, None] * b)
        )
        grid = TimeGrid(t_end=2.0, steps=200)
        results = []
        for entries in (block_points * 16, 1 << 16):
            with mock.patch.object(operators, "_BLOCK_ENTRIES", entries):
                results.append(track_eigenbasis(model, 1.0, grid))
        blocked, whole = results
        assert np.array_equal(whole.vectors[100], whole.vectors[99])
        assert np.array_equal(blocked.values, whole.values)
        assert np.array_equal(blocked.vectors, whole.vectors)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_tracking_and_synthesis_hold_output_plus_blocks(self, dim):
        # 50-point blocks, 60 to the grid: the tracker holds its values, vectors and phases,
        # and synthesis its matrices, plus a few blocks of work, never a
        # second grid-long stack of dH/dg, differences or conjugates.
        grid = TimeGrid(t_end=1.0, steps=3000)
        model = slow_rotating_frame(np.random.default_rng(dim), dim)
        stack = (grid.steps + 1) * dim * dim * 16
        block = 50 * dim * dim * 16
        with mock.patch.object(operators, "_BLOCK_ENTRIES", 50 * dim * dim):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                basis = track_eigenbasis(model, 1.0, grid)
                tracked, track_peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                synthesize_cd(basis)
                synth_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        output = basis.values.nbytes + basis.vectors.nbytes + basis.phases.nbytes
        assert track_peak - before <= output + 16 * block
        assert synth_peak - tracked <= stack + 16 * block

    @pytest.mark.parametrize("bad", ["non-hermitian", "nan"])
    def test_invalid_derivative_rejected(self, bad):
        rng = np.random.default_rng(8)
        base = random_hermitian(rng, 3)
        defect = np.zeros((3, 3), dtype=complex)
        defect[0, 2] = 1e-6 if bad == "non-hermitian" else np.nan

        def d_of_t(ts):
            mats = np.broadcast_to(base, (ts.shape[0], 3, 3)).copy()
            mats[ts.shape[0] // 2] += defect
            return mats

        with pytest.raises(InvalidMatrix):
            track_eigenbasis(derivative_model(3, d_of_t), 1.0, TimeGrid(t_end=1.0, steps=300))

    def test_parallel_transport_alignment(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        ref_values, ref_vectors = eig_hermitian(a)
        # A small perturbation keeps branches identifiable; the raw columns
        # come in a shuffled order.
        raw_values, raw_vectors = np.linalg.eigh(a + 1e-3 * random_hermitian(rng, 4))
        shuffle = np.array([2, 0, 3, 1])
        values = np.stack([ref_values, raw_values[shuffle]])
        vectors = np.stack([ref_vectors, raw_vectors[:, shuffle]])
        run_start = (ref_vectors, np.arange(4), np.ones((2, 4), dtype=complex))
        _transport_block(values, vectors, slice(1, 2), run_start)
        assert np.array_equal(values[1], raw_values)
        for k in range(4):
            ov = np.vdot(ref_vectors[:, k], vectors[1, :, k])
            assert ov.real > 0.99
            assert abs(ov.imag) <= 1e-10


class TestSynthesizeCd:
    def test_rotating_model_constant_control(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=4000)
        cd = synthesize_cd(track_eigenbasis(freq_model, 1.0, grid))
        assert np.max(np.abs(cd.matrices - (-0.5 * SIGMA_Y))) <= 1e-6
        assert cd.hermiticity_residual <= 1e-8

    def test_static_basis_with_phase_rates(self):
        model = static_spectrum_model()
        grid = TimeGrid(t_end=1.0, steps=400)
        c1, c2 = -0.4, 0.9
        basis = track_eigenbasis(model, 1.0, grid, f_k=(lambda t: c1, lambda t: c2))
        cd = synthesize_cd(basis)
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

    def test_nan_basis_column_rejected(self, freq_model):
        # One NaN eigenvector in an early block of several: the NaN residual
        # must survive the later, finite blocks and fail the check.
        grid = TimeGrid(t_end=2.0, steps=500)
        good = track_eigenbasis(freq_model, 1.0, grid)
        vectors = good.vectors.copy()
        vectors[10, :, 0] = np.nan
        bad = TrackedBasis(grid=grid, values=good.values, vectors=vectors, phases=good.phases)
        with mock.patch.object(operators, "_BLOCK_ENTRIES", 50 * 4):
            with pytest.raises(GaugeError, match="nan"):
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

    @pytest.mark.parametrize("source", ["closed-form", "tracked", "tracked-with-rates"])
    @pytest.mark.parametrize("block_points", [None, 333])
    def test_d2_transport_term_is_the_einsums(self, source, block_points):
        # At d = 2 the transport term comes from operators._times_dagger; with
        # the einsum it repeats in its place, no bit of the control moves, in
        # one block or in 333-point blocks (an odd last block of 3 points).
        model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0))
        grid = TimeGrid(t_end=2.0, steps=2000)
        if source == "closed-form":
            basis = tracked_basis_from_analytic(model, 1.0, grid)
        else:
            rates = (lambda t: -0.3 * np.cos(t), lambda t: 0.2)
            f_k = rates if source == "tracked-with-rates" else None
            basis = track_eigenbasis(model, 1.0, grid, f_k=f_k)
        entries = operators._BLOCK_ENTRIES if block_points is None else 4 * block_points

        def einsum(a, b, out):
            return np.einsum("nik,njk->nij", a, b.conj(), out=out)

        with mock.patch.object(operators, "_BLOCK_ENTRIES", entries):
            kernel = synthesize_cd(basis)
            with mock.patch.object(control, "_times_dagger", einsum):
                reference = synthesize_cd(basis)
        assert np.array_equal(kernel.matrices.view(np.uint64), reference.matrices.view(np.uint64))
        assert kernel.hermiticity_residual == reference.hermiticity_residual

    def test_one_step_grid_rejected(self, freq_model):
        # The endpoint stencils need three points.
        grid = TimeGrid(t_end=1.0, steps=1)
        with pytest.raises(ValueError, match="at least 3 grid points"):
            synthesize_cd(tracked_basis_from_analytic(freq_model, 1.0, grid))
        amplitude = make_rotating_qubit(
            RotatingFieldConfig(B=1.0, omega=1.0, estimand=Estimand.AMPLITUDE)
        )
        with pytest.raises(ValueError, match="at least 3 grid points"):
            build_controlled_drive(amplitude, 1.0, ControlConfig(g_c=1.0), grid)


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

    @pytest.mark.parametrize(
        "model",
        [
            make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0)),
            make_rotating_qubit(
                RotatingFieldConfig(B=1.0, omega=1.0, estimand=Estimand.AMPLITUDE)
            ),
            rotating_three_level(),
        ],
        ids=["frequency", "amplitude", "d3"],
    )
    def test_family_at_design_point_matches_two_calls(self, model):
        # At gv == g_c the family calls the model once; the bits, signs of
        # zero included, are those of H(gv, t) - H(g_c, t) + H_cd(t).
        g_c = 1.0
        grid = TimeGrid(t_end=2.0, steps=500)
        drive = build_controlled_drive(model, g_c, ControlConfig(g_c=g_c), grid)
        if model.analytic_cd is not None:
            cd = lambda t: model.analytic_cd(g_c, t)  # noqa: E731
        elif model.analytic_eigs_of_dparamh is not None:
            cd = synthesize_cd(tracked_basis_from_analytic(model, g_c, grid))
        else:
            cd = synthesize_cd(track_eigenbasis(model, g_c, grid))
        for t in (grid.points, grid.midpoints, 0.0, 0.61):
            for gv in (g_c, np.float64(g_c)):
                expected = (
                    np.asarray(model.hamiltonian(gv, t), dtype=complex)
                    - np.asarray(model.hamiltonian(g_c, t), dtype=complex)
                    + np.asarray(cd(t), dtype=complex)
                )
                actual = drive.family(gv, t)
                for a, b in ((actual.real, expected.real), (actual.imag, expected.imag)):
                    assert np.array_equal(a, b)
                    assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_family_at_design_point_calls_the_model_once(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=500)
        calls = []
        counting = ParametricModel(
            2,
            lambda g, t: calls.append(g) or freq_model.hamiltonian(g, t),
            freq_model.d_param_h,
            freq_model.analytic_eigs_of_dparamh,
            freq_model.analytic_cd,
        )
        drive = build_controlled_drive(counting, 1.0, ControlConfig(g_c=1.0), grid)
        drive.hamiltonian(grid.points)
        assert calls == [1.0]
        # A zero of the other sign is another float: both values are evaluated.
        zero = build_controlled_drive(counting, -0.0, ControlConfig(g_c=0.0), grid)
        calls.clear()
        zero.hamiltonian(grid.points)
        assert len(calls) == 2 and np.signbit(calls[0]) and not np.signbit(calls[1])

    def test_infinite_model_at_design_point_still_rejected(self):
        # inf - inf is NaN, so one model call keeps the non-finite check.
        base = static_spectrum_model()

        def ham(g, t):
            blowup = np.where(np.asarray(t) > 1.0, np.inf, 0.0)[..., None, None]
            return g * base.d_param_h(g, t) + blowup

        model = ParametricModel(2, ham, base.d_param_h)
        grid = TimeGrid(t_end=2.0, steps=500)
        drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0), grid)
        # inf - inf gives NaN without a warning, so the error itself comes
        # through when warnings are errors.
        with pytest.raises(InvalidMatrix, match="non-finite"):
            propagate(drive.hamiltonian, grid)

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

    @pytest.mark.parametrize("estimand", [Estimand.FREQUENCY, Estimand.AMPLITUDE])
    @pytest.mark.parametrize(
        "f_k, message",
        [
            ((lambda t: 0.5,), "expected 2 phase-rate functions, got 1"),
            ((lambda t: 0.5, lambda t: np.nan), "must be finite on the grid"),
        ],
        ids=["one-rate", "nan-rate"],
    )
    def test_bad_phase_rates_rejected_with_the_basis(self, estimand, f_k, message):
        # The rates reach the control only through the basis, so its checks
        # cover both. Passed to synthesize_cd on their own, one rate used to
        # be broadcast onto both branches, and a NaN rate to surface as a
        # gauge violation.
        model = make_rotating_qubit(RotatingFieldConfig(B=1.0, omega=1.0, estimand=estimand))
        grid = TimeGrid(t_end=2.0, steps=200)
        with pytest.raises(ValueError, match=message):
            build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0, f_k=f_k), grid)

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


def assert_same_basis(basis, reference):
    assert basis.grid == reference.grid
    for name in ("values", "vectors", "phases"):
        got, expected = getattr(basis, name), getattr(reference, name)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestBasisOnDemand:
    @pytest.mark.parametrize("estimand", [Estimand.FREQUENCY, Estimand.AMPLITUDE])
    @pytest.mark.parametrize("phase_rates", [False, True], ids=["no-f_k", "f_k"])
    def test_qubit_basis_equals_eager_build(self, estimand, phase_rates):
        # Frequency without f_k builds the basis on first read; the other
        # three synthesize the control from it up front.
        model = make_rotating_qubit(RotatingFieldConfig(B=1.3, omega=0.8, estimand=estimand))
        grid = TimeGrid(t_end=2.0, steps=1000)
        f_k = (lambda t: 0.3 * np.sin(t), lambda t: -0.2) if phase_rates else None
        drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.1, f_k=f_k), grid)
        assert_same_basis(drive.basis, tracked_basis_from_analytic(model, 1.1, grid, f_k=f_k))
        assert drive.basis is drive.basis

    def test_numeric_basis_equals_eager_tracking(self):
        # dH/dg = V(t) M V(t)^dag with V(t) = exp(-i t K): a rotating frame
        # with the fixed nondegenerate spectrum of M, tracked numerically.
        rng = np.random.default_rng(11)
        m = np.diag([-1.0, 0.2, 0.9]).astype(complex)
        kappa, q = np.linalg.eigh(random_hermitian(rng, 3))

        def rotated(ts):
            v = (q * np.exp(-1j * ts[:, None, None] * kappa)) @ q.conj().T
            return v @ m @ np.swapaxes(v, -1, -2).conj()

        model = derivative_model(3, rotated)
        grid = TimeGrid(t_end=1.0, steps=2000)
        drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0), grid)
        assert_same_basis(drive.basis, track_eigenbasis(model, 1.0, grid))
        assert drive.basis is drive.basis

    def test_saturation_chain_never_builds_the_basis(self, freq_model):
        builds = []

        def counted(build):
            def wrapper(*args, **kwargs):
                builds.append(build.__name__)
                return build(*args, **kwargs)
            return wrapper

        grid = TimeGrid(t_end=2.0, steps=2000)
        with mock.patch.object(
            control, "tracked_basis_from_analytic", counted(tracked_basis_from_analytic)
        ), mock.patch.object(control, "track_eigenbasis", counted(track_eigenbasis)):
            drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
            prop = propagate(drive.hamiltonian, grid)
            h_gen = generator_integral(freq_model, 1.0, drive.hamiltonian, grid, propagator=prop)
            value, _ = optimal_qfi(h_gen)
            bound = upper_bound_qfi(freq_model, 1.0, grid)
            assert builds == []
            drive.basis, drive.basis
            assert builds == ["tracked_basis_from_analytic"]
        assert abs(value - bound) <= 1e-4 * bound

    def test_closed_form_control_tracks_only_when_read(self, freq_model):
        # The closed-form control without a closed-form eigensystem: the
        # numeric basis is tracked on the first read of ``drive.basis``.
        model = ParametricModel(
            2, freq_model.hamiltonian, freq_model.d_param_h, analytic_cd=freq_model.analytic_cd
        )
        grid = TimeGrid(t_end=2.0, steps=1000)
        with mock.patch.object(control, "track_eigenbasis", wraps=track_eigenbasis) as tracker:
            drive = build_controlled_drive(model, 1.0, ControlConfig(g_c=1.0), grid)
            propagate(drive.hamiltonian, grid)
            assert tracker.call_count == 0
            assert_same_basis(drive.basis, track_eigenbasis(model, 1.0, grid))
            assert drive.basis is drive.basis
            assert tracker.call_count == 1

    def test_saturation_chain_holds_no_basis(self, freq_model):
        # 100k steps in blocks of 1000 points: the chain holds propagate's
        # stack and block-sized work, not the 9.6 MB basis beside them.
        grid = TimeGrid(t_end=2.0, steps=100_000)
        stack = (grid.steps + 1) * 4 * 16
        basis = (grid.steps + 1) * (2 * 8 + 4 * 16 + 2 * 8)
        with mock.patch.object(operators, "_BLOCK_ENTRIES", 1000 * 4):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                drive = build_controlled_drive(freq_model, 1.0, ControlConfig(g_c=1.0), grid)
                prop = propagate(drive.hamiltonian, grid)
                h_gen = generator_integral(
                    freq_model, 1.0, drive.hamiltonian, grid, propagator=prop
                )
                optimal_qfi(h_gen)
                upper_bound_qfi(freq_model, 1.0, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - before <= stack + basis // 2


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
            expand_generator(freq_model, 1.0, grid, [0.0, 0.01, 0.02, 0.06])

    def test_too_few_samples(self, freq_model):
        grid = TimeGrid(t_end=2.0, steps=1000)
        with pytest.raises(FitError):
            expand_generator(freq_model, 1.0, grid, [0.001, -0.001])
        with pytest.raises(FitError):
            expand_generator(freq_model, 1.0, grid, [])
