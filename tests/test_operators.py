"""Tests for the dense matrix kernel: eigendecomposition, unitary
exponentials, and Pauli conjugation."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfisher import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Estimand,
    InvalidMatrix,
    RotatingFieldConfig,
    closed_form_transformed_drive,
    conjugate_pauli,
    eig_hermitian,
    make_rotating_qubit,
    sigma_y_removal_frame,
    synthesize_cd,
    track_eigenbasis,
    transform_hamiltonian,
)
from qfisher import TimeGrid, operators
from qfisher.operators import (
    IDENTITY_2,
    _times_dagger,
    exp_skew_batch,
    hermitize,
    pairwise_sum,
    pauli_components,
    sandwich,
    unitarity_defect,
)
from qfisher.propagation import _every_point, _run


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(a)


class TestEigHermitian:
    def test_sigma_z_spectrum(self):
        values, vectors = eig_hermitian(SIGMA_Z)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)
        # Ascending order puts e2 (the -1 eigenvector) first.
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), [1.0, 0.0], atol=1e-14)

    def test_sigma_x_spectrum(self):
        values, vectors = eig_hermitian(SIGMA_X)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_rotating_derivative_spectrum_at_zero_frequency(self):
        # t B [sin(w t) sx - cos(w t) sz] at B=1, t=2, w=0 is -2 sz.
        mat = 2.0 * (np.sin(0.0) * SIGMA_X - np.cos(0.0) * SIGMA_Z)
        values, vectors = eig_hermitian(mat)
        np.testing.assert_allclose(values, [-2.0, 2.0], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(11 + dim)
        for _ in range(20):
            a = random_hermitian(rng, dim)
            values, vectors = eig_hermitian(a)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.linalg.norm(rebuilt - a) <= 1e-9
            assert np.all(np.diff(values) >= -1e-12)
            residual = a @ vectors - vectors * values
            assert np.max(np.abs(residual)) <= 1e-9

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 6)
        values, vectors = eig_hermitian(a)
        gram = vectors.conj().T @ vectors
        assert np.linalg.norm(gram - np.eye(6)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_default_gauge_anchor_phase(self, dim):
        rng = np.random.default_rng(dim)
        a = random_hermitian(rng, dim)
        values, vectors = eig_hermitian(a)
        for k in range(dim):
            col = vectors[:, k]
            anchor = col[int(np.argmax(np.abs(col)))]
            assert abs(np.angle(anchor)) <= 1e-10

    def test_rejects_nonfinite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidMatrix):
            eig_hermitian(bad)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidMatrix):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_stack(self):
        # require_hermitian accepts stacks; eig_hermitian takes one matrix.
        with pytest.raises(InvalidMatrix):
            eig_hermitian(np.stack([SIGMA_X, SIGMA_Z]))


def norm_defect(a):
    """The relative Hermiticity defect through ``np.linalg.norm`` over the
    matrix axes: the reference for ``operators.hermiticity_defect``."""
    axes = (-2, -1)
    skew = np.linalg.norm(a - np.swapaxes(a, -2, -1).conj(), axis=axes)
    return skew / np.maximum(1.0, np.linalg.norm(a, axis=axes))


class TestHermiticity:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2), (3, 4, 4)])
    def test_hermitize_takes_each_matrix_hermitian_part(self, shape):
        rng = np.random.default_rng(5)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = 0.5 * (a + np.swapaxes(a, -2, -1).conj())
        assert np.array_equal(hermitize(a), expected)
        for k in np.ndindex(shape[:-2]):
            assert np.array_equal(hermitize(a[k]), 0.5 * (a[k] + a[k].conj().T))

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 8]),
        lead=st.sampled_from([(), (1,), (5,), (2, 3)]),
        layout=st.sampled_from(["contiguous", "transposed", "broadcast"]),
        log_scale=st.integers(-9, 9),
        log_skew=st.sampled_from([None, -18, -14, -12, -8, 0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_defect_matches_the_norm_form(self, d, lead, layout, log_scale, log_skew, seed):
        # Hermitian stacks plus an anti-Hermitian part 10^log_skew times as
        # large, scaled by 10^log_scale, as C-contiguous stacks, as transposed
        # views and as a stack broadcast from one matrix.
        rng = np.random.default_rng(seed)
        shape = lead + (d, d)
        a = hermitize(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        if log_skew is not None:
            skew = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            a = a + 10.0**log_skew * (skew - np.swapaxes(skew, -2, -1).conj())
        a = 10.0**log_scale * a
        if layout == "transposed":
            a = np.swapaxes(a, -2, -1)
        elif layout == "broadcast":
            a = np.broadcast_to(a[(0,) * len(lead)], (4,) + shape)
        assert a.flags.c_contiguous == (layout == "contiguous")
        defect = operators.hermiticity_defect(a)
        assert np.shape(defect) == a.shape[:-2]
        np.testing.assert_allclose(defect, norm_defect(a), rtol=1e-12, atol=0.0)


def spectral_exp(a, s):
    """Reference exp(-i*s*A) from numpy's eigh, independent of the SU(2)
    closed form."""
    values, vectors = np.linalg.eigh(a)
    return (vectors * np.exp(-1j * s * values)) @ vectors.conj().T


def random_stack(rng, n, dim):
    return np.stack([random_hermitian(rng, dim) for _ in range(n)])


class TestExpSkew:
    def test_half_turn_is_minus_identity(self):
        # The identity member exercises the zero-Bloch-vector branch.
        stack = np.stack([SIGMA_Y, SIGMA_X, SIGMA_Z, IDENTITY_2])
        expected = np.broadcast_to(-IDENTITY_2, stack.shape)
        np.testing.assert_allclose(exp_skew_batch(stack, np.pi), expected, atol=1e-14)

    def test_closed_form_rotation(self):
        weights = np.array([1.0, 0.5, -2.0])
        stack = weights[:, None, None] * SIGMA_Y
        for s in (0.3, -1.2, 7.0):
            expected = (
                np.cos(s * weights)[:, None, None] * IDENTITY_2
                - 1j * np.sin(s * weights)[:, None, None] * SIGMA_Y
            )
            np.testing.assert_allclose(exp_skew_batch(stack, s), expected, atol=1e-14)

    def test_zero_angle_exact_identity(self):
        rng = np.random.default_rng(0)
        for n, dim in ((1, 2), (4, 2), (1, 5), (4, 5)):
            batch = exp_skew_batch(random_stack(rng, n, dim), 0.0)
            assert np.array_equal(batch, np.broadcast_to(np.eye(dim), (n, dim, dim)))

    def test_first_order_taylor(self):
        rng = np.random.default_rng(1)
        s = 1e-8
        for dim in (2, 3):
            mats = random_stack(rng, 4, dim)
            np.testing.assert_allclose(
                exp_skew_batch(mats, s), np.eye(dim) - 1j * s * mats, atol=1e-15
            )

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_inverse_property(self, dim):
        rng = np.random.default_rng(100 + dim)
        for n in (1, 5):
            for _ in range(20):
                mats = random_stack(rng, n, dim)
                s = rng.uniform(-3.0, 3.0)
                prod = exp_skew_batch(mats, s) @ exp_skew_batch(mats, -s)
                assert np.max(np.linalg.norm(prod - np.eye(dim), axis=(1, 2))) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_unitarity(self, dim):
        rng = np.random.default_rng(200 + dim)
        for u in exp_skew_batch(random_stack(rng, 5, dim), 1.7):
            assert unitarity_defect(u) <= 1e-9

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        mats = random_stack(rng, 7, 2)
        batch = exp_skew_batch(mats, 0.37)
        for k in range(7):
            np.testing.assert_allclose(batch[k], spectral_exp(mats[k], 0.37), atol=1e-13)

    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_stacked_generic_dim_is_bit_identical(self, dim):
        # Per-matrix loop the stacked d > 2 branch replaced.
        def per_matrix(mats, s):
            out = np.empty_like(mats)
            for k in range(mats.shape[0]):
                values, vectors = np.linalg.eigh(mats[k])
                out[k] = (vectors * np.exp(-1j * s * values)) @ vectors.conj().T
            return out

        def hermitian_stack(rng, n):
            a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
            return 0.5 * (a + np.swapaxes(a, 1, 2).conj())

        rng = np.random.default_rng(300 + dim)
        block = operators._BLOCK_ENTRIES // (dim * dim)
        for n in (1, block - 1, block, 2 * block + 3):
            mats = hermitian_stack(rng, n)
            assert np.array_equal(exp_skew_batch(mats, 0.37), per_matrix(mats, 0.37))
        # Many short blocks, the last one partial.
        with mock.patch.object(operators, "_BLOCK_ENTRIES", 5 * dim * dim):
            mats = hermitian_stack(rng, 23)
            assert np.array_equal(exp_skew_batch(mats, -1.3), per_matrix(mats, -1.3))

    def test_batch_generic_dim(self):
        rng = np.random.default_rng(10)
        mats = random_stack(rng, 4, 3)
        batch = exp_skew_batch(mats, -0.8)
        for k in range(4):
            np.testing.assert_allclose(batch[k], spectral_exp(mats[k], -0.8), atol=1e-13)


def hermitian_with_theta(rng, d, thetas):
    """Hermitian (n, d, d) stack, entries over six decades, each matrix
    scaled to Frobenius norm thetas[k]."""
    a = rng.normal(size=(len(thetas), d, d)) + 1j * rng.normal(size=(len(thetas), d, d))
    a = (a + np.swapaxes(a, 1, 2).conj()) * 10.0 ** rng.uniform(-3, 3, (len(thetas), 1, 1))
    return a * (thetas / np.linalg.norm(a, axis=(1, 2)))[:, None, None]


class TestTaylorRoute:
    """At d != 2 a matrix with theta = |s| ||A||_F <= _TAYLOR_THETA is
    exponentiated by the degree-8 Taylor polynomial instead of ``eigh``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 3, 4, 8]),
        log_theta=st.floats(-6.0, np.log10(operators._TAYLOR_THETA)),
        sign=st.sampled_from([1.0, -1.0]),
        n=st.sampled_from([1, 5, 1500]),
    )
    def test_agrees_with_eigh_exponential_and_is_unitary(self, seed, d, log_theta, sign, n):
        rng = np.random.default_rng(seed)
        mats = hermitian_with_theta(rng, d, 10.0 ** rng.uniform(-6.0, log_theta, n))
        fro = np.linalg.norm(mats, axis=(1, 2))
        s = sign * 10.0**log_theta / np.max(fro)
        while np.max(abs(s) * fro) > operators._TAYLOR_THETA:
            s = np.nextafter(s, 0.0)
        reference = np.stack([spectral_exp(m, s) for m in mats])
        with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh ran")):
            taylor = exp_skew_batch(mats, s)
        # The eigh route's own forward error is O(d eps) (its unitarity
        # defect reads 22-46 eps at d = 3-8); the Taylor route's is a few
        # eps. Measured: at most 11 eps apart, defects at most 2.6 eps.
        eps = np.finfo(float).eps
        assert np.max(np.abs(taylor - reference)) <= 4 * (d + 2) * eps
        assert max(unitarity_defect(u) for u in taylor) <= (d + 2) * eps

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 3, 4, 8]),
        n=st.integers(2, 40),
        s=st.sampled_from([1.0, -0.7]),
        block=st.sampled_from([1, 3, 1 << 16]),
    )
    def test_mixed_stack_is_each_matrix_alone(self, seed, d, n, s, block):
        # theta from 1e-6 to 20x the cap, one matrix on each side of it.
        rng = np.random.default_rng(seed)
        cap = operators._TAYLOR_THETA
        thetas = 10.0 ** rng.uniform(-6.0, 0.0, n)
        thetas[:2] = 0.5 * cap, 2.0 * cap
        mats = hermitian_with_theta(rng, d, thetas / abs(s))
        with mock.patch.object(operators, "_BLOCK_ENTRIES", block * d * d):
            batch = exp_skew_batch(mats, s)
            for k in range(n):
                assert np.array_equal(batch[k], exp_skew_batch(mats[k : k + 1], s)[0])


class TestConjugatePauli:
    def test_same_axis_invariant(self):
        np.testing.assert_allclose(conjugate_pauli("y", "y", 0.7), SIGMA_Y, atol=1e-15)

    def test_quarter_turn_y_x(self):
        # Direct 2x2 product oracle: e^{i pi/4 sy} sx e^{-i pi/4 sy} = +sz.
        result = conjugate_pauli("y", "x", 0.25 * np.pi)
        np.testing.assert_allclose(result, SIGMA_Z, atol=1e-14)

    def test_zero_angle_identity(self):
        np.testing.assert_allclose(conjugate_pauli("y", "x", 0.0), SIGMA_X, atol=1e-15)

    def test_agrees_with_explicit_conjugation(self):
        rng = np.random.default_rng(42)
        axes = ("x", "y", "z")
        for _ in range(100):
            i = axes[rng.integers(3)]
            j = axes[rng.integers(3)]
            alpha = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
            from qfisher.operators import PAULI

            rotations = exp_skew_batch(np.stack([PAULI[i], PAULI[i]]), alpha)
            explicit = rotations[0].conj().T @ PAULI[j] @ rotations[1]
            assert np.max(np.abs(conjugate_pauli(i, j, alpha) - explicit)) <= 1e-12

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            conjugate_pauli("w", "x", 0.1)


def test_pauli_components_roundtrip():
    rng = np.random.default_rng(77)
    for _ in range(20):
        coeffs = rng.normal(size=4)
        mat = (
            coeffs[0] * IDENTITY_2
            + coeffs[1] * SIGMA_X
            + coeffs[2] * SIGMA_Y
            + coeffs[3] * SIGMA_Z
        )
        np.testing.assert_allclose(pauli_components(mat), coeffs, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    entries=arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.just(4)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
)
def test_pauli_components_batched_matches_single(entries):
    # Stack of Hermitian [[a, b], [conj(b), d]] with b = b_re + i b_im.
    a, d, b_re, b_im = entries.T
    mats = np.empty((entries.shape[0], 2, 2), dtype=complex)
    mats[:, 0, 0], mats[:, 1, 1] = a, d
    mats[:, 0, 1] = b_re + 1j * b_im
    mats[:, 1, 0] = b_re - 1j * b_im
    batched = pauli_components(mats)
    for k, mat in enumerate(mats):
        single = pauli_components(mat)
        for c_batch, c_single in zip(batched, single):
            assert isinstance(c_single, np.float64)
            assert c_batch[k] == c_single
    c_i, c_x, c_y, c_z = (c[:, None, None] for c in batched)
    rebuilt = c_i * IDENTITY_2 + c_x * SIGMA_X + c_y * SIGMA_Y + c_z * SIGMA_Z
    np.testing.assert_allclose(rebuilt, mats, rtol=0.0, atol=1e-12)


def einsum_sandwich(u, h):
    """The three-operand einsum that ``sandwich`` reproduces at d = 2."""
    return np.einsum("nji,njk,nkl->nil", u.conj(), h, u)


def matmul_sandwich(u, h):
    """U^dag (H U) that ``sandwich`` forms at d != 2, one matrix at a time."""
    return np.array([uk.conj().T @ (hk @ uk) for uk, hk in zip(u, h)]).reshape(u.shape)


def reference_sandwich(u, h):
    return einsum_sandwich(u, h) if u.shape[-1] == 2 else matmul_sandwich(u, h)


def assert_same_bits(actual, expected):
    """Equal values and equal signs of every real and imaginary part."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    for a, b in ((actual.real, expected.real), (actual.imag, expected.imag)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def with_signed_zeros(rng, parts, frac):
    """Replace a fraction of the entries by +0.0 or -0.0, in place."""
    mask = rng.random(parts.shape) < frac
    parts[mask] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[mask]
    return parts


def sandwich_operand(rng, kind, n, d, zero_frac):
    """An (n, d, d) complex stack: Gaussian entries over six decades, the
    exact identity (its zeros signed at random), or real entries only."""
    if kind == "identity":
        parts = with_signed_zeros(rng, np.zeros((2, n, d, d)), 1.0)
        parts[0, :, np.arange(d), np.arange(d)] = 1.0
    else:
        parts = rng.normal(size=(2, n, d, d)) * 10.0 ** rng.uniform(-3, 3, (2, n, d, d))
        parts = with_signed_zeros(rng, parts, zero_frac)
        if kind == "real":
            parts[1] = 0.0
    return parts[0] + 1j * parts[1]


def propagated_view(rng, n, d):
    """U(0 -> t_i) of the second of two drives run in one ``_run`` group, as
    a strided view into a point-major (steps+1, 2, d, d) stack: the layout of
    one drive's column of the unitaries a two-drive step loop hands a fold."""
    a, b = (random_hermitian(rng, d) for _ in range(2))
    drives = [
        lambda t, s=s: a + s * np.multiply.outer(np.sin(t), b) for s in (1.0, -0.5)
    ]
    # At least 2000 steps keeps ||H|| dt below the recommended 0.01 up to d = 8.
    grid = TimeGrid(t_end=1.0, steps=max(n - 1, 2000))
    (stack,) = _run([(drives, grid, _every_point(grid))])
    u = stack[:n, 1]
    assert n == 1 or not u.flags.c_contiguous
    return u


OPERAND_KINDS = dict(
    u_kind=st.sampled_from(["gaussian", "identity", "propagated"]),
    h_kind=st.sampled_from(["gaussian", "identity", "real"]),
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)


def sandwich_operands(d, n, u_kind, h_kind, zero_frac, seed):
    rng = np.random.default_rng(seed)
    if u_kind == "propagated":
        u = propagated_view(rng, n, d)
    else:
        u = sandwich_operand(rng, u_kind, n, d, zero_frac)
    return u, sandwich_operand(rng, h_kind, n, d, zero_frac)


def check_sandwich(d, n, u_kind, h_kind, zero_frac, seed):
    u, h = sandwich_operands(d, n, u_kind, h_kind, zero_frac, seed)
    assert_same_bits(sandwich(u, h), reference_sandwich(u, h))


class TestSandwich:
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3, 4, 8]), n=st.sampled_from([1, 2, 3]), **OPERAND_KINDS)
    def test_short_stacks_match_einsum_bitwise(self, d, n, **kinds):
        # The einsum's bits at d = 2, each matrix's own U^dag (H U) otherwise.
        check_sandwich(d, n, **kinds)

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([4096, 4097]), **OPERAND_KINDS)
    def test_full_2x2_block_matches_einsum_bitwise(self, n, **kinds):
        # A full block of the 2x2 kernels (_BLOCK_ENTRIES // 4 points), and
        # one point more.
        check_sandwich(2, n, **kinds)

    @pytest.mark.parametrize("d", [1, 3, 4, 8])
    def test_full_block_of_other_dimensions_is_the_per_matrix_product(self, d):
        check_sandwich(d, 16384, "gaussian", "gaussian", 0.3, seed=d)
        # Against the einsum the matrix products round differently: within
        # the forward error bound of two chained products of length d,
        # 4 (d + 2) eps |U|^T |H| |U| entry by entry.
        u, h = sandwich_operands(d, 16384, "gaussian", "gaussian", 0.3, seed=d)
        err = np.abs(sandwich(u, h) - einsum_sandwich(u, h))
        scale = np.swapaxes(np.abs(u), -2, -1) @ np.abs(h) @ np.abs(u)
        assert np.all(err <= 4 * (d + 2) * np.finfo(float).eps * scale)


def einsum_times_dagger(a, b):
    """The two-operand einsum that ``_times_dagger`` reproduces."""
    return np.einsum("nik,njk->nij", a, b.conj())


def assert_same_words(actual, expected):
    """Equal as uint64 words: every bit of every part, signs of zero
    included."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestTimesDagger:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 7, 2001, 4096, 4097]),
        a_kind=st.sampled_from(["gaussian", "identity", "real"]),
        b_kind=st.sampled_from(["gaussian", "identity", "real"]),
        zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_einsum_bitwise(self, n, a_kind, b_kind, zero_frac, seed):
        # Random entries over six decades, the identity, real stacks (zero
        # imaginary parts, which the conjugate makes -0.0), and +-0.0
        # entries; written into a slice of a longer stack, as
        # synthesize_cd passes one block of its output.
        rng = np.random.default_rng(seed)
        a = sandwich_operand(rng, a_kind, n, 2, zero_frac)
        b = sandwich_operand(rng, b_kind, n, 2, zero_frac)
        out = np.full((n + 3, 2, 2), np.nan, dtype=complex)
        block = out[1 : n + 1]
        _times_dagger(a, b, block)
        assert_same_words(block, einsum_times_dagger(a, b))
        assert np.isnan(out[0]).all() and np.isnan(out[n + 1 :]).all()

    @pytest.mark.parametrize("n", [1, 3, 4097])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_parts_keep_the_einsums_signs(self, n, zero):
        # Every entry a signed zero or a real number: each product and each
        # sum meets a zero, where one sign slip would show.
        rng = np.random.default_rng(n)
        a, b = np.empty((2, n, 2, 2), dtype=complex)
        a.real = rng.choice([zero, 1.0, -2.5], size=a.shape)
        a.imag = rng.choice([zero, 0.5], size=a.shape)
        b.real, b.imag = rng.choice([zero, -1.0], size=b.shape), zero
        out = np.empty_like(a)
        _times_dagger(a, b, out)
        assert_same_words(out, einsum_times_dagger(a, b))


class TestPairwiseSum:
    @settings(max_examples=80, deadline=None)
    @given(
        # Around numpy's 128-entry pieces and the leaf caps of d = 1, 2, 3
        # (16384, 4096 and 1820 terms).
        n=st.one_of(
            st.integers(0, 300),
            st.integers(1750, 1900),
            st.integers(4000, 4200),
            st.integers(16300, 16500),
        ),
        d=st.sampled_from([1, 2, 3, 8]),
        # Leaf caps of one point (so the 128 floor), 200 points, or the default.
        block=st.sampled_from([1, 200, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_add_reduce_bitwise(self, n, d, block, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6, n)
        entries = operators._BLOCK_ENTRIES if block is None else block * d * d
        leaves = []

        def terms(seg):
            leaves.append(seg.stop - seg.start)
            return x[seg]

        with mock.patch.object(operators, "_BLOCK_ENTRIES", entries):
            total = pairwise_sum(n, terms, d)
        expected = np.add.reduce(x)
        assert total == expected and np.signbit(total) == np.signbit(expected)
        assert sum(leaves) == n
        assert max(leaves) <= max(128, entries // (d * d))


def builtin_callbacks():
    """The ten built-in callbacks that go through ``operators._time_stack``,
    each as a function of time alone."""
    freq = make_rotating_qubit(RotatingFieldConfig(B=1.3, omega=0.9))
    amp = make_rotating_qubit(RotatingFieldConfig(B=1.3, omega=0.9, estimand=Estimand.AMPLITUDE))
    frame = sigma_y_removal_frame(1.1)
    basis = track_eigenbasis(freq, 0.9, TimeGrid(t_end=2.0, steps=200))
    return {
        "frequency-hamiltonian": functools.partial(freq.hamiltonian, 0.9),
        "frequency-d_param_h": functools.partial(freq.d_param_h, 0.9),
        "frequency-analytic_cd": functools.partial(freq.analytic_cd, 1.1),
        "amplitude-hamiltonian": functools.partial(amp.hamiltonian, 1.3),
        "amplitude-d_param_h": functools.partial(amp.d_param_h, 1.3),
        "frame-unitary": frame.unitary,
        "frame-connection": frame.connection,
        "transform_hamiltonian": transform_hamiltonian(
            functools.partial(freq.hamiltonian, 0.9), frame
        ),
        "closed_form_transformed_drive": closed_form_transformed_drive(1.3, 0.9, 1.1),
        "GridHamiltonian": synthesize_cd(basis),
    }


@pytest.mark.parametrize("name", list(builtin_callbacks()))
def test_builtin_callback_scalar_is_its_row_of_the_stack(name):
    callback = builtin_callbacks()[name]
    times = [0.0, 0.7, 1.9]
    for t_array in (times, np.array(times)):
        stack = callback(t_array)
        assert stack.shape == (3, 2, 2)
        for k, t in enumerate(times):
            for t_scalar in (t, np.array(t)):
                mat = callback(t_scalar)
                assert mat.shape == (2, 2)
                assert np.array_equal(mat, stack[k])
