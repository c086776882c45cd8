"""Tests for the dense matrix kernel: eigendecomposition, unitary
exponentials, and Pauli conjugation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfisher import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    InvalidMatrix,
    conjugate_pauli,
    eig_hermitian,
)
from qfisher.operators import (
    IDENTITY_2,
    exp_skew_batch,
    hermitize,
    pauli_components,
    require_unitary,
)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(a)


class TestEigHermitian:
    def test_sigma_z_spectrum(self):
        es = eig_hermitian(SIGMA_Z)
        np.testing.assert_allclose(es.values, [-1.0, 1.0], atol=1e-14)
        # Ascending order puts e2 (the -1 eigenvector) first.
        np.testing.assert_allclose(np.abs(es.vectors[:, 0]), [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(es.vectors[:, 1]), [1.0, 0.0], atol=1e-14)

    def test_sigma_x_spectrum(self):
        es = eig_hermitian(SIGMA_X)
        np.testing.assert_allclose(es.values, [-1.0, 1.0], atol=1e-14)

    def test_rotating_derivative_spectrum_at_zero_frequency(self):
        # t B [sin(w t) sx - cos(w t) sz] at B=1, t=2, w=0 is -2 sz.
        mat = 2.0 * (np.sin(0.0) * SIGMA_X - np.cos(0.0) * SIGMA_Z)
        es = eig_hermitian(mat)
        np.testing.assert_allclose(es.values, [-2.0, 2.0], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(11 + dim)
        for _ in range(20):
            a = random_hermitian(rng, dim)
            es = eig_hermitian(a)
            rebuilt = (es.vectors * es.values) @ es.vectors.conj().T
            assert np.linalg.norm(rebuilt - a) <= 1e-9
            assert np.all(np.diff(es.values) >= -1e-12)
            residual = a @ es.vectors - es.vectors * es.values
            assert np.max(np.abs(residual)) <= 1e-9

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 6)
        es = eig_hermitian(a)
        gram = es.vectors.conj().T @ es.vectors
        assert np.linalg.norm(gram - np.eye(6)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_default_gauge_anchor_phase(self, dim):
        rng = np.random.default_rng(dim)
        a = random_hermitian(rng, dim)
        es = eig_hermitian(a)
        for k in range(dim):
            col = es.vectors[:, k]
            anchor = col[int(np.argmax(np.abs(col)))]
            assert abs(np.angle(anchor)) <= 1e-10

    def test_parallel_transport_alignment(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        ref = eig_hermitian(a).vectors
        # A small perturbation keeps branches identifiable.
        b = a + 1e-3 * random_hermitian(rng, 4)
        es = eig_hermitian(b, reference=ref)
        for k in range(4):
            ov = np.vdot(ref[:, k], es.vectors[:, k])
            assert ov.real > 0.99
            assert abs(ov.imag) <= 1e-10

    def test_rejects_nonfinite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidMatrix):
            eig_hermitian(bad)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidMatrix):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


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
            require_unitary(u)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        mats = random_stack(rng, 7, 2)
        batch = exp_skew_batch(mats, 0.37)
        for k in range(7):
            np.testing.assert_allclose(batch[k], spectral_exp(mats[k], 0.37), atol=1e-13)

    def test_batch_generic_dim(self):
        rng = np.random.default_rng(10)
        mats = random_stack(rng, 4, 3)
        batch = exp_skew_batch(mats, -0.8)
        for k in range(4):
            np.testing.assert_allclose(batch[k], spectral_exp(mats[k], -0.8), atol=1e-13)


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


@settings(max_examples=200, deadline=None, database=None)
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
