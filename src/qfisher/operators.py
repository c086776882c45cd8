"""Dense complex matrix kernel: Hermitian eigendecomposition with gauge control,
unitary exponentials of Hermitian generators, and Pauli algebra helpers.

All operators are plain complex numpy arrays; the functions here validate the
structural invariants (finite entries, Hermiticity) instead of wrapping arrays
in dedicated classes. Units follow hbar = 1 throughout.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimMismatch, InvalidMatrix

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

HERMITICITY_RTOL = 1e-12

# Complex entries (256 KiB) per block of the stacked kernels: ``sandwich``
# and the Taylor exponential take a block in one pass, and the step loop's
# ring of cached views (``propagation._run``) holds a fixed fraction of one.
# It sets memory only: every block-streamed kernel gives the same bits at
# any block length.
_BLOCK_ENTRIES = 1 << 14
# Largest theta = |s| ||A||_F that ``SpectralBlock.exp_skew`` exponentiates
# with the degree-8 Taylor polynomial at d != 2.
_TAYLOR_THETA = 0.05
# 1/k! for k = 0..8, three at a time: the I, X, X^2 coefficients of B0, B1, B2.
_TAYLOR_COEFFS = ((1.0, 1.0, 1 / 2), (1 / 6, 1 / 24, 1 / 120), (1 / 720, 1 / 5040, 1 / 40320))


def block_slices(start: int, stop: int, d: int) -> list[slice]:
    """Consecutive slices of at most ``_BLOCK_ENTRIES // d**2`` points that
    cover ``start..stop-1``. Stacked d x d kernels work through a grid in
    these, so their temporaries stay a few MB whatever the grid length."""
    step = max(1, _BLOCK_ENTRIES // (d * d))
    return [slice(a, min(a + step, stop)) for a in range(start, stop, step)]


def pairwise_sum(n: int, terms: Callable[[slice], np.ndarray], d: int) -> float:
    """``np.add.reduce`` of a length-n float64 array, bit for bit, without
    forming the array: ``terms(s)`` returns its entries in slice s.

    numpy sums a contiguous float64 array pairwise: it halves n, rounding
    ``n // 2`` down to a multiple of 8, until a piece has at most 128
    entries, and sums such a piece with 8 accumulators. This follows the
    same halving until a piece has at most ``max(128, _BLOCK_ENTRIES // d**2)``
    entries, forms it with ``terms`` and sums it with ``np.add.reduce``, so
    one block of terms is alive at a time. Bit-identity assumes numpy's
    halving rule, as verified on numpy 2.4.6.
    """
    return float(_pairwise(0, n, terms, max(128, _BLOCK_ENTRIES // (d * d))))


def _pairwise(lo: int, n: int, terms: Callable, cap: int):
    # Plain recursion with an offset: a recursive closure refers to itself
    # through its cell, a reference cycle that would keep ``terms`` and the
    # arrays it holds alive until the cyclic garbage collector runs.
    if n <= cap:
        return np.add.reduce(terms(slice(lo, lo + n)))
    half = n // 2 - (n // 2) % 8
    return _pairwise(lo, half, terms, cap) + _pairwise(lo + half, n - half, terms, cap)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a (..., d, d) stack."""
    return np.swapaxes(a, -2, -1).conj()


def sandwich(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """U^dag H U for every matrix of two (n, d, d) stacks.

    At d = 2 it is bit for bit ``np.einsum("nji,njk,nkl->nil", u.conj(), h,
    u)``, signs of zero included, and 2-3x faster per point in a full block.
    It repeats einsum's own sum in real arithmetic on float rows of the
    whole stack: entry (i, l) adds the terms (conj(u_ji) h_jk) u_kl onto
    +0.0, j-major then k, and every complex product is (ar br - ai bi,
    ar bi + ai br) with the conjugate folded into the signs, which IEEE
    arithmetic keeps exact. numpy's complex multiply rounds differently (up
    to 1.8e-15 off the einsum in any summation order), so it is not used.
    Bit-identity assumes that einsum sums without FMA, as it does in numpy
    2.4 on x86-64.

    Other dimensions form ``dagger(u) @ (h @ u)``: two stacked products in
    BLAS, O(d^3) per point where the three-operand einsum is O(d^4). Their
    bits follow BLAS zgemm, each matrix as if multiplied alone, whatever the
    stack length or strides; they differ from the einsum's by rounding only
    (a few 1e-15 at unit scale).
    """
    if u.shape[-1] != 2:
        return dagger(u) @ (h @ u)
    (ur, ui), (hr, hi) = _float_rows(u), _float_rows(h)
    out = np.empty((len(u), 2, 2, 2))  # point, i, l, (re, im)
    for i in (0, 1):
        acc_r = acc_i = 0.0
        for j in (0, 1):
            # conj(u_ji) h_jk for both k, then times u_kl for both l.
            p_r = ur[j, i] * hr[j] + ui[j, i] * hi[j]
            p_i = ur[j, i] * hi[j] - ui[j, i] * hr[j]
            for k in (0, 1):
                acc_r = acc_r + (p_r[k] * ur[k] - p_i[k] * ui[k])
                acc_i = acc_i + (p_r[k] * ui[k] + p_i[k] * ur[k])
        out[:, i, :, 0] = acc_r.T
        out[:, i, :, 1] = acc_i.T
    return out.view(complex).reshape(len(u), 2, 2)


def _times_dagger(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A B^dag for every matrix of two (n, 2, 2) stacks, written into the
    contiguous complex stack ``out``: bit for bit ``np.einsum("nik,njk->nij",
    a, b.conj())``, signs of zero included. As in ``sandwich``, entry (i, j)
    adds the einsum's products (ar br - ai bi, ar bi + ai br) onto +0.0 in k
    order on float rows, the conjugate folded into the signs; this assumes
    that the einsum sums without FMA, as numpy 2.4 does on x86-64."""
    (ar, ai), (br, bi) = _float_rows(a), _float_rows(b)
    acc_r = acc_i = 0.0
    for k in (0, 1):
        xr, xi = ar[:, None, k], ai[:, None, k]  # a_ik as [i, 1, point]
        yr, yi = br[None, :, k], bi[None, :, k]  # b_jk as [1, j, point]
        acc_r = acc_r + (xr * yr + xi * yi)
        acc_i = acc_i + (xi * yr - xr * yi)
    rows = out.view(float).reshape(len(out), 2, 2, 2)  # point, i, j, (re, im)
    rows[..., 0] = acc_r.transpose(2, 0, 1)
    rows[..., 1] = acc_i.transpose(2, 0, 1)


def _float_rows(x: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of an (n, 2, 2) stack copied into contiguous
    rows, indexed [part, row, column, point]."""
    rows = np.empty((2, 2, 2, len(x)))
    rows[0] = x.real.transpose(1, 2, 0)
    rows[1] = x.imag.transpose(1, 2, 0)
    return rows


def _time_stack(stack_of: Callable) -> Callable:
    """The callback of scalar or array time t for ``stack_of(*lead, ts)``,
    which maps leading arguments (such as g or self) and a 1-D float array
    of n times to an (n, d, d) stack: a 0-d t gives the matrix."""

    def callback(*args):
        t = np.asarray(args[-1], dtype=float)
        mats = stack_of(*args[:-1], np.atleast_1d(t))
        return mats[0] if t.ndim == 0 else mats

    return callback


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2 of every matrix of a (..., d, d) stack."""
    return 0.5 * (a + dagger(a))


def hermiticity_defect(a: np.ndarray) -> float | np.ndarray:
    """||A - A^dagger||_F relative to max(1, ||A||_F), per matrix of a
    (..., d, d) stack: the one Hermiticity measure of every input check.
    Each norm sums the squares of a contiguous copy's float entries."""
    a = np.asarray(a, dtype=complex)
    flat = a.shape[:-2] + (a.shape[-2] * a.shape[-1],)
    skew, rows = (np.ascontiguousarray(x).reshape(flat).view(float) for x in (a - dagger(a), a))
    defect = np.sqrt(np.einsum("...i,...i->...", skew, skew))
    return defect / np.maximum(1.0, np.sqrt(np.einsum("...i,...i->...", rows, rows)))


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate a finite, Hermitian square matrix, or a (..., d, d) stack of
    them, and return it as complex."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidMatrix("matrix has non-finite entries")
    defect = float(np.max(hermiticity_defect(a), initial=0.0))
    if defect > HERMITICITY_RTOL:
        raise InvalidMatrix(f"matrix is not Hermitian (relative defect {defect:.3e})")
    return a


def require_state(psi: np.ndarray, dim: int) -> np.ndarray:
    """Validate a state vector of dimension ``dim`` normalized to 1e-12,
    and return it as complex."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise DimMismatch(f"state has shape {psi.shape}, expected ({dim},)")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"state must be normalized, got ||psi0|| = {norm}")
    return psi


def unitarity_defect(u: np.ndarray) -> float:
    return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


def _fix_gauge_largest_component(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        anchor = col[int(np.argmax(np.abs(col)))]
        phase = anchor / abs(anchor)
        out[:, k] = col * phase.conjugate()
    return out


def _align_phases(vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate each column in place so <ref_k|v_k> is real positive; columns
    orthogonal to their reference are left as they are."""
    for k in range(vectors.shape[1]):
        ov = np.vdot(reference[:, k], vectors[:, k])
        if abs(ov) > 0:
            vectors[:, k] *= (ov / abs(ov)).conjugate()
    return vectors


def _eig2_closed_form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ascending eigensystem of a 2x2 Hermitian matrix."""
    p = a[0, 0].real
    q = a[1, 1].real
    b = a[0, 1]
    mean = 0.5 * (p + q)
    half_diff = 0.5 * (p - q)
    radius = float(np.hypot(half_diff, abs(b)))
    values = np.array([mean - radius, mean + radius])
    if radius == 0.0 or abs(b) == 0.0:
        # Diagonal matrix: coordinate eigenvectors ordered by value.
        if p <= q:
            vectors = np.eye(2, dtype=complex)
        else:
            vectors = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return values, vectors
    vectors = np.empty((2, 2), dtype=complex)
    for col, lam in enumerate(values):
        # Two algebraically equivalent null vectors of (A - lam); pick the
        # better-conditioned one.
        cand1 = np.array([b, lam - p], dtype=complex)
        cand2 = np.array([lam - q, b.conjugate()], dtype=complex)
        v = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
        vectors[:, col] = v / np.linalg.norm(v)
    return values, vectors


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    Hermitian matrix, as ``np.linalg.eigh`` returns them, with a
    deterministic gauge: each eigenvector's largest-magnitude component is
    made real positive.
    (Parallel transport along a path is ``control.track_eigenbasis``.)"""
    a = require_hermitian(a)
    if a.ndim != 2:
        raise InvalidMatrix(f"expected a single matrix, got shape {a.shape}")
    if a.shape[0] == 2:
        values, vectors = _eig2_closed_form(a)
    else:
        values, vectors = np.linalg.eigh(a)
        values = values.real
    return values, _fix_gauge_largest_component(vectors)


def pauli_components(a: np.ndarray) -> tuple:
    """Real coefficients (c_I, c_x, c_y, c_z) of a 2x2 Hermitian matrix in the
    basis {I, sigma_x, sigma_y, sigma_z}; a (..., 2, 2) stack gives four
    arrays of shape (...)."""
    a = np.asarray(a, dtype=complex)
    c_i = 0.5 * (a[..., 0, 0] + a[..., 1, 1]).real
    c_z = 0.5 * (a[..., 0, 0] - a[..., 1, 1]).real
    c_x = a[..., 0, 1].real
    c_y = -a[..., 0, 1].imag
    # [()] turns the 0-d results of a single matrix into scalars.
    return c_i[()], c_x[()], c_y[()], c_z[()]


def _xz_rotation_matrices(coeff_x: np.ndarray, coeff_z: np.ndarray) -> np.ndarray:
    """Stack of coeff_x[k]*sigma_x + coeff_z[k]*sigma_z (real coefficients)."""
    coeff_x = np.asarray(coeff_x, dtype=float)
    out = np.zeros(coeff_x.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = coeff_z
    out[..., 1, 1] = -coeff_z
    out[..., 0, 1] = coeff_x
    out[..., 1, 0] = coeff_x
    return out


class SpectralBlock:
    """One pass over an (n, d, d) stack of Hermitian matrices that both a
    bound on their spectral norms and their exponentials read: the Pauli
    components at d = 2, the Frobenius norms at other dimensions."""

    def __init__(self, mats: np.ndarray):
        self.dim = mats.shape[-1]
        if self.dim == 2:
            c0, cx, cy, cz = pauli_components(mats)
            self._parts = (c0, cx, cy, cz, np.sqrt(cx * cx + cy * cy + cz * cz))
        else:
            self._parts = (mats, np.linalg.norm(mats, axis=(1, 2)))

    @property
    def norms(self) -> np.ndarray:
        """A bound on max |eigenvalue| of each matrix: at d = 2,
        |c_I| + |c_vec|, which is the 2x2 spectral norm exactly; at other
        dimensions the Frobenius norm."""
        if self.dim == 2:
            c0, _, _, _, r = self._parts
            return np.abs(c0) + r
        return self._parts[1]

    def exp_skew(self, s: float) -> np.ndarray:
        """exp(-i*s*A_k) of each matrix; at d = 2 through the closed SU(2)
        form exp(-i*theta*(n.sigma)) = cos(theta) I - i sin(theta) (n.sigma),
        whose shared factors (s*r, the r > 0 mask, i sinc c_z and -i sinc)
        are formed once per block.

        At other dimensions each matrix picks its route from its own
        theta = |s| ||A_k||_F: the degree-8 Taylor polynomial at theta up to
        ``_TAYLOR_THETA``, the spectral form from ``eigh`` above it. Both
        routes give each matrix the bits it gets alone."""
        if self.dim != 2:
            mats, fro = self._parts
            taylor = abs(s) * fro <= _TAYLOR_THETA
            if taylor.all():
                return _exp_taylor(mats, s)
            out = np.empty_like(mats)
            if taylor.any():
                out[taylor] = _exp_taylor(mats[taylor], s)
            out[~taylor] = _exp_spectral(mats[~taylor], s)
            return out
        c0, cx, cy, cz, r = self._parts
        sr, nonzero = s * r, r > 0.0
        cos = np.cos(sr)
        # sin(s*r)/r with the r -> 0 limit handled explicitly.
        sinc = np.where(nonzero, np.sin(sr) / np.where(nonzero, r, 1.0), s)
        phase = np.exp(-1j * s * c0)
        z_term, minus_i_sinc = 1j * sinc * cz, -1j * sinc
        out = np.empty(r.shape + (2, 2), dtype=complex)
        out[:, 0, 0] = cos - z_term
        out[:, 1, 1] = cos + z_term
        out[:, 0, 1] = minus_i_sinc * (cx - 1j * cy)
        out[:, 1, 0] = minus_i_sinc * (cx + 1j * cy)
        # In place: the phase times each entry, without a second stack.
        return np.multiply(phase[:, None, None], out, out=out)


def _exp_spectral(mats: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*A_k) of an (n, d, d) stack from its stacked ``eigh``."""
    values, vectors = np.linalg.eigh(mats)
    rotated = vectors * np.exp(-1j * s * values)[:, None, :]
    return rotated @ dagger(vectors)


def _exp_taylor(mats: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*A_k) of an (n, d, d) stack by the degree-8 Taylor polynomial
    of X = -i s A_k, for |s| ||A_k||_F <= ``_TAYLOR_THETA``.

    Paterson-Stockmeyer: X^2, X^3 = X^2 X, then B0 + X^3 (B1 + X^3 B2), where
    B_j = c_j0 I + c_j1 X + c_j2 X^2 carries the coefficients 1/k! of
    X^(3j), X^(3j+1), X^(3j+2); four stacked matmuls per matrix. The
    remainder is at most theta^9/9! e^theta < 6e-18. One pass over the
    block; every step is entrywise or one matrix product per matrix, so
    each matrix gets the bits it gets alone.
    """
    x = np.empty(mats.shape, dtype=complex)
    # X = -i s A in real arithmetic: re X = s im A, im X = -s re A.
    np.multiply(mats.imag, s, out=x.real)
    np.multiply(mats.real, -s, out=x.imag)
    x2 = x @ x
    x3 = x2 @ x
    inner = np.zeros_like(x)
    _add_quadratic(inner, _TAYLOR_COEFFS[2], x, x2)
    inner = x3 @ inner
    _add_quadratic(inner, _TAYLOR_COEFFS[1], x, x2)
    out = x3 @ inner
    _add_quadratic(out, _TAYLOR_COEFFS[0], x, x2)
    return out


def _add_quadratic(target, coeffs, x, x2) -> None:
    """target += c0 I + c1 X + c2 X^2 per matrix, in place. The powers are
    scaled as floats: complex times real can flip the sign of a zero."""
    c0, c1, c2 = coeffs
    for c, power in ((c1, x), (c2, x2)):
        target += (power.view(float) * c).view(complex)
    target.reshape(len(target), -1)[:, :: target.shape[-1] + 1] += c0


def exp_skew_batch(mats: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*A_k) for a stack of Hermitian matrices, shape (n, d, d).

    Unitary to rounding; s = 0 returns identities exactly. Each block of
    ``block_slices`` goes through one ``SpectralBlock`` in one pass, so the
    block bounds every temporary: the closed SU(2) form at d = 2; at other
    dimensions, per matrix, the degree-8 Taylor polynomial where
    |s| ||A_k||_F <= ``_TAYLOR_THETA`` (every step within the step loop's
    recommended ||H|| dt <= 0.01 up to d = 25, since ||A||_F <= sqrt(d) ||A||)
    and the stacked ``eigh`` form above it. Each matrix's bits do not depend
    on the stack around it.
    """
    mats = np.asarray(mats, dtype=complex)
    n, d, _ = mats.shape
    if s == 0.0:
        return np.broadcast_to(np.eye(d, dtype=complex), mats.shape).copy()
    out = np.empty_like(mats)
    for blk in block_slices(0, n, d):
        out[blk] = SpectralBlock(mats[blk]).exp_skew(s)
    return out


def conjugate_pauli(i: str, j: str, alpha: float) -> np.ndarray:
    """exp(i*alpha*sigma_i) sigma_j exp(-i*alpha*sigma_i).

    Closed form: sigma_i for i = j, else
    cos(2*alpha)*sigma_j + (i/2)*sin(2*alpha)*[sigma_i, sigma_j].
    """
    if i not in PAULI or j not in PAULI:
        raise ValueError(f"Pauli indices must be in {{x, y, z}}, got ({i!r}, {j!r})")
    if i == j:
        return PAULI[i].copy()
    a, b = PAULI[i], PAULI[j]
    return np.cos(2.0 * alpha) * b + 0.5j * np.sin(2.0 * alpha) * (a @ b - b @ a)
