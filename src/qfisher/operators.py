"""Dense complex matrix kernel: Hermitian eigendecomposition with gauge control,
unitary exponentials of Hermitian generators, and Pauli algebra helpers.

All operators are plain complex numpy arrays; the functions here validate the
structural invariants (finite entries, Hermiticity, unitarity) instead of
wrapping arrays in dedicated classes. Units follow hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

HERMITICITY_RTOL = 1e-12
UNITARITY_TOL = 1e-9

# Complex entries (1 MiB) per block of the stacked d > 2 kernels.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    Hermitian operator."""

    values: np.ndarray
    vectors: np.ndarray


def block_slices(start: int, stop: int, d: int) -> list[slice]:
    """Consecutive slices of at most ``_BLOCK_ENTRIES // d**2`` points that
    cover ``start..stop-1``. Stacked d x d kernels work through a grid in
    these, so their temporaries stay a few MB whatever the grid length."""
    step = max(1, _BLOCK_ENTRIES // (d * d))
    return [slice(a, min(a + step, stop)) for a in range(start, stop, step)]


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a (..., d, d) stack."""
    return np.swapaxes(a, -2, -1).conj()


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2."""
    return 0.5 * (a + a.conj().T)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hermiticity_defect(a: np.ndarray) -> float | np.ndarray:
    """||A - A^dagger||_F relative to max(1, ||A||_F), per matrix of a
    (..., d, d) stack."""
    axes = (-2, -1)
    defect = np.linalg.norm(a - dagger(a), axis=axes)
    return defect / np.maximum(1.0, np.linalg.norm(a, axis=axes))


def require_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate a finite, Hermitian square matrix, or a (..., d, d) stack of
    them, and return it as complex."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidMatrix("matrix has non-finite entries")
    defect = float(np.max(hermiticity_defect(a), initial=0.0))
    if defect > rtol:
        raise InvalidMatrix(f"matrix is not Hermitian (relative defect {defect:.3e})")
    return a


def unitarity_defect(u: np.ndarray) -> float:
    return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


def require_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if unitarity_defect(u) > tol:
        raise InvalidMatrix(
            f"matrix is not unitary (defect {unitarity_defect(u):.3e})"
        )
    return u


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


def eig_hermitian(a: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge:
    each eigenvector's largest-magnitude component is made real positive.
    (Parallel transport along a path is ``control.track_eigenbasis``.)"""
    a = require_hermitian(a)
    if a.ndim != 2:
        raise InvalidMatrix(f"expected a single matrix, got shape {a.shape}")
    if a.shape[0] == 2:
        values, vectors = _eig2_closed_form(a)
    else:
        values, vectors = np.linalg.eigh(a)
        values = values.real
    return EigenSystem(values=values, vectors=_fix_gauge_largest_component(vectors))


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


def exp_skew_batch(mats: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*A_k) for a stack of Hermitian matrices, shape (n, d, d).

    Spectral form, exact for Hermitian generators; s = 0 returns identities
    exactly. The 2x2 case is fully vectorized through the closed SU(2) form
    exp(-i*theta*(n.sigma)) = cos(theta) I - i sin(theta) (n.sigma); other
    dimensions take stacked spectral exponentials, block by block.
    """
    mats = np.asarray(mats, dtype=complex)
    n, d, _ = mats.shape
    if s == 0.0:
        return np.broadcast_to(np.eye(d, dtype=complex), mats.shape).copy()
    if d == 2:
        c0, cx, cy, cz = pauli_components(mats)
        r = np.sqrt(cx * cx + cy * cy + cz * cz)
        cos = np.cos(s * r)
        # sin(s*r)/r with the r -> 0 limit handled explicitly.
        safe_r = np.where(r > 0.0, r, 1.0)
        sinc = np.where(r > 0.0, np.sin(s * r) / safe_r, s)
        phase = np.exp(-1j * s * c0)
        out = np.zeros_like(mats)
        out[:, 0, 0] = cos - 1j * sinc * cz
        out[:, 1, 1] = cos + 1j * sinc * cz
        out[:, 0, 1] = -1j * sinc * (cx - 1j * cy)
        out[:, 1, 0] = -1j * sinc * (cx + 1j * cy)
        # In place: the phase times each entry, without a second stack.
        return np.multiply(phase[:, None, None], out, out=out)
    out = np.empty_like(mats)
    for blk in block_slices(0, n, d):
        values, vectors = np.linalg.eigh(mats[blk])
        rotated = vectors * np.exp(-1j * s * values)[:, None, :]
        out[blk] = rotated @ dagger(vectors)
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
    return np.cos(2.0 * alpha) * PAULI[j] + 0.5j * np.sin(2.0 * alpha) * commutator(
        PAULI[i], PAULI[j]
    )
