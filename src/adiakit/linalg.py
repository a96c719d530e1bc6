"""Dense complex linear algebra on small matrices and their stacks.

Conventions: hbar = 1, all norms Frobenius. Matrices are plain complex128
numpy arrays. Eigensolves and step exponentials live in the kernels
(``_kernels_py.eigh_batch`` and ``exponential_map``).
"""

import numpy as np

from ._kernels_py import hermitize, matmul_2x2  # hermitize: re-exported
from .exceptions import NonHermitianError

_BLOCK = 65536

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dagger(M: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(M, -1, -2))


def hermiticity_defect(M: np.ndarray) -> float:
    """max_k || M_k - M_k^dagger ||_F; ``M`` is one matrix or a stack
    (..., n, n). For 2x2 the squared norm is read off the components:
    4 (Im m00)^2 + 4 (Im m11)^2 + 2 |m01 - conj m10|^2."""
    M = np.asarray(M, dtype=complex)
    if M.shape[-1] == 2:
        e = M[..., 0, 1] - np.conj(M[..., 1, 0])
        sq = 2.0 * (np.square(e.real) + np.square(e.imag))
        sq += 4.0 * (np.square(M[..., 0, 0].imag)
                     + np.square(M[..., 1, 1].imag))
        return float(np.sqrt(np.max(sq)))
    return float(np.max(np.linalg.norm(M - dagger(M), axis=(-2, -1))))


def check_hermitian(H: np.ndarray, rtol: float):
    """Raise NonHermitianError unless ``hermiticity_defect(H)`` is at most
    ``rtol * max_k ||H_k||_F``; ``H`` is one matrix or a stack (..., n, n)."""
    scale = max(float(np.max(np.linalg.norm(H, axis=(-2, -1)))), 1e-300)
    defect = hermiticity_defect(H)
    if defect > rtol * scale:
        raise NonHermitianError(defect, rtol * scale)


def _by_blocks(product, *stacks: np.ndarray) -> np.ndarray:
    """``product`` of (K, n, n) stacks, evaluated on blocks of ``_BLOCK``
    matrices, so that the temporaries stay block-sized next to the
    (K, n, n) result."""
    out = np.empty(stacks[-1].shape, dtype=complex)
    for lo in range(0, out.shape[0], _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        out[blk] = product(*(s[blk] for s in stacks))
    return out


def dagger_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A_k^dagger B_k for every k of two (K, n, n) stacks; by components
    when n == 2."""
    if B.shape[-1] == 2:
        return _by_blocks(lambda a, b: matmul_2x2(dagger(a), b), A, B)
    return np.einsum("kji,kjl->kil", A.conj(), B)


def sandwich(A: np.ndarray, M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A_k^dagger (M_k B_k) for (K, n, n) stacks; by components when n == 2."""
    mul = matmul_2x2 if M.shape[-1] == 2 else np.matmul
    return _by_blocks(lambda a, m, b: mul(dagger(a), mul(m, b)), A, M, B)


def unitarity_defect(U: np.ndarray) -> float:
    """max_k || U_k^dagger U_k - I ||_F; ``U`` is one matrix or a stack
    (..., n, n). For a frame of eigenvector columns this is the
    orthonormality (completeness) defect."""
    U = np.asarray(U, dtype=complex)
    n = U.shape[-1]
    U = U.reshape((-1, n, n))
    return float(np.max(np.linalg.norm(dagger_dot(U, U) - np.eye(n),
                                       axis=(1, 2))))
