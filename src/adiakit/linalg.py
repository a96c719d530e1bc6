"""Dense complex linear algebra on small matrices and their stacks.

Conventions: hbar = 1, all norms Frobenius. Matrices are plain complex128
numpy arrays. Eigensolves and step exponentials live in the kernels
(``_kernels_py.eigh_batch`` and ``exponential_map``).
"""

import numpy as np

from ._kernels_py import hermitize  # re-exported
from .exceptions import NonHermitianError

# matrices per block of the blocked stack operations (``_block_slices``)
_BLOCK = 4096

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
    _require_hermitian([_hermiticity_reads(H)], rtol)


def _hermiticity_reads(H: np.ndarray):
    """(``hermiticity_defect(H)``, max_k ||H_k||_F): the two numbers
    ``check_hermitian`` compares."""
    return (hermiticity_defect(H),
            float(np.max(np.linalg.norm(H, axis=(-2, -1)))))


def _require_hermitian(reads, rtol: float):
    """``check_hermitian`` of a stack from the ``_hermiticity_reads`` of its
    blocks: the largest defect against ``rtol`` times the largest norm (a
    NaN propagating as in one read of the whole stack)."""
    defect, scale = np.max(reads, axis=0)
    scale = max(float(scale), 1e-300)
    if defect > rtol * scale:
        raise NonHermitianError(float(defect), rtol * scale)


def _block_slices(count: int):
    """Slices of ``_BLOCK`` consecutive indices that cover range(count)."""
    return [slice(lo, min(lo + _BLOCK, count))
            for lo in range(0, count, _BLOCK)]


def _by_blocks(product, *stacks: np.ndarray) -> np.ndarray:
    """``product(out, *blocks)`` of (K, n, n) stacks, written block by block
    into a (K, n, n) result, ``_BLOCK`` matrices at a time, so that the
    temporaries stay block-sized next to the result."""
    out = np.empty(stacks[-1].shape, dtype=complex)
    for blk in _block_slices(out.shape[0]):
        product(out[blk], *(s[blk] for s in stacks))
    return out


def _product_2x2(out, x, y, adjoint=False):
    """out <- x_k y_k, or x_k^dagger y_k with ``adjoint``, for (K, 2, 2)
    stacks: each output component x_i0 y_0l + x_i1 y_1l is formed on
    component views, the dagger read as conjugated components. These are
    ``matmul_2x2``'s products and sums in its order, so the results are
    bit-identical, without its broadcast temporaries. The chain kernels
    keep ``matmul_2x2``: on their batches of a few matrices the eight
    ufunc calls per product cost more than the temporaries."""
    if adjoint:
        x = [[np.conj(x[:, j, i]) for j in (0, 1)] for i in (0, 1)]
    else:
        x = [[x[:, i, j] for j in (0, 1)] for i in (0, 1)]
    t = np.empty(out.shape[:1], dtype=complex)
    for i in (0, 1):
        for l in (0, 1):
            o = out[:, i, l]
            np.multiply(x[i][0], y[:, 0, l], out=o)
            np.multiply(x[i][1], y[:, 1, l], out=t)
            o += t
    return out


def _sandwich_2x2(out, a, m, b):
    """out <- a_k^dagger (m_k b_k) for (K, 2, 2) stacks."""
    _product_2x2(out, a, _product_2x2(np.empty_like(out), m, b),
                 adjoint=True)


def dagger_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A_k^dagger B_k for every k of two (K, n, n) stacks; by components
    when n == 2."""
    if B.shape[-1] == 2:
        return _by_blocks(
            lambda out, a, b: _product_2x2(out, a, b, adjoint=True), A, B)
    return np.einsum("kji,kjl->kil", A.conj(), B)


def sandwich(A: np.ndarray, M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A_k^dagger (M_k B_k) for (K, n, n) stacks; by components when n == 2."""
    if M.shape[-1] == 2:
        return _by_blocks(_sandwich_2x2, A, M, B)
    return _by_blocks(
        lambda out, a, m, b: np.matmul(dagger(a), m @ b, out=out), A, M, B)


def unitarity_defect(U: np.ndarray) -> float:
    """max_k || U_k^dagger U_k - I ||_F; ``U`` is one matrix or a stack
    (..., n, n). For a frame of eigenvector columns this is the
    orthonormality (completeness) defect."""
    return float(np.max(_unitarity_defects(U)))


def _unitarity_defects(U: np.ndarray) -> np.ndarray:
    """|| U_k^dagger U_k - I ||_F for every matrix of ``U``, flattened to
    (K,)."""
    U = np.asarray(U, dtype=complex)
    n = U.shape[-1]
    U = U.reshape((-1, n, n))
    return np.linalg.norm(dagger_dot(U, U) - np.eye(n), axis=(1, 2))
