"""Dense complex linear algebra for small Hermitian systems.

Conventions: hbar = 1, all norms Frobenius. Matrices are plain complex128
numpy arrays; eigenvectors are returned as columns. Tolerances below are
defaults and can be overridden per call.
"""

from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from ._kernels_py import hermitize, matmul_2x2  # hermitize: re-exported
from .exceptions import NonHermitianError

HERMITICITY_RTOL = 1e-12
UNITARITY_TOL = 1e-10
_BLOCK = 65536

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


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


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    values are ascending; vectors[:, j] is the eigenvector of values[j].
    Phases of the vectors are whatever the solver produced; gauge fixing is
    a separate concern (see adiakit.gauge).
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def _one_hermitian(M, rtol: float, name: str) -> np.ndarray:
    """``M`` as a one-matrix stack (1, n, n); ValueError unless it is
    square, NonHermitianError as ``check_hermitian`` gives it."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} expects a square matrix")
    check_hermitian(M, rtol)
    return M[None]


def herm_eig(M: np.ndarray, rtol: float = HERMITICITY_RTOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix: one row of the numpy
    kernel ``eigh_batch``, any dimension.

    Rejects matrices whose Hermiticity defect exceeds ``rtol * ||M||_F``;
    every kernel then works on the Hermitian part (M + M^dagger) / 2.
    Deterministic: identical input gives bit-identical output.
    """
    w, v = kernels.eigh_batch(_one_hermitian(M, rtol, "herm_eig"))
    return HermEig(values=w[0], vectors=v[0])


def unitary_exp(H: np.ndarray, alpha: float,
                rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """exp(-i * alpha * H) for Hermitian H; unitary by construction. One row
    of the integrators' step exponentials (``kernels.exponential_map``):
    the SU(2) closed form for 2x2, LAPACK eigenpairs otherwise. Rejects H
    as ``herm_eig`` does."""
    exps = kernels.exponential_map(_one_hermitian(H, rtol, "unitary_exp"))
    return exps(np.array([float(alpha)]))[0]
