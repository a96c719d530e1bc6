"""Dense complex linear algebra for small Hermitian systems.

Conventions: hbar = 1, all norms Frobenius. Matrices are plain complex128
numpy arrays; eigenvectors are returned as columns. Tolerances below are
defaults and can be overridden per call.
"""

from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from .exceptions import NonHermitianError

HERMITICITY_RTOL = 1e-12
UNITARITY_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def dagger(M: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(M, -1, -2))


def hermitize(M: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dagger) / 2."""
    return 0.5 * (M + dagger(M))


def hermiticity_defect(M: np.ndarray) -> float:
    """|| M - M^dagger ||_F."""
    M = np.asarray(M, dtype=complex)
    return float(np.linalg.norm(M - dagger(M)))


def check_hermitian(H: np.ndarray, rtol: float):
    """Raise NonHermitianError unless max_k ||H_k - H_k^dagger||_F is at most
    ``rtol * max_k ||H_k||_F``; ``H`` is one matrix or a stack (..., n, n)."""
    scale = max(float(np.max(np.linalg.norm(H, axis=(-2, -1)))), 1e-300)
    defect = float(np.max(np.linalg.norm(H - dagger(H), axis=(-2, -1))))
    if defect > rtol * scale:
        raise NonHermitianError(defect, rtol * scale)


def unitarity_defect(U: np.ndarray) -> float:
    """|| U^dagger U - I ||_F."""
    U = np.asarray(U, dtype=complex)
    n = U.shape[-1]
    return float(np.linalg.norm(dagger(U) @ U - np.eye(n)))


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


def herm_eig(M: np.ndarray, rtol: float = HERMITICITY_RTOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix via the active backend.

    Rejects matrices whose Hermiticity defect exceeds ``rtol * ||M||_F``;
    every kernel then works on the Hermitian part (M + M^dagger) / 2.
    Deterministic: identical input gives bit-identical output.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("herm_eig expects a square matrix")
    check_hermitian(M, rtol)
    w, v = kernels.eigh(M)
    return HermEig(values=w, vectors=v)


def unitary_exp(H: np.ndarray, alpha: float,
                rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """exp(-i * alpha * H) for Hermitian H; unitary by construction."""
    H = np.asarray(H, dtype=complex)
    check_hermitian(H, rtol)
    return kernels.expm_herm(H, float(alpha))
