"""Time-dependent Hamiltonian and unitary paths in scaled time.

A path maps scaled time s (and a time-scale factor tau = dt/ds) to a matrix.
With hbar = 1 the scaled Schrodinger equation reads

    i dU/ds = tau * H(s, tau) * U,

so tau -> infinity is the adiabatic limit. For the rotating spin-half model
one field rotation spans s in [0, 2*pi] and tau = 1/omega.

Every path callable is a batch callable: ``fn(s_values, tau)`` takes a 1-D
array of s values and returns the (len(s_values), n, n) stack of matrices
at those points. Anything else raises ValueError. ``eval`` and
``derivative`` at a single s are one-row views of the batch calls.

Paths are immutable after construction and evaluation is pure; concurrent
evaluation at distinct (s, tau) is safe.
"""

from typing import Callable, Optional

import numpy as np

from .linalg import dagger

BatchFn = Callable[[np.ndarray, float], np.ndarray]

# finite-difference step of path derivatives without an analytic one
FD_STEP = 1e-4

# 4th-order finite-difference stencils as integer weights over a common
# denominator: central at s + h * (-2, -1, 1, 2), one-sided (forward) at
# s + h * (0, 1, 2, 3, 4)
FD4_DENOMINATOR = 12.0
FD4_CENTRAL_NUMERATORS = np.array([1.0, -8.0, 8.0, -1.0])
FD4_FORWARD_NUMERATORS = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])

_FD4_STENCILS = (
    (np.array([-2.0, -1.0, 1.0, 2.0]), FD4_CENTRAL_NUMERATORS / FD4_DENOMINATOR),
    (np.arange(5.0), FD4_FORWARD_NUMERATORS / FD4_DENOMINATOR),
)


def check_grid(grid, min_points: int) -> np.ndarray:
    """``grid`` as a float array; ValueError unless it is 1-D, strictly
    ascending and has at least ``min_points`` points."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < min_points:
        raise ValueError(
            f"grid must be a 1-D array with at least {min_points} points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    return grid


def grid_index(grid: np.ndarray, s: float) -> int:
    """Index of the grid point equal to ``s`` within 1e-9 * max(1, |s|);
    ValueError if there is none."""
    k = int(np.argmin(np.abs(grid - s)))
    if abs(grid[k] - s) > 1e-9 * max(1.0, abs(s)):
        raise ValueError(f"s={s} is not a grid point")
    return k


def is_uniform(x: np.ndarray) -> bool:
    """True when every spacing of ``x`` equals the first to rtol 1e-9."""
    dx = np.diff(x)
    return bool(np.allclose(dx, dx[0], rtol=1e-9, atol=0.0))


def midpoint_refined(grid: np.ndarray) -> np.ndarray:
    """``grid`` with every interval midpoint inserted: 2N - 1 points, the
    original ones at the even indices."""
    fine = np.empty(2 * len(grid) - 1)
    fine[0::2] = grid
    fine[1::2] = 0.5 * (grid[:-1] + grid[1:])
    return fine


def _call_batch(fn: BatchFn, s_values: np.ndarray, tau: float,
                dim: int) -> np.ndarray:
    if s_values.ndim != 1:
        raise ValueError(f"s_values must be a 1-D array, got shape {s_values.shape}")
    out = np.asarray(fn(s_values, float(tau)), dtype=complex)
    expected = (len(s_values), dim, dim)
    if out.shape != expected:
        raise ValueError(
            f"path callable must map an array of {len(s_values)} s values to "
            f"a stack of shape {expected}, got shape {out.shape}")
    return out


def fd4_derivative(path, s_values, tau: float, h: float,
                   s_min: Optional[float] = None) -> np.ndarray:
    """4th-order finite-difference d/ds of ``path.eval_batch`` at every s.

    Central stencil, except at points within 2h of ``s_min``, which take the
    one-sided 5-point forward stencil so that no sample falls below s_min.
    ``path`` is any object with ``dim`` and ``eval_batch(s_values, tau)``.
    """
    s_values = np.asarray(s_values, dtype=float)
    near = (np.zeros(len(s_values), dtype=bool) if s_min is None
            else s_values - 2 * h < s_min)
    out = np.empty((len(s_values), path.dim, path.dim), dtype=complex)
    for rows, (offsets, weights) in zip((~near, near), _FD4_STENCILS):
        if not rows.any():
            continue
        s = s_values[rows]
        samples = path.eval_batch((s[:, None] + h * offsets[None, :]).ravel(),
                                  tau)
        samples = samples.reshape(len(s), len(offsets), path.dim, path.dim)
        out[rows] = np.tensordot(samples, weights, axes=(1, 0)) / h
    return out


class HamiltonianPath:
    """Map (s, tau) -> Hermitian matrix, with optional analytic derivative.

    ``eval_fn`` and ``derivative_fn`` are batch callables (see module doc);
    without ``derivative_fn`` the derivative is ``fd4_derivative``.
    """

    def __init__(self, dim: int, eval_fn: BatchFn,
                 derivative_fn: Optional[BatchFn] = None, name: str = ""):
        self.dim = int(dim)
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        self._eval_fn = eval_fn
        self._deriv_fn = derivative_fn
        self.name = name

    def eval(self, s: float, tau: float = 1.0) -> np.ndarray:
        return self.eval_batch(np.array([float(s)]), tau)[0]

    def eval_batch(self, s_values: np.ndarray, tau: float = 1.0) -> np.ndarray:
        s_values = np.asarray(s_values, dtype=float)
        return _call_batch(self._eval_fn, s_values, tau, self.dim)

    def derivative(self, s: float, tau: float = 1.0) -> np.ndarray:
        return self.derivative_batch(np.array([float(s)]), tau)[0]

    def derivative_batch(self, s_values: np.ndarray,
                         tau: float = 1.0) -> np.ndarray:
        """dH/ds, analytic when registered, else ``fd4_derivative``."""
        s_values = np.asarray(s_values, dtype=float)
        if self._deriv_fn is None:
            return fd4_derivative(self, s_values, tau, FD_STEP)
        return _call_batch(self._deriv_fn, s_values, tau, self.dim)


class UnitaryPath:
    """Map (s, tau) -> unitary matrix with U(0, tau) = identity.

    ``eval_fn`` is a batch callable (see module doc). ``generator`` is, when
    known, the Hamiltonian path G satisfying i dU/ds = tau * G(s, tau) * U;
    transformed-frame constructions need it.
    """

    def __init__(self, dim: int, eval_fn: BatchFn,
                 generator: Optional[HamiltonianPath] = None, name: str = ""):
        self.dim = int(dim)
        self._eval_fn = eval_fn
        self.generator = generator
        self.name = name

    def eval(self, s: float, tau: float = 1.0) -> np.ndarray:
        return self.eval_batch(np.array([float(s)]), tau)[0]

    def eval_batch(self, s_values: np.ndarray, tau: float = 1.0) -> np.ndarray:
        s_values = np.asarray(s_values, dtype=float)
        return _call_batch(self._eval_fn, s_values, tau, self.dim)

    def with_generator(self, generator: HamiltonianPath) -> "UnitaryPath":
        return UnitaryPath(self.dim, self._eval_fn, generator=generator,
                           name=self.name)

    def adjoint(self, name: str = "") -> "UnitaryPath":
        """Pointwise Hermitian conjugate path (origin stays the identity)."""
        return UnitaryPath(
            self.dim, lambda sv, tau: dagger(self.eval_batch(sv, tau)),
            name=name or (self.name + "^dagger"))


def constant_hamiltonian(H0: np.ndarray, name: str = "constant") -> HamiltonianPath:
    H0 = np.asarray(H0, dtype=complex)
    dim = H0.shape[0]
    return HamiltonianPath(
        dim,
        lambda sv, tau: np.broadcast_to(H0, (len(sv), dim, dim)).copy(),
        derivative_fn=lambda sv, tau: np.zeros((len(sv), dim, dim), dtype=complex),
        name=name)


def identity_unitary(dim: int) -> UnitaryPath:
    eye = np.eye(dim, dtype=complex)
    return UnitaryPath(
        dim, lambda sv, tau: np.broadcast_to(eye, (len(sv), dim, dim)).copy(),
        name="identity")
