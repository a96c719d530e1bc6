"""Unitary-transformed Hamiltonian constructions.

Central objects: the dual of a Hamiltonian under its own exact propagator,
H_dual = -U^dagger H U (which shares all quantitative adiabatic-condition
values with H yet evolves non-adiabatically), its pointwise negation, and
the general sign * U^dagger H U family.

For a transformed path whose unitary is generated by G (i dU/ds = tau G U),
the derivative is available in closed form:

    d/ds [U^dagger M U] = U^dagger ( dM/ds + i tau [G, M] ) U,

and for the dual case G = M the commutator vanishes identically.
"""

from typing import Optional

import numpy as np

from .exceptions import NonSmoothUnitaryError
from .linalg import hermitize, sandwich
from .paths import HamiltonianPath, UnitaryPath, fd4_derivative


class TransformedHamiltonianPath(HamiltonianPath):
    """sign * U(s,tau)^dagger H_base(s,tau) U(s,tau)."""

    def __init__(self, base: HamiltonianPath, unitary: UnitaryPath,
                 sign: int, name: str = ""):
        if base.dim != unitary.dim:
            raise ValueError("dimension mismatch between base path and unitary")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.base = base
        self.unitary = unitary
        self.sign = int(sign)
        super().__init__(
            base.dim, self._eval_many,
            derivative_fn=self._deriv_many if unitary.generator is not None else None,
            name=name or f"{'-' if sign < 0 else ''}U^dag({base.name})U")

    def _eval_many(self, s_values, tau):
        H = self.base.eval_batch(s_values, tau)
        U = self.unitary.eval_batch(s_values, tau)
        return self.sign * sandwich(U, H, U)

    def _deriv_many(self, s_values, tau):
        Hd = self.base.derivative_batch(s_values, tau)
        U = self.unitary.eval_batch(s_values, tau)
        gen = self.unitary.generator
        if gen is self.base:
            inner = Hd
        else:
            G = gen.eval_batch(s_values, tau)
            H = self.base.eval_batch(s_values, tau)
            inner = Hd + 1j * tau * (G @ H - H @ G)
        return self.sign * sandwich(U, inner, U)


def transform(base: HamiltonianPath, unitary: UnitaryPath, sign: int,
              name: str = "") -> TransformedHamiltonianPath:
    """General transformed Hamiltonian sign * U^dagger H U."""
    return TransformedHamiltonianPath(base, unitary, sign, name=name)


def dual_of(base: HamiltonianPath, propagator: UnitaryPath,
            name: str = "") -> TransformedHamiltonianPath:
    """Dual Hamiltonian -U^dagger H U, with U the exact propagator of H.

    The caller asserts that ``propagator`` solves i dU/ds = tau * H U; that
    makes H itself the generator of the transforming unitary, which unlocks
    analytic derivatives and the exact transported eigenframe. The generator
    is therefore forced to ``base`` (the transported-frame construction
    cross-checks the claim numerically where it can).
    """
    if propagator.generator is not base:
        propagator = propagator.with_generator(base)
    return TransformedHamiltonianPath(base, propagator, -1,
                                      name=name or f"dual({base.name})")


def negate(path: HamiltonianPath, name: str = "") -> HamiltonianPath:
    """Pointwise negation; eigenprojectors are unchanged, eigenvalues flip."""
    if isinstance(path, TransformedHamiltonianPath):
        return TransformedHamiltonianPath(path.base, path.unitary, -path.sign,
                                          name=name or f"-({path.name})")
    return HamiltonianPath(
        path.dim,
        lambda sv, tau: -path.eval_batch(sv, tau),
        derivative_fn=lambda sv, tau: -path.derivative_batch(sv, tau),
        name=name or f"-({path.name})")


class GeneratorPath(HamiltonianPath):
    """Hermitized generator of a unitary path: (i/tau) (dU/ds) U^dagger,
    by 4th-order finite differences that sample no s below 0."""

    def __init__(self, unitary: UnitaryPath, h: float = 1e-5,
                 residual_threshold: float = 1e-3, name: str = ""):
        self.unitary = unitary
        self._h = float(h)
        self.residual_threshold = float(residual_threshold)
        super().__init__(unitary.dim, self._eval_many,
                         name=name or f"generator({unitary.name})")

    def _raw(self, s_values, tau):
        dU = fd4_derivative(self.unitary, s_values, tau, self._h, 0.0)
        U = self.unitary.eval_batch(s_values, tau)
        return (1j / tau) * np.einsum("kij,klj->kil", dU, U.conj())

    def _eval_many(self, s_values, tau):
        raw = self._raw(s_values, tau)
        herm = hermitize(raw)
        resid = np.linalg.norm(raw - herm, axis=(1, 2))
        worst = int(np.argmax(resid))
        if resid[worst] > self.residual_threshold:
            raise NonSmoothUnitaryError(float(resid[worst]),
                                        self.residual_threshold,
                                        float(s_values[worst]))
        return herm


def generator_of(unitary: UnitaryPath, tau: Optional[float] = None,
                 h: float = 1e-5,
                 residual_threshold: float = 1e-3) -> GeneratorPath:
    """Extract the Hamiltonian generating a unitary path.

    The result satisfies i dU/ds = tau * G(s, tau) * U up to finite-difference
    error; its output is hermitized, and every evaluation raises
    NonSmoothUnitaryError where the discarded anti-Hermitian part exceeds
    ``residual_threshold``. If ``tau`` is given, that check runs right away
    at a few sample points.
    """
    gen = GeneratorPath(unitary, h=h, residual_threshold=residual_threshold)
    if tau is not None:
        gen.eval_batch(np.array([0.1, 0.5, 1.0]), tau)
    return gen
