"""Spin-half particle in a rotating magnetic field: closed forms.

The model Hamiltonian, in scaled time s = omega * t over one field rotation
s in [0, 2*pi], is

    H(s) = -(omega0/2) (sx sin(theta) cos(s) + sy sin(theta) sin(s)
                        + sz cos(theta)),

with constant eigenvalues -/+ omega0/2. The time-scale factor is
tau = 1/omega, so the exact propagator below is evaluated with
omega = 1/tau. Level index 0 is the lower level (-omega0/2), index 1 the
upper (+omega0/2); analytic eigenvector phases obey parallel transport.
"""

import numpy as np

from .linalg import dagger_dot
from .paths import HamiltonianPath, UnitaryPath


def hamiltonian(theta: float, omega0: float) -> HamiltonianPath:
    """Rotating-field Hamiltonian path (tau-independent).

    H(s) = k [[cos(theta), sin(theta) e^{-is}], [sin(theta) e^{is},
    -cos(theta)]] with k = -omega0/2, and dH/ds = k sin(theta)
    [[0, -i e^{-is}], [i e^{is}, 0]]; both are filled entry by entry.
    """
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    st, ct = np.sin(theta), np.cos(theta)
    k = -omega0 / 2.0

    def _stack(scale, diag, off_re, off_im):
        """scale [[diag, off], [conj off, -diag]], off = off_re + i off_im."""
        out = np.empty(off_re.shape + (2, 2), dtype=complex)
        out[:, 0, 0] = scale * diag
        out[:, 1, 1] = -(scale * diag)
        re, im = scale * off_re, scale * off_im
        out[:, 0, 1].real = re
        out[:, 0, 1].imag = im
        out[:, 1, 0].real = re
        out[:, 1, 0].imag = -im
        return out

    def _eval_batch(s, tau):
        return _stack(k, ct, st * np.cos(s), -(st * np.sin(s)))

    def _deriv_batch(s, tau):
        return _stack(k * st, 0.0, -np.sin(s), -np.cos(s))

    return HamiltonianPath(
        2, _eval_batch, derivative_fn=_deriv_batch,
        name=f"spin_half(theta={theta:.6g}, omega0={omega0:.6g})")


def omega_bar(theta: float, omega0: float, omega: float) -> float:
    """Effective precession frequency of the rotating-frame solution."""
    return float(np.sqrt(omega0**2 + omega**2 + 2.0 * omega * omega0 * np.cos(theta)))


def propagator_matrix(theta: float, omega0: float, omega: float,
                      s) -> np.ndarray:
    """Closed-form evolution operator of the rotating-field model.

    Solves i dU/ds = (1/omega) H(s) U with U(0) = I. Vectorized over ``s``;
    returns shape (..., 2, 2).
    """
    s = np.asarray(s, dtype=float)
    wb = omega_bar(theta, omega0, omega)
    half = 0.5 * wb * s / omega
    c, si = np.cos(half), np.sin(half)
    a = (omega + omega0 * np.cos(theta)) / wb
    b = omega0 * np.sin(theta) / wb
    em = np.exp(-0.5j * s)
    ep = np.exp(+0.5j * s)
    out = np.empty(s.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = (c + 1j * a * si) * em
    out[..., 0, 1] = 1j * b * si * em
    out[..., 1, 0] = 1j * b * si * ep
    out[..., 1, 1] = (c - 1j * a * si) * ep
    return out


def exact_propagator(theta: float, omega0: float) -> UnitaryPath:
    """Exact propagator as a UnitaryPath; omega is read off as 1/tau."""
    h = hamiltonian(theta, omega0)
    return UnitaryPath(
        2, lambda sv, tau: propagator_matrix(theta, omega0, 1.0 / tau, sv),
        generator=h,
        name=f"U_spin_half(theta={theta:.6g}, omega0={omega0:.6g})")


def parallel_eigvecs(theta: float):
    """Analytic parallel-transport eigenvectors.

    Returns a callable s -> (2, 2) array whose column 0 is the lower level
    (-omega0/2) and column 1 the upper level (+omega0/2). Vectorized: an
    array s gives shape (..., 2, 2).
    """
    half = theta / 2.0
    sh, ch = np.sin(half), np.cos(half)
    ct = np.cos(theta)

    def _vecs(s):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape + (2, 2), dtype=complex)
        geo_lo = np.exp(+0.5j * s * ct)
        geo_up = np.exp(-0.5j * s * ct)
        em = np.exp(-0.5j * s)
        ep = np.exp(+0.5j * s)
        out[..., 0, 0] = geo_lo * em * ch
        out[..., 1, 0] = geo_lo * ep * sh
        out[..., 0, 1] = geo_up * em * sh
        out[..., 1, 1] = -geo_up * ep * ch
        return out

    return _vecs


def initial_vectors(theta: float) -> np.ndarray:
    """Parallel-transport eigenvectors at s = 0 (columns, ascending level)."""
    return parallel_eigvecs(theta)(0.0)


def coupling_upper_lower(theta: float, s) -> np.ndarray:
    """Analytic <upper | d(lower)/ds> = -(i/2) sin(theta) e^{i s cos(theta)}."""
    s = np.asarray(s, dtype=float)
    return -0.5j * np.sin(theta) * np.exp(1j * s * np.cos(theta))


def qac_value(theta: float, omega0: float, omega: float) -> float:
    """Real-time adiabatic-condition ratio: omega sin(theta) / (2 omega0)."""
    return abs(omega * np.sin(theta) / (2.0 * omega0))


def projector_upper(theta: float, s) -> np.ndarray:
    """Projector onto the upper (+omega0/2) level; shape (..., 2, 2)."""
    s = np.asarray(s, dtype=float)
    half = theta / 2.0
    sh, ch = np.sin(half), np.cos(half)
    out = np.empty(s.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = sh * sh
    out[..., 0, 1] = -sh * ch * np.exp(-1j * s)
    out[..., 1, 0] = -sh * ch * np.exp(+1j * s)
    out[..., 1, 1] = ch * ch
    return out


def dual_projector_offdiag(theta: float, omega0: float, omega: float,
                           s) -> np.ndarray:
    """(1,2) element of the dual projector built from the upper level.

    Trig-identity form of U^dagger P_upper U; oscillates at the fast
    rotating-frame rate with O(omega) amplitude around its s = 0 value.
    """
    s = np.asarray(s, dtype=float)
    wb = omega_bar(theta, omega0, omega)
    half = theta / 2.0
    sc = np.sin(half) * np.cos(half)
    arg = 0.5 * wb * s / omega
    s2, c2 = np.sin(arg) ** 2, np.cos(arg) ** 2
    cross = np.sin(arg) * np.cos(arg)
    return (s2 * sc * ((omega / wb) ** 2 - (omega0 / wb) ** 2)
            - c2 * sc
            + 2j * cross * (omega / wb) * sc)


def dual_resonance_integral(theta: float, s) -> np.ndarray:
    """Resonance integral of the dual system: (1/2)(1 - e^{i s cos}) tan."""
    s = np.asarray(s, dtype=float)
    return 0.5 * (1.0 - np.exp(1j * s * np.cos(theta))) * np.tan(theta)


def negated_dual_resonance_integral(theta: float, omega0: float, omega: float,
                                    s) -> np.ndarray:
    """Resonance integral of the negated dual system (twice-rotating phase).

    Direct integration of -(i/2) sin(theta) e^{i (2 omega0/omega + cos) sigma};
    O(omega) amplitude.
    """
    s = np.asarray(s, dtype=float)
    rate = 2.0 * omega0 / omega + np.cos(theta)
    return (np.sin(theta) / (2.0 * rate)) * (1.0 - np.exp(1j * rate * s))


def dual_propagator(theta: float, omega0: float) -> UnitaryPath:
    """Exact propagator of the dual system: the adjoint of the base one."""
    return exact_propagator(theta, omega0).adjoint(
        name=f"U_dual(theta={theta:.6g})")


def negated_dual_propagator(theta: float, omega0: float) -> UnitaryPath:
    """Exact propagator of the negated dual system.

    U_c(s, tau) = U_a(s, tau)^dagger @ U_a(s, 2 tau): the right factor solves
    the base problem at doubled coupling, which for this model is the same
    closed form at half the rotation frequency.
    """
    base = exact_propagator(theta, omega0)

    def _eval_batch(sv, tau):
        return dagger_dot(base.eval_batch(sv, tau),
                          base.eval_batch(sv, 2.0 * tau))

    return UnitaryPath(
        2, _eval_batch, name=f"U_negated_dual(theta={theta:.6g})")
