"""Additional model Hamiltonians: driven two-level paths and random smooth
paths for property tests and the classifier reference scenarios."""

import numpy as np

from .linalg import SIGMA_X, SIGMA_Z, hermitize
from .paths import HamiltonianPath


def driven_two_level(omega0: float, amplitude: float, drive_frequency: float,
                     scaled_frequency: bool = False,
                     envelope: bool = False) -> HamiltonianPath:
    """Two-level system with a strong transverse drive.

    H(s, tau) = -(omega0/2) sz - amplitude * g(s) * cos(phase) * sx over one
    window s in [0, 2*pi], with g either 1 or the soft ramp sin^2(s/2).

    With ``scaled_frequency=False`` the drive oscillates at a fixed real-time
    frequency (phase = drive_frequency * tau * s), so it stays resonant with
    the gap as tau grows. With ``scaled_frequency=True`` the phase is
    drive_frequency * s: fast against the window but slow against the gap at
    large tau, i.e. a far-off-resonant drive that averages out.
    """
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")

    def _phase_rate(tau):
        return drive_frequency * (tau if not scaled_frequency else 1.0)

    def _envelope(s):
        if envelope:
            return np.sin(0.5 * s) ** 2, np.sin(0.5 * s) * np.cos(0.5 * s)
        return np.ones_like(s), np.zeros_like(s)

    def _eval_batch(s, tau):
        nu = _phase_rate(tau)
        g, _ = _envelope(s)
        drive = amplitude * g * np.cos(nu * s)
        return (-(omega0 / 2.0) * SIGMA_Z[None]
                - drive[:, None, None] * SIGMA_X[None])

    def _deriv_batch(s, tau):
        nu = _phase_rate(tau)
        g, gdot = _envelope(s)
        ddrive = amplitude * (gdot * np.cos(nu * s) - g * nu * np.sin(nu * s))
        return -ddrive[:, None, None] * SIGMA_X[None]

    kind = "scaled" if scaled_frequency else "real"
    return HamiltonianPath(
        2, _eval_batch, derivative_fn=_deriv_batch,
        name=f"driven_two_level(A={amplitude:.3g}, f={drive_frequency:.3g}, "
             f"{kind})")


def random_smooth_hamiltonian(dim: int, rng: np.random.Generator,
                              base_gap: float = 1.0,
                              wobble: float = 0.25) -> HamiltonianPath:
    """Smooth random Hermitian path: spread diagonal plus a Fourier series
    in s of three modes over the period 2 pi, with amplitudes decaying as
    1/j^2. Derivative is analytic."""

    base = np.diag(base_gap * (np.arange(dim) - 0.5 * (dim - 1))).astype(complex)

    def _random_herm():
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return hermitize(m) / np.sqrt(dim)

    cos_coeff = [wobble / (j * j) * _random_herm() for j in (1, 2, 3)]
    sin_coeff = [wobble / (j * j) * _random_herm() for j in (1, 2, 3)]

    def _eval_batch(s, tau):
        out = np.broadcast_to(base, (len(s), dim, dim)).copy()
        for j, (cj, sj) in enumerate(zip(cos_coeff, sin_coeff), start=1):
            out += np.cos(j * s)[:, None, None] * cj
            out += np.sin(j * s)[:, None, None] * sj
        return out

    def _deriv_batch(s, tau):
        out = np.zeros((len(s), dim, dim), dtype=complex)
        for j, (cj, sj) in enumerate(zip(cos_coeff, sin_coeff), start=1):
            out += -j * np.sin(j * s)[:, None, None] * cj
            out += j * np.cos(j * s)[:, None, None] * sj
        return out

    return HamiltonianPath(
        dim, _eval_batch, derivative_fn=_deriv_batch,
        name=f"random_smooth(dim={dim})")
