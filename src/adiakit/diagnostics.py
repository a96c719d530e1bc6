"""Adiabaticity criteria, inconsistency detectors, and scenario classification.

All quantities are computed from an EigenFrame (plus evolution operators
where needed). The resonance series and the kernel norm come from one pass
over the cumulative kernel K per frame (``_kernel_summary``), integrated by
the Filon-Hermite rule of ``quadrature._cumtrapz``, which is exact for a
linear phase and a cubic amplitude at any number of radians per step; end
values are the ends of those series. K is Hermitian with a zero diagonal,
so it is integrated for the level pairs m > n alone, one column per pair
in the order of ``np.tril_indices(n, -1)``; this module is the only one
that knows that order (``_pair_entry``). The running maxima of cumulative
integrals (``f_norm_max``, resonance ``max_abs``) include the peaks
between grid points, searched on the rule's own interpolant in the same
pass; pointwise series (projector drift, intertwining) keep their grid
maxima.
The phase advance per step left in the integrands is exposed so callers
can refine grids (0.3 rad per step is the refinement trigger used by the
scenario layer, which the pointwise series and the numeric route need).
"""

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .exceptions import ScalingUndefinedError
from .gauge import (EigenFrame, _dress_kernel, _min_pairwise_gap, couplings,
                    eigenframe)
from .linalg import _block_slices, sandwich
from .paths import HamiltonianPath, check_grid, grid_index, midpoint_refined
from .propagate import PropagationResult
from .quadrature import _cumtrapz_with_maxima


class Classification(enum.Enum):
    ADIABATIC_CONSISTENT = "adiabatic_consistent"
    WEAK_RESONANT_INCONSISTENT = "weak_resonant_inconsistent"
    STRONG_OSCILLATORY = "strong_oscillatory"
    NONRESONANT_AVERAGED = "nonresonant_averaged"


@dataclass(frozen=True)
class Thresholds:
    """Classifier thresholds; defaults separate the reference regimes by
    at least an order of magnitude."""

    eps_q: float = 0.05
    eps_r: float = 0.1
    decay_slope: float = -0.5


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float    # rms residual of log values around the fit


def qac_max(frame: EigenFrame, C: Optional[np.ndarray] = None) -> float:
    """Largest quantitative-adiabatic-condition ratio
    |<E_m|dE_n/ds>| / (tau |E_n - E_m|) over pairs and grid, in real time:
    the couplings are d/ds quantities, so the scaled-time ratio is divided
    by tau. ``C`` is read as ``C[rows, m, n]`` (the pairs m != n on a block
    of grid points, ``linalg._block_slices``), so a stand-in that forms
    only those columns serves too (``scenario._DualCouplings``)."""
    if C is None:
        C = couplings(frame)
    m, n = np.nonzero(~np.eye(frame.dim, dtype=bool))
    worst = []
    for blk in _block_slices(frame.npoints):
        w = frame.values[blk]
        ratio = np.abs(C[blk, m, n])
        ratio /= np.abs(w[:, n] - w[:, m])
        # 0 for a single level, which has no pair
        worst.append(np.max(ratio, initial=0.0))
    return float(np.max(worst)) / frame.tau


def _phase_spread(values: np.ndarray,
                  rates: Optional[np.ndarray] = None) -> float:
    """Largest spread max_n - min_n of E_n + f_n over the grid points; the
    phase left in a frame's integrands advances at tau times this rate.
    ``rates`` f are a transported frame's generator rates (None: zero)."""
    w = values if rates is None else values + rates
    return float(np.max(w.max(axis=1) - w.min(axis=1)))


def phase_rate_per_step(frame: EigenFrame) -> float:
    """Max phase advance per grid step left in the frame's integrands,
    tau * max|d(E + f)| * ds, with f the generator rates a transported frame
    folds into its vectors (the dynamical phase tau * max|dE| * ds for a
    discrete frame)."""
    spread = _phase_spread(frame.values, frame.generator_rates)
    return float(frame.tau * spread * np.max(np.diff(frame.grid)))


def _kernel_integrand(frame: EigenFrame, C: Optional[np.ndarray] = None):
    """(kernel coefficients, the phases left in them) of the pairs m > n,
    one column per pair: the integrand of the cumulative kernel K. K_mn is
    the integral of i e^{i(phi_m - phi_n)} C_mn, so the resonance integral
    of the pair (m, n) is -i K_mn; K_nm = conj(K_mn). Both are formed block
    by block (``linalg._block_slices``), reading ``C`` as ``qac_max``
    does, so their temporaries stay block-sized."""
    m, n = np.tril_indices(frame.dim, -1)
    theta = frame.integrand_phases()
    C = couplings(frame) if C is None else C
    coeff = np.empty((frame.npoints, len(m)), dtype=complex)
    phase = None if theta is None else np.empty(coeff.shape)
    for blk in _block_slices(frame.npoints):
        coeff[blk] = _dress_kernel(frame, C[blk, m, n], m, n, blk)
        if phase is not None:
            np.subtract(theta[blk, m], theta[blk, n], out=phase[blk])
    return coeff, phase


def _kernel_summary(frame: EigenFrame, C: Optional[np.ndarray] = None):
    """(K, max_s |K_mn| per pair, ||K||_F per grid point, max_s ||K||_F),
    all from one pass over the cumulative kernel of the pairs m > n
    (``quadrature._cumtrapz_with_maxima``), one column per pair; the
    maxima include the peaks between grid points. ``_pair_entry`` reads
    the entry (m, n) of K or of its peaks."""
    coeff, phase = _kernel_integrand(frame, C)
    K, peaks, norms, norm_max = _cumtrapz_with_maxima(coeff, frame.grid,
                                                      phase)
    # ||K||_F^2 = 2 sum_p |K_p|^2: each pair stands for itself and its mirror
    norms *= math.sqrt(2.0)
    return K, peaks, norms, math.sqrt(2.0) * norm_max


def _pair_entry(columns: np.ndarray, m: int, n: int) -> np.ndarray:
    """Entry (m, n) of the Hermitian matrix with zero diagonal whose pairs
    m > n are the last axis of ``columns``: the conjugate of the column of
    (n, m) for m < n, zero for m == n."""
    if m == n:
        return np.zeros(columns.shape[:-1], dtype=columns.dtype)
    hi, lo = max(m, n), min(m, n)
    column = columns[..., hi * (hi - 1) // 2 + lo]
    return column if m > n else column.conj()


def resonance_series(frame: EigenFrame, m: int, n: int,
                     C: Optional[np.ndarray] = None) -> np.ndarray:
    """Cumulative integral of exp(i tau int (E_m - E_n)) <E_m|dE_n/ds>.
    Each call makes one pass over the frame's kernel."""
    return -1j * _pair_entry(_kernel_summary(frame, C)[0], m, n)


def _end_index(grid: np.ndarray, s_end: Optional[float]) -> int:
    return len(grid) - 1 if s_end is None else grid_index(grid, s_end)


def resonance_integral(frame: EigenFrame, m: int, n: int,
                       s_end: Optional[float] = None,
                       C: Optional[np.ndarray] = None) -> complex:
    """Oscillatory resonance integral for the level pair (m, n) at s_end."""
    k = _end_index(frame.grid, s_end)
    return complex(resonance_series(frame, m, n, C)[k])


def resonance_max_abs(frame: EigenFrame, m: int, n: int,
                      C: Optional[np.ndarray] = None) -> float:
    """Max over s of |cumulative resonance integral|, peaks between grid
    points included. Each call makes one pass over the frame's kernel."""
    return float(_pair_entry(_kernel_summary(frame, C)[1], m, n))


def f_norm(frame: EigenFrame, s_end: Optional[float] = None,
           C: Optional[np.ndarray] = None) -> float:
    """Frobenius norm of the accumulated kernel integral at s_end."""
    k = _end_index(frame.grid, s_end)
    return float(f_norm_series(frame, C)[k])


def f_norm_series(frame: EigenFrame,
                  C: Optional[np.ndarray] = None) -> np.ndarray:
    """|| int_0^s kernel ||_F per grid point; shape (N,)."""
    return _kernel_summary(frame, C)[2]


def f_norm_max(frame: EigenFrame, C: Optional[np.ndarray] = None) -> float:
    """Max over s of the accumulated kernel norm, peaks between grid points
    included.

    The end-of-window value oscillates with tau through the residual phase
    of the last partial oscillation; the running max is the monotone
    quantity whose tau-scaling separates decaying from persistent kernels.
    """
    return _kernel_summary(frame, C)[3]


def projector_drift_series(frame: EigenFrame) -> np.ndarray:
    """max_n || P_n(s_k) - P_n(0) ||_F per grid point; shape (N,), formed
    block by block (``linalg._block_slices``)."""
    out = np.zeros(frame.npoints)
    P0 = [frame.projector(j, slice(0, 1)) for j in range(frame.dim)]
    for blk in _block_slices(frame.npoints):
        for j in range(frame.dim):
            d = np.linalg.norm(frame.projector(j, blk) - P0[j], axis=(1, 2))
            np.maximum(out[blk], d, out=out[blk])
    return out


def projector_drift(frame: EigenFrame) -> float:
    """Max over levels and grid of || P_n(s) - P_n(0) ||_F."""
    return float(np.max(projector_drift_series(frame)))


def _unitaries_on_grid(U, frame: EigenFrame) -> np.ndarray:
    if isinstance(U, PropagationResult):
        if (len(U.grid) != frame.npoints
                or not np.allclose(U.grid, frame.grid, rtol=0, atol=1e-9)):
            raise ValueError("propagation grid does not match the frame grid")
        return U.unitaries
    if hasattr(U, "eval_batch"):   # UnitaryPath
        return U.eval_batch(frame.grid, frame.tau)
    U = np.asarray(U, dtype=complex)
    if U.shape != (frame.npoints, frame.dim, frame.dim):
        raise ValueError("unitary stack shape does not match the frame")
    return U


def transition_matrix(U, frame: EigenFrame) -> np.ndarray:
    """M(s) = V(s)^dag U(s) V(0), the evolution in the adiabatic basis;
    (N, n, n), with V the frame vectors.

    |M_mn(s)|^2 is the population carried from level n at s = 0 to level m
    at s; both evolution diagnostics are functions of M.
    """
    us = _unitaries_on_grid(U, frame)
    v = frame.vectors
    return sandwich(v, us, np.broadcast_to(v[0], us.shape))


def _populations(M: np.ndarray) -> np.ndarray:
    """|M_mn|^2 of a block of M, with the diagonal set to 0."""
    n = M.shape[-1]
    p = np.abs(M)
    p *= p
    p[:, np.arange(n), np.arange(n)] = 0.0
    return p


def _off_diagonal_populations(M: np.ndarray):
    """(rows, ``_populations`` on them) per block of
    ``linalg._block_slices``, so the populations stay block-sized."""
    for blk in _block_slices(len(M)):
        yield blk, _populations(M[blk])


def _leaks(p: np.ndarray) -> np.ndarray:
    """max_n sqrt(sum_{a != n} p_an + sum_{b != n} p_nb) per point of the
    populations ``p`` of a block."""
    leak = p.sum(axis=1)
    leak += p.sum(axis=2)
    return np.sqrt(leak.max(axis=1))


def _intertwining_of(M: np.ndarray) -> np.ndarray:
    """max_n sqrt(sum_{a != n} |M_an|^2 + sum_{b != n} |M_nb|^2) per point.

    The off-diagonal entries are summed directly: 1 - |M_nn|^2 would lose
    the small values to cancellation.
    """
    out = np.empty(len(M))
    for blk, p in _off_diagonal_populations(M):
        out[blk] = _leaks(p)
    return out


def _w_deviation_max(M: np.ndarray, phases: np.ndarray):
    """max over a block of || diag(e^{i phi}) M - I ||_F, with phi the
    block's ``phases``."""
    n = M.shape[-1]
    w = np.exp(1j * phases)[:, :, None] * M
    w[:, np.arange(n), np.arange(n)] -= 1.0
    return np.max(np.linalg.norm(w, axis=(1, 2)))


def _w_deviation_of(M: np.ndarray, frame: EigenFrame) -> float:
    """max_s || diag(e^{i phi(s)}) M(s) - I ||_F, formed block by block
    (``linalg._block_slices``), so its temporaries stay block-sized."""
    return float(np.max([_w_deviation_max(M[blk], frame.phase_integrals(blk))
                         for blk in _block_slices(len(M))]))


def _transition_probability_max(M: np.ndarray) -> float:
    """max_s max_{m != n} |M_mn(s)|^2: the largest population that left
    its level."""
    return float(np.max([np.max(p)
                         for _, p in _off_diagonal_populations(M)]))


class _TransitionReads:
    """The reductions of M an entry reports, fed one block of rows at a
    time in row order (``read``), so that M is never formed whole: the
    largest transition probability, and the intertwining series and
    ``w_deviation`` where they are asked for. Any partition of the rows
    gives the values of the whole-stack functions above, bit for bit."""

    def __init__(self, frame: EigenFrame, intertwining: bool,
                 w_deviation: bool):
        self.frame, self.probabilities = frame, []
        self.intertwining = np.empty(frame.npoints) if intertwining else None
        self.deviations = [] if w_deviation else None

    def read(self, rows: slice, M: np.ndarray):
        p = _populations(M)
        self.probabilities.append(np.max(p))
        if self.intertwining is not None:
            self.intertwining[rows] = _leaks(p)
        if self.deviations is not None:
            self.deviations.append(
                _w_deviation_max(M, self.frame.phase_integrals(rows)))

    def read_stack(self, M: np.ndarray) -> "_TransitionReads":
        """``read`` of a whole stack in blocks (``linalg._block_slices``)."""
        for blk in _block_slices(len(M)):
            self.read(blk, M[blk])
        return self


def intertwining_series(U, frame: EigenFrame) -> np.ndarray:
    """max_n || U(s) P_n(0) - P_n(s) U(s) ||_F per grid point."""
    return _intertwining_of(transition_matrix(U, frame))


def intertwining_defect(U, frame: EigenFrame) -> float:
    """Operational adiabaticity measure: max intertwining violation."""
    return float(np.max(intertwining_series(U, frame)))


def w_deviation(U, frame: EigenFrame) -> float:
    """max_s || Phi^dag(s) U_A^dag(s) U(s) - I ||_F (1 means non-adiabatic),
    evaluated as || diag(e^{i phi(s)}) M(s) - I ||_F."""
    return _w_deviation_of(transition_matrix(U, frame), frame)


def scaling_slope(taus: Sequence[float], values: Sequence[float],
                  min_points: int = 3) -> SlopeFit:
    """Least-squares slope of log(value) against log(tau)."""
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(taus) != len(values) or len(taus) < min_points:
        raise ScalingUndefinedError(
            f"need at least {min_points} (tau, value) pairs")
    if np.any(taus <= 0) or np.any(values <= 0):
        raise ScalingUndefinedError(
            "non-positive values make the log-log slope undefined")
    lx, ly = np.log(taus), np.log(values)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]),
                    residual=rms)


def classify(qac_max_value: float, max_resonance: float,
             f_norm_slope: Optional[float],
             thresholds: Thresholds = Thresholds()) -> Classification:
    """Deterministic decision table over the three measured quantities.

    Small qac splits on the resonance-integral magnitude (the inconsistency
    detector); large qac splits on whether the kernel integral decays with
    tau (averaged-out drive) or not (genuinely oscillatory dynamics).
    """
    t = thresholds
    if qac_max_value < t.eps_q:
        if max_resonance >= t.eps_r:
            return Classification.WEAK_RESONANT_INCONSISTENT
        return Classification.ADIABATIC_CONSISTENT
    if f_norm_slope is None:
        raise ScalingUndefinedError(
            "classification with large qac needs an f_norm slope "
            "(provide at least two tau samples)")
    if f_norm_slope <= t.decay_slope:
        return Classification.NONRESONANT_AVERAGED
    return Classification.STRONG_OSCILLATORY


def _premises(frame: EigenFrame, step: int) -> Dict[str, float]:
    """Numerical proxies for the adiabatic-theorem premises, read from one
    frame at every ``step``-th point (coarse) and every ``step // 2``-th
    point (fine); ``step`` is even, so the fine points hold the coarse
    points and their midpoints.

    p1: eigenvalue continuity (largest level increment per step, absolute and
    after grid halving); p2: minimum spectral gap; p3: grid-refinement
    stability of the projector derivatives (finite-difference norms at ds and
    ds/2 should agree within a factor of two when the derivatives exist).
    """
    end = (frame.npoints - 1) // step * step + 1
    coarse = slice(0, end, step)
    reads = []   # (max ||dP||, max ||d2P||, max level step), coarse then fine
    for points in (coarse, slice(0, end, step // 2)):
        h = np.diff(frame.grid[points]).mean()
        d1 = d2 = 0.0
        for j in range(frame.dim):
            v = frame.vectors[points, :, j]
            P = np.einsum("ki,kj->kij", v, v.conj())
            dP = (P[2:] - P[:-2]) / (2 * h)
            d2P = (P[2:] - 2 * P[1:-1] + P[:-2]) / (h * h)
            d1 = max(d1, float(np.max(np.linalg.norm(dP, axis=(1, 2)))))
            d2 = max(d2, float(np.max(np.linalg.norm(d2P, axis=(1, 2)))))
        values = frame.values[points]
        reads.append((d1, d2, float(np.max(np.abs(np.diff(values, axis=0))))))
    (d1c, d2c, step_c), (d1f, d2f, step_f) = reads
    ratio1 = d1f / d1c if d1c > 0 else 1.0
    ratio2 = d2f / d2c if d2c > 0 else 1.0
    return {
        "p1_max_value_step": step_c,
        "p1_refined_ratio": step_f / step_c if step_c > 0 else 1.0,
        "p2_min_gap": _min_pairwise_gap(frame.values[coarse])[0],
        "p3_dP_norm": d1c,
        "p3_d2P_norm": d2c,
        "p3_dP_ratio": ratio1,
        "p3_d2P_ratio": ratio2,
        "p3_stable": float(0.5 <= ratio1 <= 2.0 and 0.5 <= ratio2 <= 2.0),
    }


def premise_checks(path: HamiltonianPath, tau: float,
                   grid) -> Dict[str, float]:
    """``_premises`` on ``grid`` and its midpoints, read from one frame on
    the midpoint-refined grid."""
    fine = midpoint_refined(check_grid(grid, min_points=3))
    return _premises(eigenframe(path, tau, fine), 2)
