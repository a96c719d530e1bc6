"""Cumulative quadrature along a grid, and the running maxima of its
integrals.

One rule integrates every cumulative integral of the package: Filon-Hermite.
On each interval the phase is linear and the amplitude is the cubic Hermite
through its values and slopes at the two ends, and their product is
integrated exactly, at any number of radians per step. Without a phase it is
the trapezoid rule with the Euler-Maclaurin end correction. The running
maxima (``_cumtrapz_with_maxima``) are searched on the rule's own
interpolant, the rule applied to part of an interval, so this module is the
only one that knows how the rule works.
"""

import math
from collections import deque
from typing import NamedTuple, Optional

import numpy as np

from .linalg import _block_slices
from .paths import (FD4_CENTRAL_NUMERATORS, FD4_DENOMINATOR,
                    FD4_FORWARD_NUMERATORS, is_uniform)

_FD4_CENTRAL = FD4_CENTRAL_NUMERATORS / FD4_DENOMINATOR
_FD4_FORWARD = FD4_FORWARD_NUMERATORS / FD4_DENOMINATOR
# Taylor coefficients of the Hermite moments w01 and w11 about delta = 0,
# c_k = int_0^1 t^k H(t) dt / k!; with z = i delta, the real parts are
# polynomials in delta^2 with coefficients (-1)^j c_2j and the imaginary
# parts delta times ones with (-1)^j c_2j+1. 24 terms reach 1e-18 at
# |delta| = 2.
_MOMENT_SERIES = np.array(
    [[(3.0 / (k + 3) - 2.0 / (k + 4)) / math.factorial(k),
      (1.0 / (k + 4) - 1.0 / (k + 3)) / math.factorial(k)]
     for k in range(24)]) * np.array([1, 1, -1, -1] * 6)[:, None]
# |delta| up to which the terms below 2, 4, ..., 24 reach 1e-18
_SERIES_REACH = np.array([(1e-18 * math.factorial(k)) ** (1.0 / k)
                          for k in range(2, 25, 2)])


class _Piece(NamedTuple):
    """The Filon-Hermite data of the intervals lo .. hi-1."""

    lo: int
    hi: int
    h: np.ndarray       # the steps, shaped to broadcast over the samples
    a0: np.ndarray      # amplitude A at the left end of each interval
    a1: np.ndarray      # ... and at the right end
    s0: np.ndarray      # slope h dA/dx at the left end
    s1: np.ndarray      # ... and at the right end
    # phase steps delta over each interval, and e = e^{i theta} at the
    # points lo .. hi; both None without a phase
    delta: Optional[np.ndarray]
    turn: Optional[np.ndarray]


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_k, b_k> over the trailing axes, per row k; (N,). Reads the
    real and imaginary parts as views, so no temporary as large as ``a``."""
    a = a.reshape(len(a), -1)
    b = b.reshape(len(b), -1)
    return (np.einsum("ki,ki->k", a.real, b.real)
            + np.einsum("ki,ki->k", a.imag, b.imag))


def _cumtrapz(y: np.ndarray, x: np.ndarray,
              phase: Optional[np.ndarray] = None) -> np.ndarray:
    """Cumulative integral of the samples ``y`` over ``x`` along axis 0,
    starting at 0, by the Filon-Hermite rule.

    ``phase`` holds a phase theta in the shape of ``y``, and each column
    of ``y`` oscillates as e^{i theta} of the same column; None means no
    phase. On each interval the rule takes that phase as linear and the
    amplitude A = y e^{-i theta} as the cubic Hermite through its values
    and slopes at the two ends, and integrates their product exactly
    (``_hermite_moments``), at any number of radians per step. The slopes
    are the FD4 stencils of ``paths`` applied to the samples of A (central
    inside, one-sided at the two points next to each end), plus
    i (theta' - (theta_k+1 - theta_k) / h) A: the phase's own rate theta'
    (FD4 of theta) differs from the interval's linear rate.

    With no phase this is the trapezoid rule with the Euler-Maclaurin end
    correction, S_k = T_k - (h^2/12)(y'_k - y'_0), fourth order on uniform
    grids. Non-uniform grids, and grids of 5 points or fewer, take each
    interval's chord as the slope at both of its ends: the plain trapezoid
    without a phase, Filon's linear rule with one. Works in row blocks, so
    no temporary as large as ``y`` appears.
    """
    out = _empty_integral(y, phase)
    deque(_integrate(out, y, x, phase), maxlen=0)   # holds no block
    return out


def _cumtrapz_with_maxima(y: np.ndarray, x: np.ndarray,
                          phase: Optional[np.ndarray] = None):
    """(I, max over s of |I_p(s)| per column, ||I||_2 per grid point, max
    over s of ||I(s)||_2) for I = ``_cumtrapz(y, x, phase)`` of (N, P)
    samples, in one pass over its blocks.

    Grid maxima miss the peaks between the points of an oscillating I, by
    many radians per step on coarse grids. Between two points, I is the
    rule's own interpolant (``_interpolant``), exact for a linear phase and
    a cubic amplitude. A column's peak in an interval is searched from the
    better of two start times (``_start_times``: the peak of a circle that
    turns at the phase step plus the amplitude's rotation, right at many
    radians per step, and the interpolated sign change of d|I|^2/dt, right
    at a fraction of a radian), followed by one Newton step. The norm mixes
    columns that turn at different rates; its rule is the same search on
    the sum of the squared moduli, from every column's circle peak and the
    sum's own sign change. An interval is searched only where a bound on
    its interpolant (``_interval_bound``) beats the grid maxima: each block
    keeps the intervals that beat the maxima of the blocks so far, and one
    search at the end takes those that still beat the maxima of the whole
    grid.
    """
    out = _empty_integral(y, phase)
    column_max = np.zeros(y.shape[1:])
    norms = np.empty(len(x))
    best = 0.0
    # candidate intervals, (bound, p, *model) per column and
    # (bound, *model) per norm, gathered block by block
    columns, rows = [], []
    for piece in _integrate(out, y, x, phase):
        integral = out[piece.lo:piece.hi + 1]
        mag = np.abs(integral)
        np.maximum(column_max, mag.max(axis=0), out=column_max)
        block_norms = norms[piece.lo:piece.hi + 1]
        block_norms[:] = np.sqrt(_re_inner(integral, integral))
        best = max(best, float(np.max(block_norms)))
        bound = _interval_bound(piece, mag)
        hit = np.nonzero(bound > column_max)
        norm_bound = np.sqrt(np.sum(bound ** 2, axis=1))
        hit_rows = np.flatnonzero(norm_bound > best)
        if len(hit[0]) or len(hit_rows):
            model = _model_data(piece, integral)
            columns.append((bound[hit], hit[1],
                            *(a[hit][:, None] for a in model)))
            rows.append((norm_bound[hit_rows],
                         *(a[hit_rows] for a in model)))
            del model
        # the candidates are copies: nothing of the block is left alive
        # while the next one is built
        del piece, mag, bound
    # one search over the candidates that can still beat the grid maxima
    if columns:
        bound, p, *model = (np.concatenate(c) for c in zip(*columns))
        keep = bound > column_max[p]
        if keep.any():
            np.maximum.at(column_max, p[keep],
                          _model_peak(tuple(a[keep] for a in model)))
    if rows:
        bound, *model = (np.concatenate(c) for c in zip(*rows))
        keep = bound > best
        if keep.any():
            best = max(best, float(np.max(
                _model_peak(tuple(a[keep] for a in model)))))
    return out, column_max, norms, best


def _empty_integral(y: np.ndarray, phase: Optional[np.ndarray]) -> np.ndarray:
    dtype = complex if phase is not None else np.result_type(y.dtype, float)
    out = np.empty(y.shape, dtype=dtype)
    out[:1] = 0.0
    return out


def _integrate(out: np.ndarray, y: np.ndarray, x: np.ndarray,
               phase: Optional[np.ndarray]):
    """Fill ``out`` (row 0 holding the start value) with the cumulative
    integral of ``_cumtrapz``, one block at a time, and yield each block's
    ``_Piece`` once the rows lo .. hi of ``out`` are final; the blocks are
    the ``linalg._BLOCK`` intervals of ``linalg._block_slices``, and
    nothing of a block is held here while the next one is built."""
    x = np.asarray(x, dtype=float)
    # point 1's stencil reaches point 5
    uniform = len(x) >= 6 and is_uniform(x)
    steps = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    for blk in _block_slices(len(x) - 1):
        lo, hi = blk.start, blk.stop
        piece = _hermite_piece(y, phase, steps, uniform, lo, hi)
        inc = out[lo + 1:hi + 1]
        if phase is None:
            np.add(piece.a0, piece.a1, out=inc)
            inc *= 0.5
            inc += (piece.s0 - piece.s1) / 12.0
        else:
            _combine(*_hermite_moments(piece.delta), piece.a0, piece.a1,
                     piece.s0, piece.s1, piece.turn[:-1], piece.turn[1:],
                     out=inc)
        inc *= piece.h
        np.cumsum(out[lo:hi + 1], axis=0, out=out[lo:hi + 1])
        yield piece
        del piece


def _combine(w01, w11, a0, a1, s0, s1, front, back, out=None):
    """front (w01 A_1 + w11 s_1) + back (conj(w01) A_0 - conj(w11) s_0):
    the rule's integral over an interval of unit step whose ends carry the
    amplitudes A_0, A_1 and slopes s_0, s_1, under a phase factor that is
    ``front`` at its start and ``back`` = front e^{i delta} at its end (the
    moments w00 = e^{i delta} conj(w01) and w10 = -e^{i delta} conj(w11)
    fold the turn into ``back``)."""
    out = np.multiply(w01, a1, out=out)
    out += w11 * s1
    out *= front
    rest = a0 * w01.conj()
    rest -= s0 * w11.conj()
    rest *= back
    out += rest
    return out


def _hermite_piece(y: np.ndarray, phase: Optional[np.ndarray],
                   steps: np.ndarray, uniform: bool, lo: int,
                   hi: int) -> _Piece:
    """The Filon-Hermite data of ``_cumtrapz`` on the intervals lo .. hi-1
    of a grid of the ``steps``, with FD4 slopes where ``uniform`` and chords
    otherwise. Without a phase the amplitude is ``y`` itself."""
    npts = len(y)
    # rows [a, b) feed the stencils of points lo .. hi; the one-sided
    # stencils of the two points next to an end read six rows there
    a = max(min(lo - 2, npts - 6), 0)
    b = min(max(hi + 3, 6), npts)
    k0, k1 = lo - a, hi - a
    amp = y[a:b]
    if phase is not None:
        e = np.exp(1j * phase[a:b])
        amp = amp * e.conj()
    left, right = amp[k0:k1], amp[k0 + 1:k1 + 1]
    if uniform:
        slope = _fd4_steps(amp, k0, k1 + 1)
        s_left, s_right = slope[:-1], slope[1:]
    else:
        s_left = s_right = right - left
    delta = turn = None
    if phase is not None:
        th = phase[a:b]
        delta = np.diff(th[k0:k1 + 1], axis=0)
        if uniform:
            rate = _fd4_steps(th, k0, k1 + 1)     # h theta'
            s_left = s_left + 1j * (rate[:-1] - delta) * left
            s_right = s_right + 1j * (rate[1:] - delta) * right
        turn = e[k0:k1 + 1]
    return _Piece(lo, hi, steps[lo:hi], left, right, s_left, s_right,
                  delta, turn)


def _fd4_steps(y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """h dy/dx at rows lo .. hi-1 of samples ``y`` on a uniform grid of step
    h, by the FD4 stencils: central where two rows lie on either side,
    one-sided at the two rows next to each end (``y`` has at least 5 rows)."""
    n = len(y)
    out = np.empty((hi - lo,) + y.shape[1:], dtype=y.dtype)
    a, b = max(lo, 2), min(hi, n - 2)
    if b > a:
        mid = out[a - lo:b - lo]
        np.multiply(y[a - 2:b - 2], _FD4_CENTRAL[0], out=mid)
        for off, w in zip((-1, 1, 2), _FD4_CENTRAL[1:]):
            mid += w * y[a + off:b + off]
    for i in (*range(lo, min(hi, 2)), *range(max(lo, n - 2), hi)):
        if i < 2:
            out[i - lo] = np.tensordot(_FD4_FORWARD, y[i:i + 5], axes=1)
        else:
            out[i - lo] = -np.tensordot(_FD4_FORWARD, y[i - 4:i + 1][::-1],
                                        axes=1)
    return out


def _hermite_moments(delta: np.ndarray) -> np.ndarray:
    """Moments w01 and w11, int_0^1 H(t) e^{i delta t} dt, of the cubic
    Hermite basis functions H01 = 3t^2 - 2t^3 and H11 = t^3 - t^2 (value
    and slope at t = 1), stacked on a new first axis. The reflection
    t -> 1 - t gives the other two: w00 = e^{i delta} conj(w01) for
    H00 = 1 - 3t^2 + 2t^3 and w10 = -e^{i delta} conj(w11) for
    H10 = t - 2t^2 + t^3.

    |delta| < 2 takes the Taylor series, summed in real arithmetic to as
    many terms as the largest |delta| needs; the rest take the closed form.
    """
    delta = np.asarray(delta, dtype=float)
    out = np.empty((2,) + delta.shape, dtype=complex)
    small = np.abs(delta) < 2.0
    every = bool(small.all())
    d = delta if every else delta[small]
    u = d * d
    terms = min(2 + 2 * int(np.searchsorted(
        _SERIES_REACH, np.max(np.abs(d), initial=0.0))), len(_MOMENT_SERIES))
    column = (2,) + (1,) * d.ndim
    even = np.empty((2,) + d.shape)
    odd = np.empty((2,) + d.shape)
    even[:] = _MOMENT_SERIES[terms - 2].reshape(column)
    odd[:] = _MOMENT_SERIES[terms - 1].reshape(column)
    for k in range(terms - 4, -1, -2):
        even *= u
        even += _MOMENT_SERIES[k].reshape(column)
        odd *= u
        odd += _MOMENT_SERIES[k + 1].reshape(column)
    odd *= d
    if every:
        out.real, out.imag = even, odd
        return out
    out[:, small] = even + 1j * odd
    z = 1j * delta[~small]
    e = np.exp(z)
    z2 = z * z
    z3 = z2 * z
    z4 = z2 * z2
    out[0, ~small] = e / z - 6.0 * (e + 1.0) / z3 + 12.0 * (e - 1.0) / z4
    out[1, ~small] = -e / z2 + (4.0 * e + 2.0) / z3 - 6.0 * (e - 1.0) / z4
    return out


def _interval_bound(piece: _Piece, mag: np.ndarray) -> np.ndarray:
    """An upper bound on |I| over each interval of ``piece``, from the
    moduli ``mag`` of the integral at its points lo .. hi. |I| stays within
    the nearer end plus h max|P|, with the cubic Hermite P within
    max(|A_k|, |A_k+1|) + (4/27)(|s_k| + |s_k+1|); and within the larger
    end plus max|I''| / 8, with |I''| <= h (|P'| + |delta| |P|) and |P'|
    <= 1.5 |A_k+1 - A_k| + |s_k| + |s_k+1|."""
    m0, m1 = mag[:-1], mag[1:]
    slopes = np.abs(piece.s0) + np.abs(piece.s1)
    amp = np.maximum(np.abs(piece.a0), np.abs(piece.a1))
    amp += (4.0 / 27.0) * slopes                # max |H10| = 4/27
    bend = 1.5 * np.abs(piece.a1 - piece.a0) + slopes
    if piece.delta is not None:
        bend += np.abs(piece.delta) * amp
    return np.minimum(np.minimum(m0, m1) + piece.h * amp,
                      np.maximum(m0, m1) + 0.125 * piece.h * bend)


def _model_data(piece: _Piece, integral: np.ndarray):
    """(I_k, I_k+1, h e_k, A_k, A_k+1, s_k, s_k+1, delta) per interval of
    ``piece``, the arguments of ``_interpolant``, from the block's integral
    at its points lo .. hi; e_k = 1 and delta = 0 without a phase."""
    if piece.delta is None:
        scale = np.broadcast_to(piece.h, piece.a0.shape)
        delta = np.zeros(piece.a0.shape)
    else:
        scale, delta = piece.h * piece.turn[:-1], piece.delta
    return (integral[:-1], integral[1:], scale, piece.a0, piece.a1,
            piece.s0, piece.s1, delta)


def _interpolant(t, model):
    """The cumulative integral inside an interval, at the fraction ``t`` of
    its step, as the rule integrates it, with its first two derivatives in
    t: (I, I', I''). ``model`` is ``_model_data``; the integral over
    [0, t] is the rule applied to the sub-interval, whose Hermite data are
    the amplitude P and its slope t P' at 0 and at t."""
    i0, _, scale, a0, a1, s0, s1, delta = model
    t2 = t * t
    t3 = t2 * t
    p = ((2.0 * t3 - 3.0 * t2 + 1.0) * a0 + (3.0 * t2 - 2.0 * t3) * a1
         + (t3 - 2.0 * t2 + t) * s0 + (t3 - t2) * s1)
    dp = ((6.0 * t2 - 6.0 * t) * (a0 - a1) + (3.0 * t2 - 4.0 * t + 1.0) * s0
          + (3.0 * t2 - 2.0 * t) * s1)
    w01, w11 = _hermite_moments(delta * t)
    turn = np.exp(1j * delta * t)
    value = i0 + scale * t * _combine(w01, w11, a0, p, t * s0, t * dp,
                                      1.0, turn)
    turn *= scale
    return value, turn * p, turn * (dp + 1j * delta * p)


def _start_times(model):
    """Start times for the peak search on each row of ``model``, summed
    over its last axis: the peak of each column's circle, and the sign
    change of d/dt sum |I|^2 (NaN where there is none); (rows, P + 1).

    The circle c + b e^{i omega t} turns at the phase step delta plus the
    amplitude's own rotation arg(A_k+1 / A_k); it is the mean of the two
    that leave the ends with the end values of the integrand. Its modulus
    peaks where omega t = -arg(conj(c) b) mod 2 pi, which is right at
    many radians per step. The sign change of the derivative, placed by
    linear interpolation between the ends, is right at a fraction of a
    radian."""
    i0, i1, scale, a0, a1, _, _, delta = model
    omega = delta + np.angle(a1 * a0.conj())
    g0 = scale * a0                               # h g_k
    g1 = scale * np.exp(1j * delta) * a1          # h g_k+1
    b = 0.5 * (g0 + g1 * np.exp(-1j * omega))
    # omega^2 conj(c) b, free of the 1/omega of c and b
    q = -0.5j * omega * (i0 + i1).conj() * b - 0.5 * (g0 + g1).conj() * b
    f0 = np.sum((i0.conj() * g0).real, axis=-1, keepdims=True)
    f1 = np.sum((i1.conj() * g1).real, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.mod(-np.sign(omega) * np.angle(q), 2.0 * np.pi) / np.abs(omega)
        root = f0 / (f0 - f1)
    t = np.where((t > 0.0) & (t < 1.0), t, np.nan)
    root = np.where((f0 > 0.0) & (f1 < 0.0), root, np.nan)
    return np.concatenate([t, root], axis=-1)


def _model_peak(model):
    """Max over t of sqrt(sum |I(t)|^2) (sum over the last axis of each
    row of ``model``): the better of the value at the best of its
    ``_start_times`` and the value one Newton step on the sum's derivative
    away from there; 0 for rows with no start. Every value returned is the
    interpolant's own at some t."""
    starts = _start_times(model)
    rows = np.arange(len(starts))
    valid = ~np.isnan(starts)
    t = np.where(valid, starts, 0.0)[:, :, None]
    sq = np.sum(np.abs(_interpolant(t, tuple(a[:, None] for a in model))[0])
                ** 2, axis=-1)
    sq[~valid] = -np.inf
    pick = np.argmax(sq, axis=1)
    best = sq[rows, pick]
    t = t[rows, pick]
    v, d1, d2 = _interpolant(t, model)
    slope = np.sum((v.conj() * d1).real, axis=-1, keepdims=True)
    curve = np.sum(np.abs(d1) ** 2 + (v.conj() * d2).real, axis=-1,
                   keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(t - np.where(curve < 0.0, slope / curve, 0.0), 0.0, 1.0)
    sq_end = np.sum(np.abs(_interpolant(t, model)[0]) ** 2, axis=-1)
    return np.where(valid.any(axis=1), np.sqrt(np.maximum(best, sq_end)), 0.0)
