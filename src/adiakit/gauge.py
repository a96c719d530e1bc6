"""Parallel-transport eigenframes and the geometric objects built on them.

An EigenFrame samples a Hamiltonian path on a grid, tracks levels between
neighboring points by eigenvector overlap (not by sorting), and fixes phases
by discrete parallel transport so that the diagonal connection <E_n|dE_n/ds>
vanishes on the grid.

Two constructions exist:

* discrete: per-point eigensolve + multiplicative phase alignment. The
  accumulated transport phase carries an O(ds^2) secular error. It is
  Richardson-corrected against the transport along the grid's own even
  points, interpolated linearly to the odd ones, at every grid size.
* transported: for Hamiltonians defined as (+/-) U^dagger H U with a known
  generator of U, the frame is built exactly from the base frame, the
  unitary, and the accumulated diagonal phases. This is the only practical
  route for dual systems at large tau, whose eigenvectors oscillate at
  frequencies proportional to tau.

Cumulative integrals along a frame (the phase integrals, the transport
phase and the kernel of the level pairs) take the one rule of
``quadrature._cumtrapz``: Filon-Hermite, which integrates a cubic
amplitude under a linear phase exactly and is the Euler-Maclaurin-corrected
trapezoid rule when there is no phase.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._backend import kernels
from .exceptions import (EigenvalueCrossingError, NumericalCheckError,
                         ProjectorDiscontinuityError)
from .linalg import (_block_slices, _hermiticity_reads, _require_hermitian,
                     _unitarity_defects, dagger, dagger_dot, sandwich,
                     unitarity_defect)
from .paths import HamiltonianPath, check_grid, fd4_derivative, is_uniform
from .quadrature import _cumtrapz, _fd4_steps
from .transforms import TransformedHamiltonianPath

GAP_FLOOR = 1e-8
OVERLAP_FLOOR = 0.9
HERMITICITY_FRAME_RTOL = 1e-10


@dataclass
class EigenFrame:
    """Level-tracked, gauge-fixed eigenframe along a Hamiltonian path."""

    grid: np.ndarray            # (N,) ascending s values
    tau: float
    values: np.ndarray          # (N, n) eigenvalues, level-tracked
    # (N, n, n); [:, :, j] is level j. None on the transported frame of a
    # custom dual whose entry reads no vectors (``scenario._Evolution``)
    vectors: Optional[np.ndarray]
    min_gap: float
    path: Optional[HamiltonianPath] = None
    construction: str = "discrete"
    # (N, n) rates f_n = <v_n|G|v_n> of the transport phase a transported
    # frame folds into its vectors (G the unitary's generator); None for
    # discrete frames
    generator_rates: Optional[np.ndarray] = None
    # int_0^s E per level (``_cumtrapz``), which does not depend on tau, so a
    # frame re-bound to another tau (``dataclasses.replace``) keeps it
    _value_integrals: Optional[np.ndarray] = field(default=None, repr=False)
    # int_0^s f per level, given where the frame's builder holds it (a
    # custom dual: its grid frame's int_0^s E); formed per call otherwise
    _rate_integrals: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def npoints(self) -> int:
        return len(self.grid)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def projector(self, level: int, rows=slice(None)) -> np.ndarray:
        """P_level(s_k) on the grid points ``rows``; shape (N, n, n) for
        all of them."""
        v = self.vectors[rows, :, level]
        return np.einsum("ki,kj->kij", v, v.conj())

    def completeness_defect(self) -> float:
        """max_k || sum_n P_n(s_k) - I ||_F (= frame orthonormality defect)."""
        return unitarity_defect(self.vectors)

    def gauge_residual(self) -> float:
        """max_k,n |Im <v_n(s_k)|v_n(s_k+1)>| / ds: the discrete <E|Edot>."""
        ov = _neighbor_overlaps(self.vectors)
        ds = np.diff(self.grid)[:, None]
        return float(np.max(np.abs(ov.imag) / ds))

    def phase_integrals(self, rows=slice(None)) -> np.ndarray:
        """tau * cumulative integral (``_cumtrapz``) of the level values on
        the grid points ``rows``; shape (N, n) for all of them."""
        if self._value_integrals is None:
            self._value_integrals = _cumtrapz(self.values, self.grid)
        return self.tau * self._value_integrals[rows]

    def integrand_phases(self) -> Optional[np.ndarray]:
        """tau * cumulative integral of E_n + f_n, with f the generator
        rates (zero for discrete frames): the phases left in the kernel
        integrands, whose entry (m, n) oscillates as
        e^{i(theta_m - theta_n)}; shape (N, n). None where no phase is
        left (the dual, whose E + f vanishes)."""
        if self.generator_rates is None:
            return self.phase_integrals()
        rates = self._rate_integrals
        if rates is None:
            rates = _cumtrapz(self.generator_rates, self.grid)
        theta = self.phase_integrals() + self.tau * rates
        return theta if np.any(theta) else None


def _neighbor_overlaps(V: np.ndarray, step: int = 1) -> np.ndarray:
    """<v_n(s_k)|v_n(s_k+step)> per level n along the subsequence of every
    ``step``-th frame; shape (ceil(N / step) - 1, n)."""
    return np.einsum("kij,kij->kj", V[:-step:step].conj(), V[step::step])


def _accumulated_phase_factors(units: np.ndarray) -> np.ndarray:
    """Cumulative product of unit complexes, prepended with 1 and kept on
    the unit circle; shape (N-1, n) -> (N, n)."""
    out = np.empty((units.shape[0] + 1,) + units.shape[1:], dtype=complex)
    out[0] = 1.0
    np.cumprod(units, axis=0, out=out[1:])
    out /= np.abs(out)
    return out


def _greedy_match(absov: np.ndarray) -> np.ndarray:
    """Greedy max-|overlap| assignment: perm[j] = old level for new column j."""
    n = absov.shape[0]
    perm = np.full(n, -1, dtype=int)
    work = absov.copy()
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[j] = i
        work[i, :] = -1.0
        work[:, j] = -1.0
    return perm


def _min_pairwise_gap(values: np.ndarray):
    """Minimum |E_i - E_j| (i != j) over the grid; returns (gap, index).
    Per point the nearest pair is adjacent in sorted order, and rounding is
    monotone and sign-symmetric, so the adjacent differences of the sorted
    values give the gap of every pair's |E_i - E_j| bit for bit (inf for a
    single level)."""
    per_point = np.diff(np.sort(values, axis=1), axis=1).min(
        axis=1, initial=np.inf)
    k = int(np.argmin(per_point))
    return float(per_point[k]), k


def _align_initial(values, vectors, initial_vectors):
    """Permute levels and fix per-level constant phases to match s=0 vectors."""
    ov0 = initial_vectors.conj().T @ vectors[0]
    perm = _greedy_match(np.abs(ov0))
    matched = np.abs(ov0[perm, np.arange(len(perm))])
    if np.min(matched) < OVERLAP_FLOOR:
        raise ValueError(
            "initial_vectors do not match the s=0 eigenvectors "
            f"(min overlap {np.min(matched):.3f})")
    # reorder columns so level j matches initial_vectors[:, j]
    inv = np.argsort(perm)
    vectors = vectors[:, :, inv]
    values = values[:, inv]
    ov0 = initial_vectors.conj().T @ vectors[0]
    vectors *= np.exp(-1j * np.angle(np.diagonal(ov0)))
    return values, vectors


def _default_initial_phase(vectors):
    """Make the largest-magnitude component of each s=0 vector real positive
    (in place)."""
    v0 = vectors[0]
    idx = np.argmax(np.abs(v0), axis=0)
    vectors *= np.exp(-1j * np.angle(v0[idx, np.arange(v0.shape[1])]))


def _track_levels(W, V, grid):
    """Reorder eigh output so levels are continuous in s; returns (W, V) and
    their neighbor overlaps, each at least OVERLAP_FLOOR in modulus."""
    ov = _neighbor_overlaps(V)
    bad = np.where(np.abs(ov).min(axis=1) < OVERLAP_FLOOR)[0]
    if len(bad) == 0:
        return W, V, ov
    # level order may genuinely change (e.g. after relabeling); match greedily
    W = W.copy()
    V = V.copy()
    for k in bad:
        full = np.abs(V[k].conj().T @ V[k + 1])
        p = _greedy_match(full)
        matched = full[p, np.arange(len(p))]
        if np.min(matched) < OVERLAP_FLOOR:
            raise ProjectorDiscontinuityError(
                float(grid[k]), float(grid[k + 1]), float(np.min(matched)),
                OVERLAP_FLOOR)
        if not np.array_equal(p, np.arange(len(p))):
            inv = np.argsort(p)
            W[k + 1:] = W[k + 1:][:, inv]
            V[k + 1:] = V[k + 1:][:, :, inv]
    # every bad step was reordered (an unmatched one raised above)
    return W, V, _neighbor_overlaps(V)


def _path_eigenpairs(path, tau, grid, stride=1):
    """Eigenpairs (W, V) of the Hermiticity-checked path on every
    ``stride``-th point of the grid, in the eigensolver's order and gauge.
    The path is evaluated at every point and solved block by block
    (``linalg._block_slices``), so one block of H is alive at a time; the
    check compares the largest defect of every block against rtol times
    their largest norm, the decision on the whole stack, once every block
    is solved."""
    n, count = path.dim, (len(grid) - 1) // stride + 1
    W = np.empty((count, n))
    V = np.empty((count, n, n), dtype=complex)
    reads = []
    for blk in _block_slices(len(grid)):
        H = path.eval_batch(grid[blk], tau)
        reads.append(_hermiticity_reads(H))
        # the solved points of the block: its multiples of the stride
        lo, hi = -(-blk.start // stride), -(-blk.stop // stride)
        W[lo:hi], V[lo:hi] = kernels.eigh_batch(
            H[lo * stride - blk.start::stride])
    _require_hermitian(reads, HERMITICITY_FRAME_RTOL)
    return W, V


def _discrete_frame(path, tau, grid, initial_vectors, eigenpairs=None):
    """The discrete frame; ``eigenpairs`` (W, V) on the grid, when given,
    stand in for the eigensolve."""
    W, V = eigenpairs or _path_eigenpairs(path, tau, grid)
    W, V, ov = _track_levels(W, V, grid)

    gap, kmin = _min_pairwise_gap(W)
    if gap <= GAP_FLOOR:
        lo = grid[max(kmin - 1, 0)]
        hi = grid[min(kmin + 1, len(grid) - 1)]
        raise EigenvalueCrossingError(float(lo), float(hi), gap, GAP_FLOOR)

    # multiplicative discrete transport: accumulate neighbor-overlap phases
    # as unit complexes (an angle cumsum would lose precision once the raw
    # solver phases random-walk to many radians)
    gauge = _accumulated_phase_factors(ov / np.abs(ov))
    # Richardson: the transport along the even points alone carries four
    # times the O(ds^2) secular phase error; their difference delta, known
    # at the even points, is interpolated linearly to the odd ones
    ov_c = _neighbor_overlaps(V, step=2)
    delta = np.angle(gauge[0::2]
                     * _accumulated_phase_factors(ov_c / np.abs(ov_c)).conj())
    for j in range(delta.shape[1]):
        # vectors are multiplied by conj(gauge): +delta/3 here lands as the
        # -delta/3 Richardson correction on the transport phase
        gauge[:, j] *= np.exp(1j / 3.0 * np.interp(grid, grid[0::2],
                                                   delta[:, j]))
    V *= gauge.conj()[:, None, :]
    if initial_vectors is not None:
        W, V = _align_initial(W, V, np.asarray(initial_vectors, dtype=complex))
    else:
        _default_initial_phase(V)
    return EigenFrame(grid=np.asarray(grid, dtype=float), tau=float(tau),
                      values=np.ascontiguousarray(W),
                      vectors=np.ascontiguousarray(V),
                      min_gap=gap, path=path, construction="discrete")


def _transported_frame(path, tau, grid, initial_vectors, base_frame=None,
                       unitaries=None):
    """The transported frame of ``path`` on ``base_frame``, the frame of
    ``path.base`` on ``grid`` (built here when None). Only its values,
    vectors and gap are read, so where H_base(s) does not depend on tau one
    base frame serves every tau. ``unitaries``, when given, are
    ``path.unitary`` on ``grid`` at tau, which paths that share the unitary
    evaluate once; they are read, not written."""
    if base_frame is None:
        base_frame = eigenframe(path.base, tau, grid, initial_vectors)
    U = (path.unitary.eval_batch(grid, tau) if unitaries is None
         else unitaries)
    udefects = _unitarity_defects(U)
    k = int(np.argmax(udefects))
    if udefects[k] > 1e-9:
        raise NumericalCheckError(
            f"transforming path is not unitary on the grid (defect "
            f"{udefects[k]:.2e} > 1e-9)",
            (float(grid[max(k - 1, 0)]),
             float(grid[min(k + 1, len(grid) - 1)])))
    if float(np.linalg.norm(U[0] - np.eye(path.dim))) > 1e-12:
        raise NumericalCheckError(
            "transforming path does not start at the identity")

    f = _generator_rates(path, tau, grid, base_frame.values,
                         base_frame.vectors)
    phi = tau * _cumtrapz(f, np.asarray(grid, dtype=float))

    vecs = dagger_dot(U, base_frame.vectors)
    vecs *= np.exp(-1j * phi)[:, None, :]
    values = path.sign * base_frame.values

    frame = EigenFrame(grid=np.asarray(grid, dtype=float), tau=float(tau),
                       values=np.ascontiguousarray(values),
                       vectors=np.ascontiguousarray(vecs),
                       min_gap=base_frame.min_gap, path=path,
                       construction="transported", generator_rates=f)
    _check_transport_generator(path, tau, grid)
    return frame


def _generator_rates(path, tau, grid, values, vectors) -> np.ndarray:
    """f_n = <v_n|G|v_n> per grid point for the base eigenvalues ``values``
    and eigenvectors ``vectors`` of a transformed path, G the generator of
    its unitary; (N, n)."""
    gen = path.unitary.generator
    if gen is path.base:
        return values
    G = gen.eval_batch(grid, tau)
    return np.diagonal(sandwich(vectors, G, vectors), axis1=1, axis2=2).real


def _uses_transport(path: HamiltonianPath, transport: str) -> bool:
    """Whether ``eigenframe`` builds the transported frame for ``path``
    under the ``transport`` mode (ValueError for an unknown mode or a
    transported request it cannot honour)."""
    if transport not in ("auto", "discrete", "transported"):
        raise ValueError(f"unknown transport mode {transport!r}")
    can_transport = (isinstance(path, TransformedHamiltonianPath)
                     and path.unitary.generator is not None)
    if transport == "transported" and not can_transport:
        raise ValueError("transported construction needs a transformed path "
                         "with a known unitary generator")
    return can_transport and transport in ("auto", "transported")


def _check_transport_generator(path, tau, grid):
    """Spot-check i/tau dU/ds U^dagger against the declared generator.

    The transported vectors diagonalize the path for any unitary; what goes
    wrong with a mis-declared generator is the transport phase. The
    tolerance is 1e-5 of the generator's norm (at least 1).
    """
    gen = path.unitary.generator
    grid = np.asarray(grid, dtype=float)
    probe = grid[[len(grid) // 5, len(grid) // 2, (4 * len(grid)) // 5]]
    G_ref = gen.eval_batch(probe, tau)
    scale = max(float(np.max(np.linalg.norm(G_ref, axis=(1, 2)))), 1.0)
    h = 1e-2 / max(abs(tau) * scale, 1.0)
    dU = fd4_derivative(path.unitary, probe, tau, h)
    G = (1j / tau) * dU @ dagger(path.unitary.eval_batch(probe, tau))
    worst = float(np.max(np.linalg.norm(G - G_ref, axis=(1, 2))))
    tol = 1e-5 * scale
    if worst > tol:
        raise NumericalCheckError(
            f"transported frame generator mismatch {worst:.3e} (tolerance "
            f"{tol:.1e}); the transforming unitary is not "
            "generated by the declared source (use transport='discrete')")


def eigenframe(path: HamiltonianPath, tau: float, grid,
               initial_vectors=None, transport: str = "auto") -> EigenFrame:
    """Build a level-tracked, parallel-transport-gauged eigenframe. Gaps
    at or below GAP_FLOOR and neighbor overlaps below OVERLAP_FLOOR raise.

    ``transport``: "auto" uses the exact transported construction for
    transformed paths whose unitary has a known generator, otherwise the
    generic per-point construction; "discrete"/"transported" force a route.
    ``initial_vectors`` pins level order and phases at s = 0 (columns).
    """
    grid = check_grid(grid, min_points=3)
    if _uses_transport(path, transport):
        return _transported_frame(path, tau, grid, initial_vectors)
    return _discrete_frame(path, tau, grid, initial_vectors)


def couplings(frame: EigenFrame, method: str = "auto") -> np.ndarray:
    """Pairwise couplings C[k, m, n] = <E_m(s_k)| dE_n/ds (s_k)>.

    "hf": via <E_m|dH/ds|E_n> / (E_n - E_m) (needs the frame's path);
    "fd": 4th-order finite differences of the gauged vectors, diagonal kept
    as a gauge-residual readout. "auto" prefers "hf".
    """
    if method == "auto":
        method = "hf" if frame.path is not None else "fd"
    if method == "hf":
        if frame.path is None:
            raise ValueError("frame has no path; use method='fd'")
        # formed block by block (``linalg._block_slices``): the derivative,
        # its sandwich and the level differences of one block are alive at
        # a time, and the gap decision reads every block's smallest
        n, v = frame.dim, frame.vectors
        eye = np.eye(n, dtype=bool)
        C = np.empty((frame.npoints, n, n), dtype=complex)
        gaps = []
        for blk in _block_slices(frame.npoints):
            Hd = frame.path.derivative_batch(frame.grid[blk], frame.tau)
            C[blk] = sandwich(v[blk], Hd, v[blk])
            del Hd
            w = frame.values[blk]
            den = w[:, None, :] - w[:, :, None]
            # a single level has no pair: its coupling is 0
            gaps.append(np.min(np.abs(den[:, ~eye]), initial=np.inf))
            den[:, eye] = 1.0
            C[blk] /= den
        gap = float(np.min(gaps))
        if gap < GAP_FLOOR:
            raise EigenvalueCrossingError(
                float(frame.grid[0]), float(frame.grid[-1]), gap, GAP_FLOOR)
        C[:, eye] = 0.0
        return C
    if method == "fd":
        dV = _derivative_fd4(frame.vectors, frame.grid)
        return np.einsum("kim,kin->kmn", frame.vectors.conj(), dV)
    raise ValueError(f"unknown method {method!r}")


def _derivative_fd4(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """4th-order finite-difference d/dx along axis 0 on a uniform grid."""
    if not is_uniform(x):
        raise ValueError("finite-difference route needs a uniform grid")
    return _fd4_steps(y, 0, len(y)) / (x[1] - x[0])


def kato_operator(frame: EigenFrame) -> np.ndarray:
    """Geometric evolution U_A(s_k) = sum_n |E_n(s_k)><E_n(0)|; (N, n, n)."""
    v0 = frame.vectors[0]
    return np.einsum("kij,lj->kil", frame.vectors, v0.conj())


def kernel_coefficients(frame: EigenFrame,
                        C: Optional[np.ndarray] = None) -> np.ndarray:
    """Kernel matrix elements in the s=0 eigenbasis (N, n, n).

    Couplings built here are dressed in place; a caller's ``C`` is copied.
    """
    coeff = couplings(frame) if C is None else C.copy()
    idx = np.arange(frame.dim)
    _dress_kernel(frame, coeff, idx[:, None], idx[None, :])
    coeff[:, idx, idx] = 0.0
    return coeff


def _dress_kernel(frame: EigenFrame, coeff: np.ndarray, rows, cols,
                  points=slice(None)):
    """coeff <- i e^{i(phi_m - phi_n)} coeff in place, with m = ``rows`` and
    n = ``cols`` indexing the levels: the kernel coefficients of the
    couplings C_mn held in ``coeff`` (a full (N, n, n) stack, or the pair
    columns of ``diagnostics._kernel_integrand``) at the grid points
    ``points``. Returns ``coeff``."""
    # e^{i(phi_m - phi_n)} = e_m conj(e_n): n exponentials per point, not n^2
    e = np.exp(1j * frame.phase_integrals(points))
    coeff *= e[:, rows]
    coeff *= e.conj()[:, cols]
    coeff *= 1j
    return coeff
