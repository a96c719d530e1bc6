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
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._backend import kernels
from .exceptions import EigenvalueCrossingError, ProjectorDiscontinuityError
from .linalg import (check_hermitian, dagger, dagger_dot, sandwich,
                     unitarity_defect)
from .paths import (FD4_CENTRAL_NUMERATORS, FD4_DENOMINATOR,
                    FD4_FORWARD_NUMERATORS, HamiltonianPath, check_grid,
                    fd4_derivative, is_uniform)
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
    vectors: np.ndarray         # (N, n, n); [:, :, j] is level j
    min_gap: float
    path: Optional[HamiltonianPath] = None
    construction: str = "discrete"
    _phase_integrals: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def npoints(self) -> int:
        return len(self.grid)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def projector(self, level: int) -> np.ndarray:
        """P_level(s_k) for all k; shape (N, n, n)."""
        v = self.vectors[:, :, level]
        return np.einsum("ki,kj->kij", v, v.conj())

    def initial_vectors(self) -> np.ndarray:
        return self.vectors[0]

    def completeness_defect(self) -> float:
        """max_k || sum_n P_n(s_k) - I ||_F (= frame orthonormality defect)."""
        return unitarity_defect(self.vectors)

    def gauge_residual(self) -> float:
        """max_k,n |Im <v_n(s_k)|v_n(s_k+1)>| / ds: the discrete <E|Edot>."""
        ov = _neighbor_overlaps(self.vectors)
        ds = np.diff(self.grid)[:, None]
        return float(np.max(np.abs(ov.imag) / ds))

    def phase_integrals(self) -> np.ndarray:
        """tau * cumulative-trapezoid of the level values; shape (N, n)."""
        if self._phase_integrals is None:
            self._phase_integrals = self.tau * _cumtrapz(self.values, self.grid)
        return self._phase_integrals


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at 0."""
    dx = np.diff(x)
    shaped = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    inc = 0.5 * (y[1:] + y[:-1]) * shaped
    out = np.empty_like(inc, shape=(len(x),) + y.shape[1:])
    out[0] = 0.0
    np.cumsum(inc, axis=0, out=out[1:])
    return out


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
    """Minimum |E_i - E_j| (i != j) over the grid; returns (gap, index)."""
    diff = np.abs(values[:, :, None] - values[:, None, :])
    n = values.shape[1]
    diff[:, np.arange(n), np.arange(n)] = np.inf
    per_point = diff.min(axis=(1, 2))
    k = int(np.argmin(per_point))
    return float(per_point[k]), k


def _align_initial(values, vectors, initial_vectors, overlap_floor):
    """Permute levels and fix per-level constant phases to match s=0 vectors."""
    ov0 = initial_vectors.conj().T @ vectors[0]
    perm = _greedy_match(np.abs(ov0))
    matched = np.abs(ov0[perm, np.arange(len(perm))])
    if np.min(matched) < overlap_floor:
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


def _track_levels(W, V, grid, overlap_floor):
    """Reorder eigh output so levels are continuous in s; returns (W, V) and
    their neighbor overlaps, each at least ``overlap_floor`` in modulus."""
    ov = _neighbor_overlaps(V)
    bad = np.where(np.abs(ov).min(axis=1) < overlap_floor)[0]
    if len(bad) == 0:
        return W, V, ov
    # level order may genuinely change (e.g. after relabeling); match greedily
    W = W.copy()
    V = V.copy()
    for k in bad:
        full = np.abs(V[k].conj().T @ V[k + 1])
        p = _greedy_match(full)
        matched = full[p, np.arange(len(p))]
        if np.min(matched) < overlap_floor:
            raise ProjectorDiscontinuityError(
                float(grid[k]), float(grid[k + 1]), float(np.min(matched)),
                overlap_floor)
        if not np.array_equal(p, np.arange(len(p))):
            inv = np.argsort(p)
            W[k + 1:] = W[k + 1:][:, inv]
            V[k + 1:] = V[k + 1:][:, :, inv]
    # every bad step was reordered (an unmatched one raised above)
    return W, V, _neighbor_overlaps(V)


def _discrete_frame(path, tau, grid, initial_vectors, gap_floor,
                    overlap_floor):
    H = path.eval_batch(grid, tau)
    check_hermitian(H, HERMITICITY_FRAME_RTOL)
    W, V = kernels.eigh_batch(H)
    del H  # the (N, n, n) stack is not needed past the eigensolve
    W, V, ov = _track_levels(W, V, grid, overlap_floor)

    gap, kmin = _min_pairwise_gap(W)
    if gap <= gap_floor:
        lo = grid[max(kmin - 1, 0)]
        hi = grid[min(kmin + 1, len(grid) - 1)]
        raise EigenvalueCrossingError(float(lo), float(hi), gap, gap_floor)

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
        W, V = _align_initial(W, V, np.asarray(initial_vectors, dtype=complex),
                              overlap_floor)
    else:
        _default_initial_phase(V)
    return EigenFrame(grid=np.asarray(grid, dtype=float), tau=float(tau),
                      values=np.ascontiguousarray(W),
                      vectors=np.ascontiguousarray(V),
                      min_gap=gap, path=path, construction="discrete")


def _transported_frame(path, tau, grid, initial_vectors, gap_floor,
                       overlap_floor, residual_rtol=1e-6):
    base_frame = eigenframe(path.base, tau, grid,
                            initial_vectors=initial_vectors,
                            gap_floor=gap_floor, overlap_floor=overlap_floor)
    U = path.unitary.eval_batch(grid, tau)
    udefect = unitarity_defect(U)
    if udefect > 1e-9:
        raise ValueError(f"transforming path is not unitary on the grid "
                         f"(defect {udefect:.2e} > 1e-9)")
    if float(np.linalg.norm(U[0] - np.eye(path.dim))) > 1e-12:
        raise ValueError("transforming path does not start at the identity")

    gen = path.unitary.generator
    if gen is path.base:
        f = base_frame.values
    else:
        G = gen.eval_batch(grid, tau)
        V = base_frame.vectors
        f = np.diagonal(sandwich(V, G, V), axis1=1, axis2=2).real
    phi = tau * _cumtrapz(f, np.asarray(grid, dtype=float))

    vecs = dagger_dot(U, base_frame.vectors)
    vecs = vecs * np.exp(-1j * phi)[:, None, :]
    values = path.sign * base_frame.values

    frame = EigenFrame(grid=np.asarray(grid, dtype=float), tau=float(tau),
                       values=np.ascontiguousarray(values),
                       vectors=np.ascontiguousarray(vecs),
                       min_gap=base_frame.min_gap, path=path,
                       construction="transported")
    _check_transport_generator(path, tau, grid, residual_rtol)
    return frame


def _check_transport_generator(path, tau, grid, rtol):
    """Spot-check i/tau dU/ds U^dagger against the declared generator.

    The transported vectors diagonalize the path for any unitary; what goes
    wrong with a mis-declared generator is the transport phase. Skipped for
    unitaries that cannot be evaluated off their own grid.
    """
    gen = path.unitary.generator
    grid = np.asarray(grid, dtype=float)
    probe = grid[[len(grid) // 5, len(grid) // 2, (4 * len(grid)) // 5]]
    G_ref = gen.eval_batch(probe, tau)
    scale = max(float(np.max(np.linalg.norm(G_ref, axis=(1, 2)))), 1.0)
    h = 1e-2 / max(abs(tau) * scale, 1.0)
    try:
        path.unitary.eval(float(probe[0]) + 0.5 * h, tau)
    except ValueError:
        return  # grid-locked unitary: generator consistency is caller-asserted
    dU = fd4_derivative(path.unitary, probe, tau, h)
    G = (1j / tau) * dU @ dagger(path.unitary.eval_batch(probe, tau))
    worst = float(np.max(np.linalg.norm(G - G_ref, axis=(1, 2))))
    if worst > rtol * scale * 10.0:
        raise ValueError(
            f"transported frame generator mismatch {worst:.3e} (tolerance "
            f"{rtol * scale * 10.0:.1e}); the transforming unitary is not "
            "generated by the declared source (use transport='discrete')")


def eigenframe(path: HamiltonianPath, tau: float, grid,
               initial_vectors=None, gap_floor: float = GAP_FLOOR,
               overlap_floor: float = OVERLAP_FLOOR,
               transport: str = "auto") -> EigenFrame:
    """Build a level-tracked, parallel-transport-gauged eigenframe.

    ``transport``: "auto" uses the exact transported construction for
    transformed paths whose unitary has a known generator, otherwise the
    generic per-point construction; "discrete"/"transported" force a route.
    ``initial_vectors`` pins level order and phases at s = 0 (columns).
    """
    grid = check_grid(grid, min_points=3)
    if transport not in ("auto", "discrete", "transported"):
        raise ValueError(f"unknown transport mode {transport!r}")

    can_transport = (isinstance(path, TransformedHamiltonianPath)
                     and path.unitary.generator is not None)
    if transport == "transported" and not can_transport:
        raise ValueError("transported construction needs a transformed path "
                         "with a known unitary generator")
    use_transport = can_transport and transport in ("auto", "transported")
    if use_transport:
        return _transported_frame(path, tau, grid, initial_vectors,
                                  gap_floor, overlap_floor)
    return _discrete_frame(path, tau, grid, initial_vectors, gap_floor,
                           overlap_floor)


def couplings(frame: EigenFrame, method: str = "auto",
              gap_floor: float = GAP_FLOOR) -> np.ndarray:
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
        Hd = frame.path.derivative_batch(frame.grid, frame.tau)
        num = sandwich(frame.vectors, Hd, frame.vectors)
        den = frame.values[:, None, :] - frame.values[:, :, None]
        n = frame.dim
        eye = np.eye(n, dtype=bool)
        if np.min(np.abs(den[:, ~eye])) < gap_floor:
            raise EigenvalueCrossingError(
                float(frame.grid[0]), float(frame.grid[-1]),
                float(np.min(np.abs(den[:, ~eye]))), gap_floor)
        den[:, eye] = 1.0
        C = num / den
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
    h = x[1] - x[0]
    out = np.empty_like(y)
    c = FD4_CENTRAL_NUMERATORS
    out[2:-2] = (c[0] * y[:-4] + c[1] * y[1:-3] + c[2] * y[3:-1]
                 + c[3] * y[4:]) / (FD4_DENOMINATOR * h)
    # one-sided 4th-order stencils at the edges
    fwd = FD4_FORWARD_NUMERATORS / FD4_DENOMINATOR
    for i in (0, 1):
        out[i] = sum(c * y[i + k] for k, c in enumerate(fwd)) / h
    for i in (-2, -1):
        out[i] = -sum(c * y[y.shape[0] + i - k] for k, c in enumerate(fwd)) / h
    return out


def kato_operator(frame: EigenFrame) -> np.ndarray:
    """Geometric evolution U_A(s_k) = sum_n |E_n(s_k)><E_n(0)|; (N, n, n)."""
    v0 = frame.vectors[0]
    return np.einsum("kij,lj->kil", frame.vectors, v0.conj())


def dynamical_phase(frame: EigenFrame) -> np.ndarray:
    """Phase operator sum_n exp(-i tau int_0^s E_n) P_n(0); (N, n, n)."""
    phases = np.exp(-1j * frame.phase_integrals())
    v0 = frame.vectors[0]
    return np.einsum("ij,kj,lj->kil", v0, phases, v0.conj())


def kato_generator(frame: EigenFrame, C: Optional[np.ndarray] = None) -> np.ndarray:
    """Generator of the geometric evolution, i sum_n Pdot_n P_n; (N, n, n)."""
    if C is None:
        C = couplings(frame)
    n = frame.dim
    off = C.copy()
    off[:, np.arange(n), np.arange(n)] = 0.0
    Vd = dagger(frame.vectors)
    return 1j * sandwich(Vd, off, Vd)


def kernel(frame: EigenFrame, C: Optional[np.ndarray] = None) -> np.ndarray:
    """Phase-dressed kernel of the Volterra evolution equation; (N, n, n).

    Entry (m, n) in the s=0 eigenbasis is
    i exp(+i [phi_m - phi_n]) <E_m|dE_n/ds> with phi_j = tau int_0^s E_j;
    the diagonal vanishes by gauge.
    """
    coeff = kernel_coefficients(frame, C)
    v0 = frame.vectors[0]
    return np.einsum("im,kmn,jn->kij", v0, coeff, v0.conj())


def kernel_coefficients(frame: EigenFrame,
                        C: Optional[np.ndarray] = None) -> np.ndarray:
    """Kernel matrix elements in the s=0 eigenbasis (N, n, n)."""
    if C is None:
        C = couplings(frame)
    # e^{i(phi_m - phi_n)} = e_m conj(e_n): n exponentials per point, not n^2
    e = np.exp(1j * frame.phase_integrals())
    n = frame.dim
    coeff = e[:, :, None] * e.conj()[:, None, :]
    coeff *= C
    coeff *= 1j
    coeff[:, np.arange(n), np.arange(n)] = 0.0
    return coeff
