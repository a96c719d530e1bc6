"""Numerical solution of the scaled-time Schrodinger equation.

Three integrators, all unitary by construction and well behaved on the
highly oscillatory problems that arise at large tau:

* ``propagate`` (fixed grid) uses the midpoint exponential (second-order
  Magnus) rule

      U(s + ds) = exp(-i tau ds H(s + ds/2, tau)) U(s),

  one exponential per step. The kernel multiplies the substeps of each grid
  interval together, then chains only the interval products and writes them
  straight into the result. 2x2 substeps are multiplied as unit
  quaternions with summed phase angles, and only the interval products
  become matrices (``_kernels_py.propagate_steps``).
* ``propagate_eigenbasis`` (fixed grid, in the adiabatic basis) takes the
  eigenpairs (E_j, V_j) of H at the points t_j of a fine grid and returns
  Q(t_j) = V_j^dagger U(t_j) V_0 on every r-th point. Its step is the
  exponential midpoint rule on the grid staggered by half a step (Strang),
  whose exponentials are diagonal in the eigenbasis:

      Q_{j+1} = D_{j+1} (V_{j+1}^dagger V_j) D_j Q_j,
      D_j = diag(exp(-i c h_j E_j / 2)),

  second order like the midpoint rule. Nothing is factorized per
  coefficient c, so one set of eigenpairs and overlaps serves every c. It
  is a chunk step: it chains the steps it is given from a carry (Q at the
  chunk's first point) and returns the chunk's records, so a caller that
  walks a fine grid in chunks of ``CHAIN_CHUNK`` steps holds one chunk's
  eigenpairs, overlaps, steps and records at a time. The scenario runner
  walks each grid of a tau-independent custom path once this way and
  chains Q at tau and 2 tau for every tau on it, each from its own carry
  (after Jahnke & Lubich, Numer. Math. 94 (2003) 289-314).
* ``propagate_adaptive`` uses the fourth-order commutator-free Magnus rule
  CF4 (Blanes & Moan, Appl. Numer. Math. 56 (2006)): with the Gauss nodes
  c_1,2 = 1/2 -+ sqrt(3)/6, H_j = H(s + c_j ds) and b_1,2 = 1/4 +- sqrt(3)/6,

      U(s + ds) = exp(-i tau ds [b_2 H_1 + b_1 H_2])
                  exp(-i tau ds [b_1 H_1 + b_2 H_2]) U(s),

  two exponentials per step. The order of the two matters: swapped, the
  rule is second order. Step doubling controls the step size with the
  exponent 1/5 of an order-4 method.

Every step exponential is formed in the numpy kernels
(``_kernels_py.exponential_map`` and ``propagate_steps``): for 2x2 steps
(every spin-half system) in the closed SU(2) form
e^{-i alpha m} (cos(alpha r) I - i sin(alpha r)/r (H - m I)), a phase angle
and a unit quaternion from the components of each step matrix, with no
eigensolve; for larger ones from LAPACK eigenpairs.
"""

from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from ._kernels_py import _matmul_stack, chain_records, chain_steps
from .exceptions import StepLimitError
from .linalg import check_hermitian, unitarity_defect
from .paths import HamiltonianPath, check_grid, grid_index

STEP_CAP = 10**7
# midpoint steps per chunk of ``propagate``, 16 times ``linalg._BLOCK``: the
# 2x2 kernel folds a chunk's substeps in one Python loop over them
# (``_kernels_py.propagate_steps``); in chunks of 4,096 steps, 4,096
# intervals of 50 substeps took 0.067 s against 0.048 s (2 cores)
_CHUNK_TARGET = 65536
# steps per chunk of the eigenbasis chain (whole recorded intervals of
# about this many), whose step buffer is (chunk, n, n)
CHAIN_CHUNK = 4096
_HERM_RTOL = 1e-10
_NOISE_FLOOR = 64.0 * np.finfo(float).eps
# step-doubling controller: steps compared per batch of CF4 steps, the
# safety factor on the predicted step size, and the order of the CF4 step
_ADAPTIVE_BATCH = 64
_SAFETY = 0.9
_ORDER = 4
# CF4 Gauss nodes c_1,2 = 1/2 -+ sqrt(3)/6; row i of _CF4_MIX holds the
# weights of (H(c_1), H(c_2)) in the i-th exponential applied
_CF4_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_CF4_MIX = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * np.sqrt(3.0) / 6.0


@dataclass
class PropagationResult:
    """Evolution operators U(s_k) on an ascending grid, U(s_0) = I."""

    grid: np.ndarray            # (K,)
    unitaries: np.ndarray       # (K, n, n)
    max_unitarity_defect: float
    steps_taken: int
    tau: float

    @property
    def dim(self) -> int:
        return self.unitaries.shape[-1]

    def final(self) -> np.ndarray:
        return self.unitaries[-1]

    def at(self, s: float) -> np.ndarray:
        return self.unitaries[grid_index(self.grid, s)]


def propagate(path: HamiltonianPath, tau: float, grid,
              substeps: int = 1, step_cap: int = STEP_CAP) -> PropagationResult:
    """Propagate with fixed steps, recording U at every grid point.

    Each grid interval is subdivided into ``substeps`` midpoint-exponential
    micro-steps. Global error is O(ds^2) in the micro-step size.
    """
    grid = check_grid(grid, min_points=2)
    substeps = int(substeps)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    nint = len(grid) - 1
    total = nint * substeps
    if total > step_cap:
        raise StepLimitError(step_cap,
                             f"{total} steps requested, cap is {step_cap}")

    n = path.dim
    tau = float(tau)
    unitaries = np.empty((len(grid), n, n), dtype=complex)
    unitaries[0] = np.eye(n)

    # chunk whole grid intervals so records line up with grid points
    per_chunk = max(1, _CHUNK_TARGET // substeps)
    for pos in range(0, nint, per_chunk):
        hi = min(pos + per_chunk, nint)
        lefts = grid[pos:hi]
        dsub = (grid[pos + 1:hi + 1] - lefts) / substeps
        # midpoints of all micro-steps in the chunk, interval-major order
        offsets = (np.arange(substeps) + 0.5)[None, :] * dsub[:, None]
        mids = (lefts[:, None] + offsets).ravel()
        H = path.eval_batch(mids, tau)
        check_hermitian(H, _HERM_RTOL)
        # kernels symmetrize their working copies; no pre-hermitization
        # needed. The records go straight into the result array.
        kernels.propagate_steps(H, tau * np.repeat(dsub, substeps),
                                unitaries[pos], substeps,
                                out=unitaries[pos + 1:hi + 1])

    return PropagationResult(grid=grid, unitaries=unitaries,
                             max_unitarity_defect=unitarity_defect(unitaries),
                             steps_taken=total, tau=tau)


def propagate_eigenbasis(values: np.ndarray, overlaps: np.ndarray,
                         grid: np.ndarray, coef: float, record_every: int,
                         carry: np.ndarray) -> np.ndarray:
    """One chunk of the chain Q(t_k) = V(t_k)^dagger U(t_k) V(t_0) for
    i dU/ds = coef H U (see the module docstring): from ``carry``, Q at
    ``grid[0]``, the records at every ``record_every``-th point of
    ``grid`` after its first; (len(grid) - 1) / record_every matrices.

    ``values`` (J + 1, n) are the eigenvalues of H at the grid points, with
    eigenvector columns V_j in any gauge and order, and ``overlaps``
    (J, n, n) are V_{j+1}^dagger V_j. The step buffer is (J, n, n), so a
    caller walks a long grid in chunks of ``CHAIN_CHUNK`` steps, each
    chunk's last record the next one's carry. The products are grouped by
    chunk, so the rounding follows the chunk length. Global error is
    O(h^2).
    """
    h = -0.5j * float(coef) * np.diff(grid)[:, None]
    steps = overlaps * np.exp(h * values[1:])[:, :, None]
    steps *= np.exp(h * values[:-1])[:, None, :]
    return chain_records(steps, carry, record_every)


def _cf4_steps(path: HamiltonianPath, tau: float, lefts: np.ndarray,
               dts: np.ndarray) -> np.ndarray:
    """CF4 step propagators (see the module docstring) over the intervals
    [lefts_k, lefts_k + dts_k]; shape (m, n, n). One ``eval_batch``, one
    Hermiticity check and one stacked factorization cover the 2m nodes and
    the 2m weighted combinations."""
    m, n = len(lefts), path.dim
    nodes = lefts[:, None] + _CF4_NODES * dts[:, None]
    H = path.eval_batch(nodes.ravel(), tau)
    check_hermitian(H, _HERM_RTOL)  # kernels symmetrize their working copies
    combos = np.einsum("ij,kjab->kiab", _CF4_MIX, H.reshape(m, 2, n, n))
    exps = kernels.exponential_map(combos.reshape(2 * m, n, n))(
        np.repeat(float(tau) * dts, 2)).reshape(m, 2, n, n)
    _matmul_stack(exps[:, 1], exps[:, 0], exps[:, 1])
    return exps[:, 1]


def propagate_adaptive(path: HamiltonianPath, tau: float, s_end: float,
                       tol: float, s_start: float = 0.0,
                       step_cap: int = STEP_CAP) -> PropagationResult:
    """Propagate with step-doubling control of the local error per unit s.

    The steps are fourth-order commutator-free Magnus (CF4) steps (see
    ``_cf4_steps``): two exponentials of Gauss-node combinations of H per
    step. Every step is validated by comparing the full step against the two
    half steps covering the same interval (Frobenius norm); a step of size h
    is accepted when that difference is at most max(tol * h, _NOISE_FLOOR),
    the floor being where the comparison drowns in floating-point noise.
    The next step size is h * min(2, max(0.2, 0.9 (target / error)^(1/5))),
    the exponent 1/(p+1) of an order-p = 4 method. Below ``h_floor`` a
    step is accepted rather than stalling, and more than ``step_cap`` trial
    steps raise ``StepLimitError``. The comparisons are evaluated
    ``_ADAPTIVE_BATCH`` steps at a time, starting from
    h = min(span, 0.1 / max(|tau|, 1)): one ``_cf4_steps`` call gives every
    full- and half-step propagator of the batch, and the accepted half-step
    pairs are chained onto the current state with the blocked prefix
    product of ``_kernels_py.chain_steps``. Returns U on the accepted-step
    grid.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if s_end <= s_start:
        raise ValueError("s_end must exceed s_start")
    span = s_end - s_start
    h = min(span, 0.1 / max(abs(tau), 1.0))
    h_floor = max(1e-13 * span, 8.0 * np.finfo(float).eps * (abs(s_start) + span))
    n = path.dim

    grids = [np.array([s_start])]
    us = [np.eye(n, dtype=complex)[None]]
    ucur = us[0][0]
    s = s_start
    trials = 0
    while s < s_end - 1e-14 * span:
        remaining = s_end - s
        m = int(min(_ADAPTIVE_BATCH, max(1, np.ceil(remaining / h - 1e-12))))
        heff = min(h, remaining / m)
        trials += 3 * m
        if trials > step_cap:
            raise StepLimitError(step_cap,
                                 f"step-doubling exceeded cap {step_cap} "
                                 f"(tolerance {tol} may be unreachable)")
        # m full steps, then the 2m half steps covering the same interval
        lefts = np.concatenate([s + np.arange(m) * heff,
                                s + np.arange(2 * m) * (0.5 * heff)])
        dts = np.repeat([heff, 0.5 * heff], [m, 2 * m])
        steps = _cf4_steps(path, tau, lefts, dts)
        step_h = np.empty((m, n, n), dtype=complex)
        _matmul_stack(steps[m + 1::2], steps[m::2], step_h)
        local = np.linalg.norm(steps[:m] - step_h, axis=(1, 2))
        target = max(tol * heff, _NOISE_FLOOR)
        ok = local <= target
        naccept = int(np.argmin(ok)) if not ok.all() else m
        if naccept == 0 and heff <= h_floor:
            naccept = 1    # step size floor: accept rather than stall
        worst = float(np.max(local[:naccept])) if naccept > 0 \
            else float(local[0])
        worst = max(worst, 1e-3 * target)
        factor = (target / worst) ** (1.0 / (_ORDER + 1))
        h = max(heff * min(2.0, max(0.2, _SAFETY * factor)), h_floor)
        if naccept > 0:
            new_us = step_h[:naccept]
            chain_steps(new_us, ucur)
            grids.append(s + np.arange(1, naccept + 1) * heff)
            us.append(new_us)
            ucur = new_us[-1]
            s += naccept * heff

    unitaries = np.concatenate(us)
    return PropagationResult(grid=np.concatenate(grids), unitaries=unitaries,
                             max_unitarity_defect=unitarity_defect(unitaries),
                             steps_taken=trials // 3, tau=float(tau))
