"""Numerical solution of the scaled-time Schrodinger equation.

The integrator is the midpoint exponential (second-order Magnus) rule

    U(s + ds) = exp(-i tau ds H(s + ds/2, tau)) U(s),

which is unitary by construction, second-order accurate, and well behaved on
the highly oscillatory problems that arise at large tau. Each step costs one
Hermitian eigendecomposition in the numpy kernels: in closed form for 2x2
steps (every spin-half system), by LAPACK for larger ones.
"""

from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from ._kernels_py import chain_steps, step_exponentials
from .exceptions import StepLimitError
from .linalg import check_hermitian, unitarity_defect
from .paths import HamiltonianPath, check_grid, grid_index

STEP_CAP = 10**7
_CHUNK_TARGET = 65536
_HERM_RTOL = 1e-10
_NOISE_FLOOR = 64.0 * np.finfo(float).eps
# step-doubling controller: steps compared per stacked eigensolve, and the
# safety factor on the predicted step size
_ADAPTIVE_BATCH = 64
_SAFETY = 0.9


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
    unitaries = np.empty((len(grid), n, n), dtype=complex)
    unitaries[0] = np.eye(n)
    ucur = np.eye(n, dtype=complex)
    coef = float(tau)

    # chunk whole grid intervals so records line up with grid points
    per_chunk = max(1, _CHUNK_TARGET // substeps)
    pos = 0
    while pos < nint:
        hi = min(pos + per_chunk, nint)
        lefts = grid[pos:hi]
        rights = grid[pos + 1:hi + 1]
        dsub = (rights - lefts) / substeps
        # midpoints of all micro-steps in the chunk, interval-major order
        offsets = (np.arange(substeps) + 0.5)[None, :] * dsub[:, None]
        mids = (lefts[:, None] + offsets).ravel()
        ds = np.repeat(dsub, substeps)
        H = path.eval_batch(mids, tau)
        check_hermitian(H, _HERM_RTOL)
        # kernels symmetrize their working copies; no pre-hermitization needed
        records, ucur = kernels.propagate_steps(H, coef, ds, ucur, substeps)
        unitaries[pos + 1:hi + 1] = records
        pos = hi

    return PropagationResult(grid=grid, unitaries=unitaries,
                             max_unitarity_defect=unitarity_defect(unitaries),
                             steps_taken=total, tau=float(tau))


def propagate_adaptive(path: HamiltonianPath, tau: float, s_end: float,
                       tol: float, s_start: float = 0.0,
                       step_cap: int = STEP_CAP) -> PropagationResult:
    """Propagate with step-doubling control of the local error per unit s.

    Every step is validated by comparing the full midpoint-exponential step
    against the two half steps covering the same interval (Frobenius norm);
    a step of size h is accepted when that difference is at most ``tol * h``
    (or below the floating-point noise floor of the comparison, where the
    doubling estimate stops carrying information). The comparisons are
    evaluated ``_ADAPTIVE_BATCH`` steps at a time, starting from
    h = min(span, 0.1 / max(|tau|, 1)): one stacked eigensolve gives every
    full- and half-step exponential of the batch directly, and the accepted
    half-step pairs are chained onto the current state with the blocked
    prefix product of ``_kernels_py.chain_steps``. Returns U on the
    accepted-step grid.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if s_end <= s_start:
        raise ValueError("s_end must exceed s_start")
    span = s_end - s_start
    h = min(span, 0.1 / max(abs(tau), 1.0))
    h_floor = max(1e-13 * span, 8.0 * np.finfo(float).eps * (abs(s_start) + span))
    n = path.dim
    coef = float(tau)

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
        mids = np.concatenate([s + (np.arange(m) + 0.5) * heff,
                               s + (np.arange(2 * m) + 0.5) * (0.5 * heff)])
        dts = np.repeat([heff, 0.5 * heff], [m, 2 * m])
        H = path.eval_batch(mids, tau)
        check_hermitian(H, _HERM_RTOL)  # kernels symmetrize their working copies
        W, V = kernels.eigh_batch(H)
        steps = step_exponentials(W, V, coef * dts)
        step_h = steps[m + 1::2] @ steps[m::2]
        local = np.linalg.norm(steps[:m] - step_h, axis=(1, 2))
        target = tol * heff
        if target <= _NOISE_FLOOR:
            # the doubling comparison is below its own floating-point noise:
            # it carries no information, so accept and grow back into the
            # measurable regime
            naccept = m
            h = heff * 2.0
        else:
            ok = local <= target
            naccept = int(np.argmin(ok)) if not ok.all() else m
            if naccept == 0 and heff <= h_floor:
                naccept = 1    # step size floor: accept rather than stall
            worst = float(np.max(local[:naccept])) if naccept > 0 \
                else float(local[0])
            worst = max(worst, 1e-3 * target)
            factor = (target / worst) ** (1.0 / 3.0)
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
