"""The numpy kernels: every eigensolve and step product of the package.

Two batched entry points, ``eigh_batch`` and ``propagate_steps``, on numpy's
stacked LAPACK eigensolver, plus the helpers they share with the rest of the
package: ``hermitize`` (re-exported by ``adiakit.linalg``),
``step_exponentials`` and the blocked prefix product ``chain_steps``.
"""

import numpy as np


def _check_square(a, name="matrix"):
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square")


def hermitize(a):
    """Hermitian part (a + a^dagger) / 2 of a matrix or a stack (..., n, n)."""
    out = a + np.conj(np.swapaxes(a, -1, -2))
    out *= 0.5
    return out


def eigh_batch(Hs):
    """Stacked eigh: ``Hs`` has shape (N, n, n); returns (W, V)."""
    a = np.asarray(Hs, dtype=np.complex128)
    _check_square(a)
    w, v = np.linalg.eigh(hermitize(a))
    return w, v


def step_exponentials(w, v, alphas):
    """exp(-i alpha_k H_k) from the stacked eigenpairs (W, V) of H_k."""
    phases = np.exp(-1j * alphas[:, None] * w)
    return np.einsum("kij,kj,klj->kil", v, phases, v.conj())


def chain_steps(steps, u0):
    """Prefix product in place: steps[k] <- steps[k] ... steps[0] u0.

    ``steps`` is a C-contiguous (m, n, n) array, m >= 1.

    Blocked scan (Blelloch, *Prefix sums and their applications*, 1990):
    blocks of b ~ sqrt(m) steps are chained batched across blocks, one short
    sequential pass carries the block totals, and a second batched pass
    applies the carries; the remainder of fewer than b steps is chained
    sequentially. Every temporary holds at most one matrix per block.
    """
    m = steps.shape[0]
    b = max(1, int(np.sqrt(m)))
    nb = m // b
    blocks = steps[:nb * b].reshape((nb, b) + steps.shape[1:])
    for j in range(1, b):
        np.matmul(blocks[:, j], blocks[:, j - 1], out=blocks[:, j])
    carries = np.empty((nb,) + steps.shape[1:], dtype=steps.dtype)
    carries[0] = u0
    for i in range(1, nb):
        carries[i] = blocks[i - 1, -1] @ carries[i - 1]
    for j in range(b):
        np.matmul(blocks[:, j], carries, out=blocks[:, j])
    for k in range(nb * b, m):
        steps[k] = steps[k] @ steps[k - 1]


def propagate_steps(Hmid, coef, ds, U0, record_every):
    """Chain midpoint exponentials: U <- exp(-i coef ds_k H_k) U.

    Records U after every ``record_every`` steps (the step count must be
    divisible by it).
    """
    h = np.asarray(Hmid, dtype=np.complex128)
    _check_square(h, "step matrices")
    d = np.asarray(ds, dtype=np.float64)
    m, n = h.shape[0], h.shape[1]
    if d.shape != (m,):
        raise ValueError("ds length must match step count")
    if record_every <= 0 or m % record_every != 0:
        raise ValueError("record_every must divide the step count")
    u = np.array(U0, dtype=np.complex128)
    if u.shape != (n, n):
        raise ValueError("U0 dimension mismatch")
    if m == 0:
        return np.empty((0, n, n), dtype=np.complex128), u
    w, v = np.linalg.eigh(hermitize(h))
    steps = step_exponentials(w, v, coef * d)
    chain_steps(steps, u)
    # fresh arrays, so the step buffer is released on return
    return steps[record_every - 1::record_every].copy(), steps[-1].copy()
