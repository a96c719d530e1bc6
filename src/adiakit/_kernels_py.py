"""The numpy kernels: every eigensolve and step product of the package.

Two batched entry points, ``eigh_batch`` and ``propagate_steps``, plus the
helpers they share with the rest of the package: ``hermitize`` (re-exported
by ``adiakit.linalg``), the step exponentials (``exponential_map``), the 2x2
product ``matmul_2x2``, the blocked prefix product ``chain_steps`` and
``chain_records``, which chains a step stack: it multiplies the steps
between two records together first, batched across the recorded intervals,
and runs the prefix product over those interval products only, so a run
with r steps per recorded interval chains m / r matrices rather than m.

The route depends on the matrix dimension only. 2x2 stacks, every
spin-half frame and step, take closed forms built from the components
(m, d, q, r) of ``su2_components``: the eigenpairs of ``eigh_batch``
(``eigensolver_route``) and the step exponentials, which need no
eigenvectors; each is a phase angle and a unit quaternion
(``su2_quaternions``). ``propagate_steps`` folds the 2x2 steps of each
recorded interval as quaternions (``quaternion_product``) and forms
matrices (``su2_matrices``) of the interval products only. Larger matrices
take numpy's stacked LAPACK eigensolver, their exponentials
V diag(e^{-i alpha w}) V^dagger, and ``chain_records``.
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


def eigensolver_route(n):
    """Name of the eigensolver ``eigh_batch`` runs on n x n matrices."""
    return "closed-form-2x2" if n == 2 else "lapack-eigh"


def eigh_batch(Hs):
    """Stacked eigh of the Hermitian parts of ``Hs`` (N, n, n); returns
    (W, V) with ascending eigenvalues W (N, n) and eigenvector columns V."""
    a = np.asarray(Hs, dtype=np.complex128)
    _check_square(a)
    if eigensolver_route(a.shape[-1]) == "closed-form-2x2":
        return _eigh_2x2(a)
    return np.linalg.eigh(hermitize(a))


def su2_components(a):
    """(m, d, q, r) of the Hermitian parts of a (..., 2, 2) stack.

    With m = (h00 + h11)/2, d = (h00 - h11)/2 and q = (h01 + conj h10)/2,
    the Hermitian part is m I + [[d, q], [conj q, -d]], whose traceless
    part has eigenvalues -+ r, r = hypot(d, |q|). Both the eigenpairs of
    ``_eigh_2x2`` and the exponentials of ``su2_exponentials`` are formed
    from these four arrays alone.
    """
    h00 = a[..., 0, 0].real
    h11 = a[..., 1, 1].real
    m = h00 + h11
    m *= 0.5
    d = 0.5 * (h00 - h11)
    q = np.conj(a[..., 1, 0])
    q += a[..., 0, 1]
    q *= 0.5
    r = np.hypot(d, np.abs(q))
    return m, d, q, r


def su2_quaternions(comps, alphas):
    """Phase angles and unit quaternions of exp(-i alpha_k H_k) for 2x2
    Hermitian H_k with components ``comps`` = (m, d, q, r) of
    ``su2_components``; returns (alphas m, a) with a of shape (4, ...):

        exp(-i alpha H) = e^{-i alpha m} (a0 I - i a . sigma),
        a0 = cos(alpha r),  (a1, a2, a3) = sin(alpha r)/r (Re q, -Im q, d),

    the SU(2) form (Moler & Van Loan, *Nineteen Dubious Ways to Compute the
    Exponential of a Matrix, Twenty-Five Years Later*, SIAM Rev. 45 (2003)),
    with sin(alpha r)/r = alpha at r = 0 (H = m I). No eigenvectors are
    formed. The quaternions multiply by ``quaternion_product``.
    """
    m, d, q, r = comps
    ar = alphas * r
    s = np.divide(np.sin(ar), r, out=np.array(alphas, dtype=float),
                  where=r > 0)
    quat = np.empty((4,) + np.shape(ar))
    np.cos(ar, out=quat[0])
    np.multiply(s, q.real, out=quat[1])
    np.multiply(s, q.imag, out=quat[2])
    np.negative(quat[2], out=quat[2])
    np.multiply(s, d, out=quat[3])
    return alphas * m, quat


def quaternion_product(x, y):
    """Hamilton product x y of two (4, ...) quaternion stacks: the
    quaternion of the SU(2) product (x0 I - i x.sigma)(y0 I - i y.sigma),

        (x0 y0 - x.y,  x0 y + y0 x + x cross y),

    16 real multiplies per pair."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    out = np.empty(np.shape(y))
    out[0] = x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3
    out[1] = x0 * y1 + y0 * x1 + x2 * y3 - x3 * y2
    out[2] = x0 * y2 + y0 * x2 + x3 * y1 - x1 * y3
    out[3] = x0 * y3 + y0 * x3 + x1 * y2 - x2 * y1
    return out


def su2_matrices(angles, quat, out=None):
    """The (..., 2, 2) matrices e^{-i angle} (a0 I - i a . sigma) of phase
    angles and quaternions a = ``quat`` (4, ...), written into ``out`` when
    it is given:

        e^{-i angle} [[a0 - i a3, -a2 - i a1], [a2 - i a1, a0 + i a3]].
    """
    phase = np.exp(-1j * angles)
    if out is None:
        out = np.empty(np.shape(angles) + (2, 2), dtype=np.complex128)
    z = np.empty(np.shape(angles), dtype=np.complex128)
    z.real = quat[0]
    np.negative(quat[3], out=z.imag)
    np.multiply(phase, z, out=out[..., 0, 0])
    np.conj(z, out=z)
    np.multiply(phase, z, out=out[..., 1, 1])
    np.negative(quat[2], out=z.real)
    np.negative(quat[1], out=z.imag)
    np.multiply(phase, z, out=out[..., 0, 1])
    np.negative(z.real, out=z.real)
    np.multiply(phase, z, out=out[..., 1, 0])
    return out


def su2_exponentials(comps, alphas):
    """exp(-i alpha_k H_k) of 2x2 Hermitian H_k from their components
    ``comps`` = (m, d, q, r) of ``su2_components``, as the matrices of
    their ``su2_quaternions``."""
    return su2_matrices(*su2_quaternions(comps, alphas))


def _eigh_2x2(a):
    """Closed-form eigenpairs of the Hermitian parts of a (..., 2, 2) stack.

    With the components (m, d, q, r) of ``su2_components`` the eigenvalues
    are m -+ r. Each eigenvector is read off the row of H - w I without
    cancellation, chosen by the sign of d; with t = r + |d| the vectors are

        d >= 0:  v- = (-q, t),  v+ = (t, conj q)
        d <  0:  v- = (t, -conj q),  v+ = (q, t)

    scaled by 1/sqrt(2 r t). Since |q| <= t, they are formed from
    rho = q / t as (-rho, 1) / sqrt(1 + |rho|^2) and so on, which keeps them
    orthonormal to rounding for any finite H, subnormal entries included
    (there the halvings cost the eigenvalues one subnormal unit).
    At r = 0 (H = m I) the frame is the identity.
    """
    m, d, q, r = su2_components(a)
    w = np.empty(r.shape + (2,))
    np.subtract(m, r, out=w[..., 0])
    np.add(m, r, out=w[..., 1])
    flat = r == 0
    upper = (d >= 0) & ~flat
    # in place, to bound the temporaries of large stacks: t = r + |d|,
    # rho = q / t (part by part: a complex division overflows) and
    # c = 1 / sqrt(1 + |rho|^2)
    t = r
    t += np.abs(d)
    t[flat] = 1.0  # q = 0 there: rho = 0, and the d < 0 form gives I
    rho = q
    np.divide(rho.real, t, out=rho.real)
    np.divide(rho.imag, t, out=rho.imag)
    c = t
    np.square(rho.real, out=c)
    c += 1.0
    c += np.square(rho.imag)
    np.sqrt(c, out=c)
    np.divide(1.0, c, out=c)
    rho *= c
    v = np.empty_like(a)
    v[..., 0, 0] = np.where(upper, -rho, c)
    v[..., 0, 1] = np.where(upper, c, rho)
    np.conj(rho, out=rho)
    v[..., 1, 0] = np.where(upper, c, -rho)
    v[..., 1, 1] = np.where(upper, rho, c)
    return w, v


def matmul_2x2(x, y):
    """x_k @ y_k for (..., 2, 2) stacks, by components."""
    out = x[..., :, 0, None] * y[..., None, 0, :]
    out += x[..., :, 1, None] * y[..., None, 1, :]
    return out


def _matmul_stack(x, y, out):
    """out <- x_k @ y_k for (k, n, n) stacks; ``out`` may be ``x``. 2x2 by
    components, which matches np.matmul at 8 matrices and beats it above;
    on one matrix @ is faster, so the sequential products keep it."""
    if x.shape[-1] == 2:
        out[...] = matmul_2x2(x, y)
    else:
        np.matmul(x, y, out=out)


def step_exponentials(w, v, alphas):
    """exp(-i alpha_k H_k) from the stacked eigenpairs (W, V) of H_k."""
    phases = np.exp(-1j * alphas[:, None] * w)
    return np.einsum("kij,kj,klj->kil", v, phases, v.conj())


def exponential_map(h):
    """alphas -> exp(-i alphas_k H_k) for the Hermitian parts H_k of an
    (N, n, n) stack, from one factorization of the stack that serves every
    alphas: the components of ``su2_components`` when n == 2, the eigenpairs
    of ``eigh_batch`` otherwise."""
    if h.shape[-1] == 2:
        comps = su2_components(h)
        return lambda alphas: su2_exponentials(comps, alphas)
    w, v = eigh_batch(h)
    return lambda alphas: step_exponentials(w, v, alphas)


def chain_steps(steps, u0):
    """Prefix product in place: steps[k] <- steps[k] ... steps[0] u0.

    ``steps`` is a C-contiguous (m, n, n) array, m >= 1.

    Blocked scan (Blelloch, *Prefix sums and their applications*, 1990):
    blocks of b ~ sqrt(m) steps are chained batched across blocks, one short
    sequential pass carries the block totals, and a second batched pass
    applies the carries; the remainder of fewer than b steps is chained
    sequentially. Every temporary holds at most one matrix per block.
    ``chain_records`` runs it over the products of its recorded intervals,
    ``propagate_adaptive`` over its accepted step pairs.
    """
    m = steps.shape[0]
    b = max(1, int(np.sqrt(m)))
    nb = m // b
    blocks = steps[:nb * b].reshape((nb, b) + steps.shape[1:])
    for j in range(1, b):
        _matmul_stack(blocks[:, j], blocks[:, j - 1], blocks[:, j])
    carries = np.empty((nb,) + steps.shape[1:], dtype=steps.dtype)
    carries[0] = u0
    for i in range(1, nb):
        carries[i] = blocks[i - 1, -1] @ carries[i - 1]
    for j in range(b):
        _matmul_stack(blocks[:, j], carries, blocks[:, j])
    for k in range(nb * b, m):
        steps[k] = steps[k] @ steps[k - 1]


def _check_record_every(m, record_every):
    if record_every <= 0 or m % record_every != 0:
        raise ValueError("record_every must divide the step count")


def chain_records(steps, u0, record_every, out=None):
    """Records of the chain U <- steps[k] U from ``u0``, taken after every
    ``record_every`` steps (the step count must be divisible by it); returns
    them as a (m / record_every, n, n) stack, ``out`` when it is given.

    The steps of each recorded interval are multiplied together first,
    batched across intervals and in place in ``steps``; the prefix product
    ``chain_steps`` then runs over the interval products only, in the record
    buffer.
    """
    m, n = steps.shape[0], steps.shape[-1]
    _check_record_every(m, record_every)
    if out is None:
        out = np.empty((m // record_every, n, n), dtype=np.complex128)
    if m == 0:
        return out
    groups = steps.reshape(m // record_every, record_every, n, n)
    for j in range(1, record_every):
        _matmul_stack(groups[:, j], groups[:, j - 1], groups[:, j])
    out[...] = groups[:, -1]
    chain_steps(out, u0)
    return out


def propagate_steps(Hmid, alphas, U0, record_every, out=None):
    """Chain midpoint exponentials U <- exp(-i alphas_k H_k) U from U0 and
    record U after every ``record_every`` steps; returns the
    (steps / record_every, n, n) records, written into ``out``
    (C-contiguous) when it is given.

    2x2 steps are kept as phase angles and unit quaternions
    (``su2_quaternions``), laid out step-major: row j holds the j-th step of
    every recorded interval. The steps of each interval are folded by
    ``quaternion_product`` on those contiguous rows and their phase angles
    summed, so only the interval products become matrices, which
    ``chain_steps`` chains. Larger steps are exponentiated from one
    eigensolve of the stack and chained by ``chain_records``.
    """
    h = np.asarray(Hmid, dtype=np.complex128)
    _check_square(h, "step matrices")
    a = np.asarray(alphas, dtype=np.float64)
    m, n = h.shape[0], h.shape[1]
    if a.shape != (m,):
        raise ValueError("alphas length must match step count")
    u0 = np.array(U0, dtype=np.complex128)
    if u0.shape != (n, n):
        raise ValueError("U0 dimension mismatch")
    if n != 2:
        steps = exponential_map(h)(a)
        del h  # a converted copy of the stack is freed before the products
        return chain_records(steps, u0, record_every, out)
    _check_record_every(m, record_every)
    k = m // record_every
    if out is None:
        out = np.empty((k, 2, 2), dtype=np.complex128)
    if k == 0:
        return out

    def step_major(x):
        return x.reshape(k, record_every).T

    comps = [step_major(c) for c in su2_components(h)]
    del h
    angles, quat = su2_quaternions(comps, step_major(a))
    folded = quat[:, 0]
    for j in range(1, record_every):
        folded = quaternion_product(quat[:, j], folded)
    su2_matrices(angles.sum(axis=0), folded, out=out)
    chain_steps(out, u0)
    return out
