# cython: boundscheck=False, wraparound=False, cdivision=True, initializedcheck=False
"""Compiled hot kernels.

Cyclic Jacobi eigensolver for dense complex Hermitian matrices (dimension
<= 32) and the sequential midpoint-exponential propagation loop. The pure
Python twin of this module is ``adiakit._kernels_py``; both expose the same
two functions and are selected at import time by ``adiakit._backend``.
"""

import numpy as np

cimport numpy as cnp
from libc.math cimport cos, sin, sqrt

cnp.import_array()

BACKEND = "compiled"

DEF MAXDIM = 32

ctypedef double complex cplx


cdef inline double _cabs2(cplx z) noexcept nogil:
    return z.real * z.real + z.imag * z.imag


cdef double _offdiag2(cplx *a, int n) noexcept nogil:
    cdef double acc = 0.0
    cdef int i, j
    for i in range(n):
        for j in range(i + 1, n):
            acc += 2.0 * _cabs2(a[i * n + j])
    return acc


cdef double _fro2(cplx *a, int n) noexcept nogil:
    cdef double acc = 0.0
    cdef int i
    for i in range(n * n):
        acc += _cabs2(a[i])
    return acc


cdef int _jacobi(cplx *a, cplx *v, double *w, int n, double tol,
                 int max_sweeps) noexcept nogil:
    """Diagonalize the Hermitian matrix ``a`` (row major, destroyed).

    ``v`` receives the eigenvectors as columns, ``w`` the eigenvalues in
    ascending order. Returns the sweep count, or -1 on non-convergence.
    """
    cdef int i, j, p, q, sweep, imin
    cdef double app, aqq, r, tee, t, c, s_, thresh, wmin
    cdef cplx apq, phase, pc, aip, aiq, apj, aqj, vip, viq, ctmp

    # enforce exact Hermiticity of the working copy; the caller-level
    # tolerance check is a separate concern
    for i in range(n):
        a[i * n + i] = a[i * n + i].real
        for j in range(i + 1, n):
            ctmp = 0.5 * (a[i * n + j] + a[j * n + i].conjugate())
            a[i * n + j] = ctmp
            a[j * n + i] = ctmp.conjugate()
    for i in range(n):
        for j in range(n):
            v[i * n + j] = 1.0 if i == j else 0.0
    thresh = tol * tol * _fro2(a, n)
    sweep = 0
    while True:
        if _offdiag2(a, n) <= thresh:
            break
        if sweep >= max_sweeps:
            return -1
        sweep += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p * n + q]
                r = sqrt(_cabs2(apq))
                if r == 0.0:
                    continue
                phase = apq / r
                pc = phase.conjugate()
                app = a[p * n + p].real
                aqq = a[q * n + q].real
                tee = (aqq - app) / (2.0 * r)
                if tee >= 0.0:
                    t = 1.0 / (tee + sqrt(1.0 + tee * tee))
                else:
                    t = -1.0 / (-tee + sqrt(1.0 + tee * tee))
                c = 1.0 / sqrt(1.0 + t * t)
                s_ = t * c
                # A <- A J with J[p,p]=J[q,q]=c, J[p,q]=s e^{i phi},
                # J[q,p] = -s e^{-i phi}
                for i in range(n):
                    aip = a[i * n + p]
                    aiq = a[i * n + q]
                    a[i * n + p] = c * aip - s_ * pc * aiq
                    a[i * n + q] = s_ * phase * aip + c * aiq
                # A <- J^H A
                for j in range(n):
                    apj = a[p * n + j]
                    aqj = a[q * n + j]
                    a[p * n + j] = c * apj - s_ * phase * aqj
                    a[q * n + j] = s_ * pc * apj + c * aqj
                a[p * n + q] = 0.0
                a[q * n + p] = 0.0
                # V <- V J
                for i in range(n):
                    vip = v[i * n + p]
                    viq = v[i * n + q]
                    v[i * n + p] = c * vip - s_ * pc * viq
                    v[i * n + q] = s_ * phase * vip + c * viq
    for i in range(n):
        w[i] = a[i * n + i].real
    # ascending selection sort, stable on ties, columns follow
    for i in range(n - 1):
        imin = i
        wmin = w[i]
        for j in range(i + 1, n):
            if w[j] < wmin:
                imin = j
                wmin = w[j]
        if imin != i:
            w[imin] = w[i]
            w[i] = wmin
            for j in range(n):
                ctmp = v[j * n + i]
                v[j * n + i] = v[j * n + imin]
                v[j * n + imin] = ctmp
    return sweep


cdef void _matmul(cplx *out, cplx *x, cplx *y, int n) noexcept nogil:
    cdef int i, j, k
    cdef cplx acc
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc = acc + x[i * n + k] * y[k * n + j]
            out[i * n + j] = acc


cdef void _reconstruct_exp(cplx *u, cplx *v, double *w, double alpha,
                           int n) noexcept nogil:
    """u = v diag(exp(-i alpha w)) v^H."""
    cdef int i, j, k
    cdef double ph
    cdef cplx e, acc
    cdef cplx scratch[MAXDIM * MAXDIM]
    for k in range(n):
        ph = -alpha * w[k]
        e = cos(ph) + 1j * sin(ph)
        for i in range(n):
            scratch[i * n + k] = v[i * n + k] * e
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc = acc + scratch[i * n + k] * v[j * n + k].conjugate()
            u[i * n + j] = acc


cdef double _JTOL = 1e-14
cdef int _JSWEEPS = 60

JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


def eigh_batch(Hs):
    """Stacked eigh: ``Hs`` has shape (N, n, n); returns (W, V)."""
    cdef cnp.ndarray[cplx, ndim=3, mode="c"] a = np.array(
        Hs, dtype=np.complex128, order="C")
    cdef Py_ssize_t nmat = a.shape[0]
    cdef int n = a.shape[1]
    if a.shape[2] != n:
        raise ValueError("matrices must be square")
    if n > MAXDIM:
        raise ValueError(f"dimension {n} exceeds kernel limit {MAXDIM}")
    cdef cnp.ndarray[double, ndim=2, mode="c"] W = np.empty(
        (nmat, n), dtype=np.float64)
    cdef cnp.ndarray[cplx, ndim=3, mode="c"] V = np.empty(
        (nmat, n, n), dtype=np.complex128)
    cdef Py_ssize_t k
    cdef int bad = -2
    with nogil:
        for k in range(nmat):
            if _jacobi(&a[k, 0, 0], &V[k, 0, 0], &W[k, 0], n, _JTOL, _JSWEEPS) < 0:
                bad = <int> k
                break
    if bad != -2:
        raise RuntimeError(f"Jacobi eigensolver did not converge at index {bad}")
    return W, V


def propagate_steps(Hmid, double coef, ds, U0, Py_ssize_t record_every):
    """Chain midpoint exponentials: U <- exp(-i coef ds_k H_k) U.

    ``Hmid`` has shape (M, n, n), ``ds`` shape (M,). Records U after every
    ``record_every`` steps (M must be divisible by it). Returns
    (records (M // record_every, n, n), U_final).
    """
    cdef cnp.ndarray[cplx, ndim=3, mode="c"] h = np.array(
        Hmid, dtype=np.complex128, order="C")
    cdef cnp.ndarray[double, ndim=1, mode="c"] d = np.ascontiguousarray(
        ds, dtype=np.float64)
    cdef Py_ssize_t m = h.shape[0]
    cdef int n = h.shape[1]
    if h.shape[2] != n:
        raise ValueError("matrices must be square")
    if n > MAXDIM:
        raise ValueError(f"dimension {n} exceeds kernel limit {MAXDIM}")
    if d.shape[0] != m:
        raise ValueError("ds length must match step count")
    if record_every <= 0 or m % record_every != 0:
        raise ValueError("record_every must divide the step count")
    cdef Py_ssize_t nrec = m // record_every
    cdef cnp.ndarray[cplx, ndim=3, mode="c"] records = np.empty(
        (nrec, n, n), dtype=np.complex128)
    cdef cnp.ndarray[cplx, ndim=2, mode="c"] ucur = np.array(
        U0, dtype=np.complex128, order="C")
    if ucur.shape[0] != n or ucur.shape[1] != n:
        raise ValueError("U0 dimension mismatch")

    cdef double w[MAXDIM]
    cdef cplx v[MAXDIM * MAXDIM]
    cdef cplx step[MAXDIM * MAXDIM]
    cdef cplx unew[MAXDIM * MAXDIM]
    cdef Py_ssize_t k, rec
    cdef int i, fail
    fail = 0
    rec = 0
    with nogil:
        for k in range(m):
            if _jacobi(&h[k, 0, 0], v, w, n, _JTOL, _JSWEEPS) < 0:
                fail = 1
                break
            _reconstruct_exp(step, v, w, coef * d[k], n)
            _matmul(unew, step, &ucur[0, 0], n)
            for i in range(n * n):
                (&ucur[0, 0])[i] = unew[i]
            if (k + 1) % record_every == 0:
                for i in range(n * n):
                    (&records[rec, 0, 0])[i] = (&ucur[0, 0])[i]
                rec += 1
    if fail:
        raise RuntimeError("Jacobi eigensolver did not converge during propagation")
    return records, ucur
