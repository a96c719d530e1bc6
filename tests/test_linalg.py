"""Dense linear algebra: the Frobenius defects and stacked products of
``linalg``, and the kernels' eigensolve and step exponential on one matrix
at a time (one-row stacks of ``eigh_batch`` and ``exponential_map``)."""

import numpy as np
import pytest

import adiakit as ak
from adiakit import _kernels_py as kernels
from adiakit import linalg
from adiakit.exceptions import NonHermitianError


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def eigh_one(M):
    """(ascending values, eigenvector columns) of one Hermitian matrix."""
    W, V = kernels.eigh_batch(np.asarray(M, dtype=complex)[None])
    return W[0], V[0]


def expm_one(H, alpha):
    """exp(-i alpha H) of one Hermitian matrix."""
    exps = kernels.exponential_map(np.asarray(H, dtype=complex)[None])
    return exps(np.array([float(alpha)]))[0]


def test_sigma_z_eigensystem():
    w, v = eigh_one(ak.SIGMA_Z)
    assert np.allclose(w, [-1.0, 1.0])
    # eigenvectors up to phase: check projectors
    p0 = np.outer(v[:, 0], v[:, 0].conj())
    assert np.allclose(p0, np.diag([0.0, 1.0]), atol=1e-14)


def test_spin_half_constant_eigenvalues():
    from adiakit import spinhalf
    for theta, omega0 in [(0.3, 1.0), (np.pi / 4, 1.0), (np.pi / 3, 2.0)]:
        h = spinhalf.hamiltonian(theta, omega0)
        for s in [0.0, 0.7, np.pi, 5.5]:
            w, _ = eigh_one(h.eval(s, 1.0))
            assert np.allclose(w, [-omega0 / 2, omega0 / 2], atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_reconstruction_random(dim):
    M = random_hermitian(dim, seed=dim)
    w, v = eigh_one(M)
    assert np.linalg.norm(M - (v * w) @ v.conj().T) <= 1e-10 * np.linalg.norm(M)
    assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-12
    assert np.all(np.diff(w) >= 0)


def test_eigenvalue_sum_trace_product_det():
    M = random_hermitian(4, seed=9)
    w, _ = eigh_one(M)
    assert abs(w.sum() - np.trace(M).real) <= 1e-10 * abs(np.trace(M).real or 1)
    M2 = random_hermitian(2, seed=10)
    w2, _ = eigh_one(M2)
    det = np.linalg.det(M2).real
    assert abs(np.prod(w2) - det) <= 1e-10 * max(abs(det), 1.0)


def test_determinism_bit_identical():
    M = random_hermitian(5, seed=3)
    wa, va = eigh_one(M)
    wb, vb = eigh_one(M.copy())
    assert np.array_equal(wa, wb)
    assert np.array_equal(va, vb)


def test_non_hermitian_rejected_with_defect():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianError) as exc:
        linalg.check_hermitian(M, 1e-12)
    assert exc.value.defect > 0


def test_defect_values():
    assert ak.unitarity_defect(np.eye(3)) == 0.0
    assert ak.hermiticity_defect(np.eye(3)) == 0.0
    # ||(2I)^dag (2I) - I||_F = ||3I||_F = 3 sqrt(dim)
    assert np.isclose(ak.unitarity_defect(2 * np.eye(2)), 3 * np.sqrt(2))


def test_unitarity_defect_is_per_matrix_max_on_stacks():
    # largest per-matrix defect 3 sqrt(2), not the norm of the stack (6)
    stack = np.stack([2 * np.eye(2), 2 * np.eye(2)])
    assert np.isclose(ak.unitarity_defect(stack), 3 * np.sqrt(2))
    mixed = np.stack([np.eye(2), 2 * np.eye(2), np.eye(2)])
    assert ak.unitarity_defect(mixed) == ak.unitarity_defect(2 * np.eye(2))
    assert ak.unitarity_defect(np.stack([np.eye(3)] * 4)) == 0.0
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert ak.hermiticity_defect(np.stack([skew, 2 * skew])) == \
        ak.hermiticity_defect(2 * skew) == 2 * np.sqrt(2)


def random_unitary_stack(count, dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, dim, dim)) \
        + 1j * rng.standard_normal((count, dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def test_dagger_dot_2x2_components_match_einsum():
    # more matrices than one block, so the block seam is crossed
    count = linalg._BLOCK + 37
    A = random_unitary_stack(count, 2, seed=1)
    B = random_unitary_stack(count, 2, seed=2)
    ref = np.einsum("kji,kjl->kil", A.conj(), B)
    assert np.max(np.abs(linalg.dagger_dot(A, B) - ref)) <= 1e-15


def test_2x2_products_equal_the_broadcast_form_bit_for_bit():
    # the component products of sandwich and dagger_dot do matmul_2x2's
    # arithmetic in its order, across a block seam and on a broadcast stack
    rng = np.random.default_rng(3)
    count = linalg._BLOCK + 37
    A, M, B = (rng.standard_normal((count, 2, 2))
               + 1j * rng.standard_normal((count, 2, 2)) for _ in range(3))
    for right in (B, np.broadcast_to(B[0], B.shape)):
        assert np.array_equal(
            linalg.sandwich(A, M, right),
            kernels.matmul_2x2(linalg.dagger(A),
                               kernels.matmul_2x2(M, right)))
        assert np.array_equal(linalg.dagger_dot(A, right),
                              kernels.matmul_2x2(linalg.dagger(A), right))


@pytest.mark.parametrize("dim", [3, 4])
def test_dagger_dot_larger_dims_keep_the_einsum(dim):
    A = random_unitary_stack(64, dim, seed=dim)
    B = random_unitary_stack(64, dim, seed=dim + 10)
    ref = np.einsum("kji,kjl->kil", A.conj(), B)
    assert np.array_equal(linalg.dagger_dot(A, B), ref)


def test_unitary_exp_trivials():
    H = random_hermitian(3, seed=1)
    assert np.allclose(expm_one(H, 0.0), np.eye(3), atol=1e-15)
    assert np.allclose(expm_one(ak.SIGMA_Z, np.pi), -np.eye(2), atol=1e-12)


def test_unitary_exp_series_oracle():
    # term-by-term series summation as the independent route
    from adiakit import spinhalf
    H = spinhalf.hamiltonian(np.pi / 4, 1.0).eval(0.0, 1.0)
    alpha = 0.8
    term = np.eye(2, dtype=complex)
    series = np.eye(2, dtype=complex)
    for k in range(1, 40):
        term = term @ (-1j * alpha * H) / k
        series += term
    assert np.linalg.norm(expm_one(H, alpha) - series) <= 1e-12


def test_unitary_exp_group_property():
    H = random_hermitian(4, seed=2)
    a, b = 0.37, 1.21
    lhs = expm_one(H, a) @ expm_one(H, b)
    rhs = expm_one(H, a + b)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_unitary_exp_unitarity_property():
    rng = np.random.default_rng(5)
    for seed in range(5):
        H = random_hermitian(3, seed=100 + seed)
        U = expm_one(H, float(rng.uniform(-3, 3)))
        assert ak.unitarity_defect(U) <= 1e-12
