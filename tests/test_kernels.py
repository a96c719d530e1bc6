"""The numpy kernels: the closed-form 2x2 eigensolver and step exponential
against LAPACK and scipy, the 2x2 Frobenius quantities of ``linalg``, the
``sandwich`` product, and the dimension route."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiakit import _kernels_py as kernels
from adiakit import linalg
from adiakit.linalg import sandwich

TOL = 1e-14


def random_hermitian_stack(n, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    return scale * 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))


def hermitian_2x2(h00, h11, q):
    """Stack of [[h00, q], [conj q, h11]] from 1-D arrays."""
    H = np.empty((len(h00), 2, 2), dtype=complex)
    H[:, 0, 0] = h00
    H[:, 1, 1] = h11
    H[:, 0, 1] = q
    H[:, 1, 0] = np.conj(q)
    return H


def frobenius(X):
    """Per-matrix Frobenius norm, scaled so that tiny entries do not
    underflow when squared."""
    big = np.max(np.abs(X), axis=(1, 2))
    safe = np.where(big > 0, big, 1.0)[:, None, None]
    # part by part: a complex division by a subnormal overflows
    parts = np.stack([X.real / safe, X.imag / safe])
    return big * np.sqrt(np.sum(parts ** 2, axis=(0, 2, 3)))


def assert_eigenpairs(H, W, V):
    """Per-matrix residual, orthonormality and agreement with LAPACK."""
    assert not np.isnan(W).any() and not np.isnan(V).any()
    scale = frobenius(H)
    resid = frobenius(H @ V - V * W[:, None, :])
    assert np.all(resid <= TOL * np.maximum(1.0, scale))
    gram = np.conj(np.swapaxes(V, 1, 2)) @ V
    assert np.max(np.linalg.norm(gram - np.eye(H.shape[-1]), axis=(1, 2))) <= TOL
    assert np.all(np.diff(W, axis=1) >= 0)
    W_ref = np.linalg.eigh(H)[0]
    assert np.all(np.max(np.abs(W - W_ref), axis=1) <= TOL * scale)


def test_route_depends_on_dimension_only():
    assert kernels.eigensolver_route(2) == "closed-form-2x2"
    for n in (1, 3, 4, 8):
        assert kernels.eigensolver_route(n) == "lapack-eigh"


@pytest.mark.parametrize("n", [1, 5, 4096])
def test_closed_form_matches_lapack_random(n):
    H = random_hermitian_stack(n, 2, seed=n)
    W, V = kernels.eigh_batch(H)
    assert_eigenpairs(H, W, V)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_closed_form_diagonal_stacks(sign):
    rng = np.random.default_rng(3)
    m = rng.standard_normal(64)
    d = sign * rng.uniform(0.1, 2.0, 64)
    H = hermitian_2x2(m + d, m - d, np.zeros(64))
    W, V = kernels.eigh_batch(H)
    assert_eigenpairs(H, W, V)
    # exact eigenvectors, up to a unit phase, of a diagonal matrix
    lower = 1 if sign > 0 else 0
    assert np.allclose(np.abs(V[:, lower, 0]), 1.0, rtol=0, atol=TOL)
    assert np.allclose(np.abs(V[:, 1 - lower, 1]), 1.0, rtol=0, atol=TOL)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_closed_form_near_diagonal_pins_the_row_choice(sign):
    # |q| / |d| = 1e-9: the row with cancellation would lose every digit of
    # the small eigenvector component, and a swapped row gives the wrong
    # vector, so both fail the residual bound
    rng = np.random.default_rng(4)
    m = rng.standard_normal(256)
    d = sign * rng.uniform(0.5, 2.0, 256)
    q = 1e-9 * np.abs(d) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 256))
    H = hermitian_2x2(m + d, m - d, q)
    W, V = kernels.eigh_batch(H)
    assert_eigenpairs(H, W, V)
    # the small component, relative: q / (2d) to first order
    small = V[:, 0, 0] if sign > 0 else V[:, 1, 0]
    assert np.allclose(np.abs(small), np.abs(q) / (2 * np.abs(d)), rtol=1e-8)


def test_closed_form_near_degenerate():
    rng = np.random.default_rng(5)
    m = rng.standard_normal(256)
    d = 1e-15 * rng.standard_normal(256)
    q = 1e-15 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
    H = hermitian_2x2(m + d, m - d, q)
    W, V = kernels.eigh_batch(H)
    assert_eigenpairs(H, W, V)


def test_closed_form_degenerate_is_identity_frame():
    m = np.array([-2.0, 0.0, 1.0, 3.5])
    H = hermitian_2x2(m, m, np.zeros(4))
    W, V = kernels.eigh_batch(H)
    assert_eigenpairs(H, W, V)
    assert np.array_equal(W, np.stack([m, m], axis=1))
    assert np.array_equal(np.abs(V), np.broadcast_to(np.eye(2), V.shape))


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_closed_form_extreme_scales(scale):
    H = random_hermitian_stack(512, 2, seed=6, scale=scale)
    W, V = kernels.eigh_batch(H)
    assert_eigenpairs(H, W, V)


def test_closed_form_subnormal_entries_stay_orthonormal():
    H = random_hermitian_stack(512, 2, seed=11, scale=1e-318)
    H[:8] = hermitian_2x2(np.zeros(8), np.zeros(8), np.full(8, 5e-324j))
    W, V = kernels.eigh_batch(H)
    assert not np.isnan(V).any()
    gram = np.conj(np.swapaxes(V, 1, 2)) @ V
    assert np.max(np.linalg.norm(gram - np.eye(2), axis=(1, 2))) <= TOL
    assert np.max(np.abs(W - np.linalg.eigh(H)[0])) <= 4 * 5e-324


def test_closed_form_reads_only_the_hermitian_part():
    H = random_hermitian_stack(64, 2, seed=7)
    K = random_hermitian_stack(64, 2, seed=8)
    W, V = kernels.eigh_batch(H + 1j * K)   # 1j K is anti-Hermitian
    W0, V0 = kernels.eigh_batch(H)
    assert np.allclose(W, W0, rtol=0, atol=TOL)
    assert np.allclose(V, V0, rtol=0, atol=TOL)


@pytest.mark.parametrize("dim", [3, 4])
def test_larger_matrices_stay_on_lapack(dim):
    H = random_hermitian_stack(16, dim, seed=dim)
    W, V = kernels.eigh_batch(H)
    W_ref, V_ref = np.linalg.eigh(H)
    assert np.array_equal(W, W_ref) and np.array_equal(V, V_ref)


def expm_stack(H, alphas):
    return np.stack([scipy.linalg.expm(-1j * a * h) for a, h in zip(alphas, H)])


def assert_2x2_exponentials(H, alphas):
    """exp(-i alpha_k H_k) of ``exponential_map`` within 1e-13 of expm,
    each unitary to 1e-14."""
    E = kernels.exponential_map(H)(alphas)
    assert np.max(np.abs(E - expm_stack(H, alphas))) <= 1e-13
    gram = np.conj(np.swapaxes(E, 1, 2)) @ E
    assert np.max(np.linalg.norm(gram - np.eye(2), axis=(1, 2))) <= 1e-14


def test_step_exponentials_2x2_match_expm():
    assert_2x2_exponentials(random_hermitian_stack(32, 2, seed=9),
                            np.linspace(-3.0, 7.0, 32))
    rng = np.random.default_rng(40)
    assert_2x2_exponentials(random_hermitian_stack(200, 2, seed=41, scale=3.0),
                            rng.uniform(-5.0, 5.0, 200))


def count_calls(monkeypatch, name):
    """Record the first argument's shape on every call of ``kernels.name``."""
    calls = []
    original = getattr(kernels, name)

    def counting(h):
        calls.append(h.shape)
        return original(h)

    monkeypatch.setattr(kernels, name, counting)
    return calls


def test_propagate_steps_uses_one_kernel_factorization(monkeypatch):
    # 2x2 steps take the SU(2) components and no eigensolve
    components = count_calls(monkeypatch, "su2_components")
    eigensolves = count_calls(monkeypatch, "eigh_batch")
    H = random_hermitian_stack(8, 2, seed=10)
    records = kernels.propagate_steps(H, np.full(8, 0.2), np.eye(2), 8)
    assert components == [(8, 2, 2)] and eigensolves == []
    ref = np.eye(2)
    for h in H:
        ref = scipy.linalg.expm(-0.2j * h) @ ref
    assert np.max(np.abs(records[-1] - ref)) <= 1e-13


def test_su2_exponentials_at_and_near_r_zero():
    rng = np.random.default_rng(42)
    m = rng.uniform(-2.0, 2.0, 64)
    alphas = rng.uniform(-4.0, 4.0, 64)
    scalar = m[:, None, None] * np.eye(2)          # H = m I: r = 0
    comps = kernels.su2_components(scalar)
    assert np.all(comps[3] == 0.0)
    E = kernels.su2_exponentials(comps, alphas)
    assert np.all(E[:, 0, 1] == 0.0) and np.all(E[:, 1, 0] == 0.0)
    assert np.array_equal(E[:, 0, 0], E[:, 1, 1])
    assert np.max(np.abs(E[:, 0, 0] - np.exp(-1j * alphas * m))) <= 1e-15
    near = scalar + random_hermitian_stack(64, 2, seed=43, scale=1e-12)
    r = kernels.su2_components(near)[3]
    assert np.all((r > 1e-13) & (r < 1e-11))
    assert_2x2_exponentials(near, alphas)


def test_su2_exponentials_at_large_alpha():
    # |alpha| up to 1e4, both signs. The phase alpha w carries a rounding of
    # eps |alpha w| on any route, so the stack is scaled to |alpha| ||H|| of
    # order one: the bound then tests the closed form, not the conditioning
    rng = np.random.default_rng(44)
    alphas = rng.choice([-1.0, 1.0], 64) * np.logspace(0.0, 4.0, 64)
    H = random_hermitian_stack(64, 2, seed=45) / np.abs(alphas)[:, None, None]
    assert_2x2_exponentials(H, alphas)


def random_su2_quaternions(n, seed):
    q = np.random.default_rng(seed).standard_normal((4, n))
    return q / np.linalg.norm(q, axis=0)


def test_quaternion_product_matches_matmul_2x2():
    x, y = random_su2_quaternions(500, 48), random_su2_quaternions(500, 49)
    angles = np.random.default_rng(50).uniform(-np.pi, np.pi, (2, 500))
    X = kernels.su2_matrices(angles[0], x)
    Y = kernels.su2_matrices(angles[1], y)
    assert np.max(np.abs(np.linalg.det(X) - np.exp(-2j * angles[0]))) <= 2e-15
    XY = kernels.su2_matrices(angles.sum(axis=0),
                              kernels.quaternion_product(x, y))
    assert np.max(np.abs(XY - kernels.matmul_2x2(X, Y))) <= 2e-15


def random_complex_stack(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((n, 2, 2))
                    + 1j * rng.standard_normal((n, 2, 2)))


@pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e100])
def test_2x2_hermiticity_defect_matches_frobenius(scale):
    M = random_complex_stack(500, seed=47, scale=scale)
    generic = np.linalg.norm(M - np.conj(np.swapaxes(M, 1, 2)), axis=(1, 2))
    for k in (0, 1, 250, 499):
        assert abs(linalg.hermiticity_defect(M[k]) - generic[k]) \
            <= 1e-15 * generic[k]
    assert abs(linalg.hermiticity_defect(M) - generic.max()) \
        <= 1e-15 * generic.max()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sandwich_matches_einsum(dim):
    rng = np.random.default_rng(dim)

    def stack():
        return rng.standard_normal((50, dim, dim)) \
            + 1j * rng.standard_normal((50, dim, dim))

    A, M, B = stack(), stack(), stack()
    ref = np.einsum("kji,kjl,klm->kim", A.conj(), M, B)
    assert np.max(np.abs(sandwich(A, M, B) - ref)) <= 1e-13


# Subnormal entries are left out: the halvings in m and d drop their last
# bit, an absolute eigenvalue error of one subnormal unit that no relative
# bound can hold. Orthonormality holds for them as well
# (test_closed_form_subnormal_entries_stay_orthonormal).
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False, allow_subnormal=False)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(finite, finite, finite, finite),
                min_size=1, max_size=16))
def test_closed_form_property_random_2x2(rows):
    h00, h11, qr, qi = (np.array(c) for c in zip(*rows))
    H = hermitian_2x2(h00, h11, qr + 1j * qi)
    W, V = kernels.eigh_batch(H)
    assert_eigenpairs(H, W, V)
