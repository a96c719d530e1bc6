"""Dual, negated, and general transformed Hamiltonian constructions."""

import numpy as np
import pytest

import adiakit as ak
from adiakit import _kernels_py as kernels
from adiakit import spinhalf
from adiakit.exceptions import NonSmoothUnitaryError
from adiakit.linalg import check_hermitian
from adiakit.paths import UnitaryPath, identity_unitary

THETA, OMEGA0 = np.pi / 4, 1.0
TAU = 100.0


def eigh_one(H):
    """(ascending values, eigenvector columns) of one matrix, which must be
    Hermitian to 1e-12 relative."""
    check_hermitian(H, 1e-12)
    W, V = kernels.eigh_batch(H[None])
    return W[0], V[0]


@pytest.fixture(scope="module")
def spin():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    u = spinhalf.exact_propagator(THETA, OMEGA0)
    return h, u


def test_dual_at_origin_is_negated_base(spin):
    h, u = spin
    hb = ak.dual_of(h, u)
    assert np.allclose(hb.eval(0.0, TAU), -h.eval(0.0, TAU), atol=1e-13)


def test_dual_eigenvalues_negated(spin):
    h, u = spin
    hb = ak.dual_of(h, u)
    for s in [0.3, 1.9, 5.0]:
        w, _ = eigh_one(hb.eval(s, TAU))
        assert np.allclose(np.sort(w), [-OMEGA0 / 2, OMEGA0 / 2], atol=1e-12)


def test_dual_projector_closed_form(spin):
    h, u = spin
    hb = ak.dual_of(h, u)
    omega = 1.0 / TAU
    for s in [0.0, 0.8, 3.3]:
        H = hb.eval(s, TAU)
        w, v = eigh_one(H)
        # level with eigenvalue -omega0/2 descends from the base upper level
        j = int(np.argmin(w))
        P = np.outer(v[:, j], v[:, j].conj())
        ref = spinhalf.dual_projector_offdiag(THETA, OMEGA0, omega, s)
        assert abs(P[0, 1] - ref) <= 1e-12


def test_dual_analytic_derivative(spin):
    h, u = spin
    hb = ak.dual_of(h, u)
    step = 1e-5
    for s in [0.5, 2.4]:
        fd = (hb.eval(s + step, TAU) - hb.eval(s - step, TAU)) / (2 * step)
        assert np.linalg.norm(hb.derivative(s, TAU) - fd) <= 1e-4 * TAU * step + 1e-6


def test_negate_involution_and_projectors(spin):
    h, u = spin
    hb = ak.dual_of(h, u)
    hc = ak.negate(hb)
    hbb = ak.negate(hc)
    for s in np.linspace(0, 2 * np.pi, 20):
        assert np.allclose(hbb.eval(s, TAU), hb.eval(s, TAU), atol=1e-14)
        assert np.allclose(hc.eval(s, TAU), -hb.eval(s, TAU), atol=1e-14)
        wb, vb = eigh_one(hb.eval(s, TAU))
        wc, vc = eigh_one(hc.eval(s, TAU))
        # same eigenprojectors, flipped eigenvalues
        for jb in range(2):
            pb = np.outer(vb[:, jb], vb[:, jb].conj())
            jc = 1 - jb
            pc = np.outer(vc[:, jc], vc[:, jc].conj())
            assert np.linalg.norm(pb - pc) <= 1e-11
        assert np.allclose(np.sort(wc), np.sort(-wb), atol=1e-13)


def test_negate_plain_path_keeps_derivative():
    h = spinhalf.hamiltonian(0.5, 1.0)
    neg = ak.negate(h)
    for s in [0.1, 2.0]:
        assert np.allclose(neg.eval(s), -h.eval(s), atol=1e-15)
        assert np.allclose(neg.derivative(s), -h.derivative(s), atol=1e-13)


def test_transform_identity_is_base(spin):
    h, _ = spin
    hx = ak.transform(h, identity_unitary(2), +1)
    for s in [0.0, 1.0, 4.0]:
        assert np.allclose(hx.eval(s, TAU), h.eval(s, TAU), atol=1e-15)


def test_transform_with_propagator_reproduces_dual(spin):
    h, u = spin
    hx = ak.transform(h, u, -1)
    hb = ak.dual_of(h, u)
    for s in [0.2, 1.7, 5.2]:
        assert np.allclose(hx.eval(s, TAU), hb.eval(s, TAU), atol=1e-14)


def test_dual_then_negate_equals_plus_transform(spin):
    h, u = spin
    lhs = ak.negate(ak.dual_of(h, u))
    rhs = ak.transform(h, u, +1)
    for s in np.linspace(0, 2 * np.pi, 17):
        assert np.linalg.norm(lhs.eval(s, TAU) - rhs.eval(s, TAU)) <= 1e-12


def test_transform_preserves_spectrum_up_to_sign(spin):
    h, u = spin
    for sign in (+1, -1):
        hx = ak.transform(h, u, sign)
        for s in [0.9, 3.1]:
            wx, _ = eigh_one(hx.eval(s, TAU))
            wb, _ = eigh_one(h.eval(s, TAU))
            assert np.allclose(np.sort(wx), np.sort(sign * wb), atol=1e-10)


def test_transform_dimension_mismatch():
    h = spinhalf.hamiltonian(0.3, 1.0)
    with pytest.raises(ValueError):
        ak.transform(h, identity_unitary(3), +1)


def test_generator_of_identity_is_zero():
    gen = ak.generator_of(identity_unitary(2), tau=5.0)
    assert np.linalg.norm(gen.eval(0.5, 5.0)) <= 1e-10


def test_generator_of_recovers_base_hamiltonian(spin):
    h, u = spin
    tau = 20.0
    gen = ak.generator_of(u, h=1e-5)
    for s in [0.3, 1.1, 4.0]:
        assert np.linalg.norm(gen.eval(s, tau) - h.eval(s, tau)) <= 1e-5


def test_generator_of_constant_rotation():
    omega0, tau = 1.4, 7.0

    def _u(s, t):
        ph = np.exp(-0.5j * omega0 * t * s)
        out = np.zeros((len(s), 2, 2), dtype=complex)
        out[:, 0, 0] = ph
        out[:, 1, 1] = ph.conj()
        return out

    u = UnitaryPath(2, _u)
    gen = ak.generator_of(u, h=1e-5)
    target = 0.5 * omega0 * np.diag([1.0, -1.0]).astype(complex)
    # s = 0 and 1e-5 lie within 2h of s_min = 0 (one-sided stencil), the
    # rest take the central stencil, all in one vectorized call
    s = np.array([0.0, 1e-5, 0.9, 2.5])
    G = gen.eval_batch(s, tau)
    assert np.max(np.linalg.norm(G - target, axis=(1, 2))) <= 1e-7


def test_generator_of_flags_non_smooth_paths():
    # a phase jump: the finite difference straddles two group points, so the
    # extracted generator picks up a large anti-Hermitian part
    def _u(s, t):
        jump = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 5)])
        return np.where((s < 1.0)[:, None, None], np.eye(2, dtype=complex), jump)

    gen = ak.generator_of(UnitaryPath(2, _u), residual_threshold=1e-6)
    with pytest.raises(NonSmoothUnitaryError):
        gen.eval(1.0, 3.0)
