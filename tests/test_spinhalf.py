"""Closed forms of the rotating-field model."""

import numpy as np

import adiakit as ak
from adiakit import spinhalf


def test_theta_zero_is_static_sigma_z():
    h = spinhalf.hamiltonian(0.0, 1.0)
    for s in [0.0, 1.3, 4.0]:
        assert np.allclose(h.eval(s), -0.5 * ak.SIGMA_Z, atol=1e-15)


def test_matrix_at_specific_point():
    # theta=pi/3, omega0=2, s=pi/2: -(sy sin(pi/3) + sz cos(pi/3))
    h = spinhalf.hamiltonian(np.pi / 3, 2.0)
    expected = -(ak.SIGMA_Y * np.sin(np.pi / 3) + ak.SIGMA_Z * np.cos(np.pi / 3))
    assert np.allclose(h.eval(np.pi / 2), expected, atol=1e-14)


def test_components_match_pauli_sums():
    # H = -(omega0/2)(sx st cos s + sy st sin s + sz ct), and its derivative
    for theta, omega0 in [(np.pi / 4, 1.0), (0.3, 2.7), (2.9, 0.05)]:
        h = spinhalf.hamiltonian(theta, omega0)
        s = np.linspace(-1.0, 13.0, 1001)
        st, ct = np.sin(theta), np.cos(theta)
        col = s[:, None, None]
        H = -(omega0 / 2.0) * (ak.SIGMA_X * st * np.cos(col)
                               + ak.SIGMA_Y * st * np.sin(col)
                               + ak.SIGMA_Z * ct)
        dH = -(omega0 / 2.0) * st * (-ak.SIGMA_X * np.sin(col)
                                     + ak.SIGMA_Y * np.cos(col))
        scale = omega0 / 2.0
        assert np.max(np.abs(h.eval_batch(s) - H)) <= 1e-15 * scale
        assert np.max(np.abs(h.derivative_batch(s) - dH)) <= 1e-15 * scale


def test_derivative_matches_finite_difference():
    h = spinhalf.hamiltonian(0.9, 1.3)
    step = 1e-4
    for s in [0.2, 2.0, 5.9]:
        fd = (h.eval(s + step) - h.eval(s - step)) / (2 * step)
        assert np.linalg.norm(h.derivative(s) - fd) <= 1e-6


def test_propagator_solves_scaled_schrodinger():
    theta, omega0, omega = np.pi / 4, 1.0, 0.1
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(theta, omega0)
    u = spinhalf.exact_propagator(theta, omega0)
    step = 1e-4
    for s in [0.5, 2.2, 4.9]:
        du = (u.eval(s + step, tau) - u.eval(s - step, tau)) / (2 * step)
        resid = 1j * du - tau * h.eval(s, tau) @ u.eval(s, tau)
        assert np.linalg.norm(resid) <= 1e-6


def test_propagator_identity_and_unitarity():
    u = spinhalf.exact_propagator(np.pi / 4, 1.0)
    tau = 10.0
    assert np.linalg.norm(u.eval(0.0, tau) - np.eye(2)) <= 1e-14
    us = u.eval_batch(np.linspace(0, 2 * np.pi, 100), tau)
    gram = np.einsum("kji,kjl->kil", us.conj(), us) - np.eye(2)
    assert np.max(np.linalg.norm(gram, axis=(1, 2))) <= 1e-12


def test_parallel_eigvecs_are_eigenvectors_and_transported():
    theta, omega0 = 0.8, 1.0
    h = spinhalf.hamiltonian(theta, omega0)
    vecs = spinhalf.parallel_eigvecs(theta)
    step = 1e-5
    for s in [0.0, 1.0, 3.7]:
        V = vecs(s)
        H = h.eval(s)
        for j, E in [(0, -omega0 / 2), (1, omega0 / 2)]:
            assert np.linalg.norm(H @ V[:, j] - E * V[:, j]) <= 1e-12
        # parallel transport: <v|dv/ds> = 0
        dV = (vecs(s + step) - vecs(s - step)) / (2 * step)
        for j in range(2):
            assert abs(np.vdot(V[:, j], dV[:, j])) <= 1e-8


def test_coupling_closed_form_against_finite_difference():
    theta = 1.1
    vecs = spinhalf.parallel_eigvecs(theta)
    step = 1e-5
    for s in [0.0, 0.9, 2 * np.pi - 0.3]:
        dV = (vecs(s + step) - vecs(s - step)) / (2 * step)
        fd = np.vdot(vecs(s)[:, 1], dV[:, 0])
        assert abs(fd - spinhalf.coupling_upper_lower(theta, s)) <= 1e-9
    # modulus sin(theta)/2, s-independent
    s = np.linspace(0, 2 * np.pi, 50)
    assert np.allclose(np.abs(spinhalf.coupling_upper_lower(theta, s)),
                       np.sin(theta) / 2)
    # theta=pi/2 at s=0: coupling = -i/2
    assert np.isclose(spinhalf.coupling_upper_lower(np.pi / 2, 0.0), -0.5j)
    # theta=0: zero coupling
    assert spinhalf.coupling_upper_lower(0.0, 1.0) == 0


def test_projector_upper_matches_vectors():
    theta = 0.7
    vecs = spinhalf.parallel_eigvecs(theta)
    for s in [0.0, 1.5, 4.4]:
        v = vecs(s)[:, 1]
        assert np.linalg.norm(np.outer(v, v.conj())
                              - spinhalf.projector_upper(theta, s)) <= 1e-14


def test_dual_propagator_is_adjoint_solution():
    # U_dual solves i dU/ds = tau * H_dual U with H_dual = -U_a^dag H U_a
    theta, omega0, omega = 0.6, 1.0, 0.05
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(theta, omega0)
    ua = spinhalf.exact_propagator(theta, omega0)
    hb = ak.dual_of(h, ua)
    ub = spinhalf.dual_propagator(theta, omega0)
    step = 1e-5
    for s in [0.4, 2.8]:
        du = (ub.eval(s + step, tau) - ub.eval(s - step, tau)) / (2 * step)
        resid = 1j * du - tau * hb.eval(s, tau) @ ub.eval(s, tau)
        assert np.linalg.norm(resid) <= 1e-5


def test_negated_dual_propagator_solves_its_equation():
    theta, omega0, omega = 0.6, 1.0, 0.05
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(theta, omega0)
    ua = spinhalf.exact_propagator(theta, omega0)
    hc = ak.negate(ak.dual_of(h, ua))
    uc = spinhalf.negated_dual_propagator(theta, omega0)
    assert np.linalg.norm(uc.eval(0.0, tau) - np.eye(2)) <= 1e-12
    step = 1e-5
    for s in [0.4, 2.8]:
        du = (uc.eval(s + step, tau) - uc.eval(s - step, tau)) / (2 * step)
        resid = 1j * du - tau * hc.eval(s, tau) @ uc.eval(s, tau)
        assert np.linalg.norm(resid) <= 1e-4


def test_dual_propagator_matches_numerical_propagation():
    theta, omega0, omega = np.pi / 4, 1.0, 0.1
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(theta, omega0)
    ua = spinhalf.exact_propagator(theta, omega0)
    hb = ak.dual_of(h, ua)
    grid = np.linspace(0, 2 * np.pi, 65)
    res = ak.propagate(hb, tau, grid, substeps=400)
    ref = spinhalf.dual_propagator(theta, omega0).eval_batch(grid, tau)
    assert np.max(np.linalg.norm(res.unitaries - ref, axis=(1, 2))) <= 1e-5
