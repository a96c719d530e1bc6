"""Eigenframes, parallel transport, and the geometric operators."""

import numpy as np
import pytest

import adiakit as ak
from adiakit import spinhalf
from adiakit.exceptions import (EigenvalueCrossingError,
                                ProjectorDiscontinuityError)
from adiakit.gauge import kernel_coefficients
from adiakit.models import random_smooth_hamiltonian
from adiakit.paths import HamiltonianPath, constant_hamiltonian

THETA, OMEGA0 = np.pi / 4, 1.0
WINDOW = 2 * np.pi
GRID = np.linspace(0.0, WINDOW, 1025)


@pytest.fixture(scope="module")
def spin_frame():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    return ak.eigenframe(h, 100.0, GRID,
                         initial_vectors=spinhalf.initial_vectors(THETA))


def test_constant_hamiltonian_vectors_constant():
    H0 = np.array([[1.0, 0.2 + 0.1j, 0.0],
                   [0.2 - 0.1j, -0.5, 0.3j],
                   [0.0, -0.3j, 2.0]], dtype=complex)
    fr = ak.eigenframe(constant_hamiltonian(H0), 10.0, np.linspace(0, 1, 101))
    assert np.max(np.abs(fr.vectors - fr.vectors[0])) <= 1e-12
    assert np.max(np.abs(fr.values - fr.values[0])) <= 1e-13


def test_frame_values_and_gap(spin_frame):
    assert np.allclose(spin_frame.values[:, 0], -OMEGA0 / 2, atol=1e-13)
    assert np.allclose(spin_frame.values[:, 1], OMEGA0 / 2, atol=1e-13)
    assert np.isclose(spin_frame.min_gap, OMEGA0, atol=1e-12)


def test_frame_gauge_and_completeness(spin_frame):
    assert spin_frame.gauge_residual() <= 1e-6
    assert spin_frame.completeness_defect() <= 1e-10


def test_initial_vector_alignment(spin_frame):
    iv = spinhalf.initial_vectors(THETA)
    assert np.linalg.norm(spin_frame.vectors[0] - iv) <= 1e-12


def test_frame_matches_analytic_transport(spin_frame):
    ref = spinhalf.parallel_eigvecs(THETA)(GRID)
    assert np.max(np.abs(spin_frame.vectors - ref)) <= 1e-8


def test_couplings_match_closed_form(spin_frame):
    C = ak.couplings(spin_frame)
    ref = spinhalf.coupling_upper_lower(THETA, GRID)
    assert np.max(np.abs(C[:, 1, 0] - ref)) <= 1e-9
    # diagonal vanishes and the pair is anti-conjugate
    assert np.max(np.abs(C[:, 0, 0])) == 0.0
    assert np.max(np.abs(C[:, 0, 1] + C[:, 1, 0].conj())) <= 1e-9


def test_coupling_routes_agree(spin_frame):
    Chf = ak.couplings(spin_frame, method="hf")
    Cfd = ak.couplings(spin_frame, method="fd")
    off = ~np.eye(2, dtype=bool)
    assert np.max(np.abs(Chf[:, off] - Cfd[:, off])) <= 1e-6


def test_coupling_routes_agree_random_4x4():
    rng = np.random.default_rng(44)
    path = random_smooth_hamiltonian(4, rng, base_gap=1.0, wobble=0.25)
    fr = ak.eigenframe(path, 40.0, np.linspace(0.0, WINDOW, 4097))
    assert fr.min_gap >= 0.2
    Chf = ak.couplings(fr, method="hf")
    Cfd = ak.couplings(fr, method="fd")
    off = ~np.eye(4, dtype=bool)
    assert np.max(np.abs(Chf[:, off] - Cfd[:, off])) <= 1e-6


def test_theta_zero_couplings_vanish():
    h = spinhalf.hamiltonian(0.0, OMEGA0)
    fr = ak.eigenframe(h, 100.0, GRID)
    assert np.max(np.abs(ak.couplings(fr))) <= 1e-12


def test_grid_refinement_stability(spin_frame):
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    fine = ak.eigenframe(h, 100.0, np.linspace(0.0, WINDOW, 2049),
                         initial_vectors=spinhalf.initial_vectors(THETA))
    C1 = ak.couplings(spin_frame, method="fd")[:, 1, 0]
    C2 = ak.couplings(fine, method="fd")[::2, 1, 0]
    ds = GRID[1] - GRID[0]
    assert np.max(np.abs(C1 - C2)) <= ds**2


def _crossing_path():
    """diag(s - 0.5, 0.5 - s): the two levels cross at s = 0.5."""
    def h_eval(s, tau):
        out = np.zeros((len(s), 2, 2), dtype=complex)
        out[:, 0, 0] = s - 0.5
        out[:, 1, 1] = 0.5 - s
        return out

    return HamiltonianPath(2, h_eval)


def test_crossing_detected_and_named():
    with pytest.raises(EigenvalueCrossingError) as exc:
        ak.eigenframe(_crossing_path(), 1.0, np.linspace(0, 1, 101))
    lo, hi = exc.value.interval
    assert lo <= 0.5 <= hi


def test_levels_tracked_through_crossing_between_grid_points():
    # eigh sorts the levels, so they swap between s = 3/7 and s = 4/7;
    # tracking by overlap must undo the swap
    grid = np.linspace(0, 1, 8)
    fr = ak.eigenframe(_crossing_path(), 1.0, grid)
    assert np.array_equal(fr.values[:, 0], grid - 0.5)
    assert fr.gauge_residual() == 0.0


def test_discontinuous_projector_detected():
    def h_eval(s, tau):
        return np.where((s < 0.5)[:, None, None],
                        np.diag([-1.0, 1.0]).astype(complex),
                        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    path = HamiltonianPath(2, h_eval)
    with pytest.raises(ProjectorDiscontinuityError):
        ak.eigenframe(path, 1.0, np.linspace(0, 1, 101))


@pytest.mark.parametrize("npts", [4097, 262145])
def test_frame_transport_corrected_at_every_size(npts):
    # the Richardson correction has no size threshold: the frames the
    # verification suite builds match the analytic transport at any size
    from adiakit.verify import _spin_frames

    frames, grid = _spin_frames(THETA, OMEGA0, 100.0, npts)
    ref = spinhalf.parallel_eigvecs(THETA)(grid)
    assert np.max(np.abs(frames["a"].vectors - ref)) <= 1e-12


def test_frame_determinism(spin_frame):
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    again = ak.eigenframe(h, 100.0, GRID,
                          initial_vectors=spinhalf.initial_vectors(THETA))
    assert np.array_equal(again.vectors, spin_frame.vectors)
    assert np.array_equal(again.values, spin_frame.values)


def test_projector_orthonormality_pointwise():
    rng = np.random.default_rng(3)
    path = random_smooth_hamiltonian(3, rng, base_gap=1.5)
    fr = ak.eigenframe(path, 25.0, np.linspace(0, WINDOW, 513))
    total = np.zeros((len(fr.grid), 3, 3), dtype=complex)
    for j in range(3):
        P = fr.projector(j)
        total += P
        assert np.max(np.linalg.norm(P @ P - P, axis=(1, 2))) <= 1e-10
    assert np.max(np.linalg.norm(total - np.eye(3), axis=(1, 2))) <= 1e-10


def test_kato_operator_trivials(spin_frame):
    ua = ak.kato_operator(spin_frame)
    assert np.linalg.norm(ua[0] - np.eye(2)) <= 1e-13
    gram = np.einsum("kji,kjl->kil", ua.conj(), ua) - np.eye(2)
    assert np.max(np.linalg.norm(gram, axis=(1, 2))) <= 1e-12
    assert ak.intertwining_defect(ua, spin_frame) <= 1e-8


def test_kato_operator_constant_path_is_identity():
    H0 = np.diag([1.0, -1.0, 0.3]).astype(complex)
    fr = ak.eigenframe(constant_hamiltonian(H0), 5.0, np.linspace(0, 1, 65))
    ua = ak.kato_operator(fr)
    assert np.max(np.abs(ua - np.eye(3))) <= 1e-12


def test_dynamical_phase_structure(spin_frame):
    ph = ak.dynamical_phase(spin_frame)
    assert np.linalg.norm(ph[0] - np.eye(2)) <= 1e-13
    gram = np.einsum("kji,kjl->kil", ph.conj(), ph) - np.eye(2)
    assert np.max(np.linalg.norm(gram, axis=(1, 2))) <= 1e-12
    # spin-half: constant eigenvalues give exactly linear phases
    tau = spin_frame.tau
    v0 = spin_frame.vectors[0]
    expected = np.einsum("ij,kj,lj->kil", v0, np.exp(
        -1j * tau * np.stack([-0.5 * GRID, 0.5 * GRID], axis=1)), v0.conj())
    assert np.max(np.abs(ph - expected)) <= 1e-10


def test_kato_generator_matches_couplings(spin_frame):
    C = ak.couplings(spin_frame)
    K = ak.kato_generator(spin_frame, C)
    herm = np.max(np.linalg.norm(K - np.conj(np.swapaxes(K, 1, 2)),
                                 axis=(1, 2)))
    assert herm <= 1e-8
    # matrix elements in the instantaneous basis equal i * couplings
    for k in (10, 500, 900):
        V = spin_frame.vectors[k]
        M = V.conj().T @ K[k] @ V
        assert abs(M[1, 0] - 1j * C[k, 1, 0]) <= 1e-12
        assert abs(M[0, 0]) <= 1e-12
    # norm bound: max coupling * sqrt(pairs)
    bound = np.max(np.abs(C)) * np.sqrt(2.0) + 1e-12
    assert np.max(np.linalg.norm(K, axis=(1, 2))) <= bound


def test_kato_generator_zero_for_constant_path():
    H0 = np.diag([0.2, -1.0]).astype(complex)
    fr = ak.eigenframe(constant_hamiltonian(H0), 3.0, np.linspace(0, 1, 65))
    assert np.max(np.abs(ak.kato_generator(fr))) <= 1e-12


def test_kernel_structure(spin_frame):
    coeff = kernel_coefficients(spin_frame)
    # zero diagonal, modulus sin(theta)/2 on the off-diagonal
    assert np.max(np.abs(coeff[:, 0, 0])) == 0.0
    assert np.allclose(np.abs(coeff[:, 1, 0]), np.sin(THETA) / 2, atol=1e-12)
    kb = ak.kernel(spin_frame)
    # operator form is basis-rotated coefficients: norms match
    assert np.allclose(np.linalg.norm(kb, axis=(1, 2)),
                       np.linalg.norm(coeff, axis=(1, 2)), atol=1e-12)


def test_kernel_vanishes_at_theta_zero():
    h = spinhalf.hamiltonian(0.0, OMEGA0)
    fr = ak.eigenframe(h, 100.0, GRID)
    assert np.max(np.abs(ak.kernel(fr))) <= 1e-12


def test_dual_kernel_is_non_oscillatory():
    # dual-frame kernel coefficients equal i * base couplings: no net phase
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    hb = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    fr = ak.eigenframe(hb, 100.0, GRID,
                       initial_vectors=spinhalf.initial_vectors(THETA))
    coeff = kernel_coefficients(fr)
    ref = 1j * spinhalf.coupling_upper_lower(THETA, GRID)
    assert np.max(np.abs(coeff[:, 1, 0] - ref)) <= 1e-9


def test_dual_projectors_stay_near_origin_at_small_omega():
    omega = 0.01
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    hb = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    fr = ak.eigenframe(hb, 1.0 / omega, np.linspace(0, WINDOW, 4097),
                       initial_vectors=spinhalf.initial_vectors(THETA))
    drift = ak.projector_drift(fr)
    assert drift <= 3.0 * omega


def test_transported_frame_agrees_with_discrete_at_moderate_tau():
    tau = 20.0
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    hb = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    grid = np.linspace(0, WINDOW, 8193)
    iv = spinhalf.initial_vectors(THETA)
    tr = ak.eigenframe(hb, tau, grid, initial_vectors=iv,
                       transport="transported")
    dc = ak.eigenframe(hb, tau, grid, initial_vectors=iv,
                       transport="discrete")
    assert np.allclose(tr.values, dc.values, atol=1e-11)
    # same frame up to numerical transport error in the discrete route
    assert np.max(np.abs(tr.vectors - dc.vectors)) <= 1e-4
    Ct = ak.couplings(tr)
    Cd = ak.couplings(dc)
    assert np.max(np.abs(np.abs(Ct[:, 1, 0]) - np.abs(Cd[:, 1, 0]))) <= 1e-9


def test_transported_frame_rejects_wrong_unitary():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    wrong_u = spinhalf.exact_propagator(THETA + 0.3, OMEGA0)
    hx = ak.dual_of(h, wrong_u)   # violates the dual_of contract
    with pytest.raises(ValueError, match="generator mismatch"):
        ak.eigenframe(hx, 50.0, GRID, transport="transported")


def test_nonuniform_grid_frame_and_integrals():
    # frames and trapezoid diagnostics accept non-uniform grids; the
    # finite-difference coupling route demands uniformity and says so
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    grid = np.sort(np.concatenate([
        np.linspace(0.0, WINDOW, 700),
        0.5 * (np.linspace(0.0, WINDOW, 700)[:-1]
               + np.linspace(0.0, WINDOW, 700)[1:])[::3]]))
    fr = ak.eigenframe(h, 50.0, grid,
                       initial_vectors=spinhalf.initial_vectors(THETA))
    C = ak.couplings(fr)
    ref = spinhalf.coupling_upper_lower(THETA, fr.grid)
    assert np.max(np.abs(C[:, 1, 0] - ref)) <= 1e-6
    ser = ak.resonance_series(fr, 1, 0)
    assert np.isfinite(ser).all()
    with pytest.raises(ValueError, match="uniform"):
        ak.couplings(fr, method="fd")
