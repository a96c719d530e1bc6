"""Adiabaticity criteria, detectors, scaling fits, and the classifier."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adiakit as ak
from adiakit import spinhalf
from adiakit.diagnostics import (Classification, Thresholds, _kernel_summary,
                                 f_norm_max)
from adiakit.exceptions import ScalingUndefinedError
from adiakit.models import driven_two_level, random_smooth_hamiltonian
from adiakit.paths import constant_hamiltonian
from adiakit.quadrature import _cumtrapz_with_maxima

THETA, OMEGA0 = np.pi / 4, 1.0
WINDOW = 2 * np.pi


def spin_frame(system="a", theta=THETA, omega=0.01, npts=4097):
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(theta, OMEGA0)
    ua = spinhalf.exact_propagator(theta, OMEGA0)
    paths = {"a": h,
             "b": ak.dual_of(h, ua),
             "c": ak.negate(ak.dual_of(h, ua))}
    grid = np.linspace(0.0, WINDOW, npts)
    return ak.eigenframe(paths[system], tau, grid,
                         initial_vectors=spinhalf.initial_vectors(theta))


def test_qac_closed_form_and_theta_zero():
    fr = spin_frame("a", omega=0.01)
    assert abs(ak.qac_max(fr) - spinhalf.qac_value(THETA, OMEGA0, 0.01)) <= 1e-12
    fr0 = spin_frame("a", theta=0.0)
    assert ak.qac_max(fr0) <= 1e-14


def test_qac_equal_for_dual():
    fa = spin_frame("a")
    fb = spin_frame("b")
    qa, qb = ak.qac_max(fa), ak.qac_max(fb)
    assert abs(qa - qb) / qa <= 1e-8


def test_resonance_integral_dual_closed_form():
    fb = spin_frame("b")
    ser = ak.resonance_series(fb, 1, 0)
    ref = spinhalf.dual_resonance_integral(THETA, fb.grid)
    assert np.max(np.abs(ser - ref)) <= 1e-6
    val = ak.resonance_integral(fb, 1, 0, s_end=WINDOW)
    assert abs(val - spinhalf.dual_resonance_integral(THETA, WINDOW)) <= 1e-7
    # frozen reference point: theta=pi/4, s=2*pi
    assert abs(val - (0.6331276710 + 0.4819512664j)) <= 1e-6


def test_resonance_integral_negated_dual_oracle():
    # independent adaptive-quadrature oracle (scipy) for the twice-rotating
    # integrand; adjudicates the closed-form prefactor
    quad = pytest.importorskip("scipy.integrate").quad
    omega = 1e-2
    fc = spin_frame("c", omega=omega, npts=32769)
    ser = ak.resonance_series(fc, 1, 0)
    lib = ser[-1]

    rate = 2.0 * OMEGA0 / omega + np.cos(THETA)
    re = quad(lambda x: 0.5 * np.sin(THETA) * np.sin(rate * x), 0, WINDOW,
              limit=20000)[0]
    im = quad(lambda x: -0.5 * np.sin(THETA) * np.cos(rate * x), 0, WINDOW,
              limit=20000)[0]
    oracle = re + 1j * im
    assert abs(lib - oracle) <= 1e-8
    closed = spinhalf.negated_dual_resonance_integral(THETA, OMEGA0, omega,
                                                      WINDOW)
    assert abs(closed - oracle) <= 1e-10


def test_resonance_zero_at_theta_zero():
    fb = spin_frame("b", theta=0.0)
    assert np.max(np.abs(ak.resonance_series(fb, 1, 0))) <= 1e-10


def test_phase_cancellation_pointwise():
    fb = spin_frame("b")
    g = -1j * ak.kernel_coefficients(fb)[:, 1, 0]
    assert np.max(np.abs(g - spinhalf.coupling_upper_lower(THETA, fb.grid))) <= 1e-6


def test_f_norm_scaling_and_magnitude():
    taus = [628.0, 6283.0]
    fa = [f_norm_max(spin_frame("a", omega=1.0 / t,
                                npts=16385 if t < 1e3 else 131073))
          for t in taus]
    slope = np.log(fa[1] / fa[0]) / np.log(taus[1] / taus[0])
    assert abs(slope + 1.0) <= 0.1
    fb = f_norm_max(spin_frame("b"))
    dense = np.linspace(0, WINDOW, 20001)
    ref = np.sqrt(2.0) * np.max(np.abs(spinhalf.dual_resonance_integral(THETA, dense)))
    assert abs(fb - ref) <= 1e-6
    assert f_norm_max(spin_frame("b", theta=0.0)) <= 1e-12


def test_f_norm_max_of_the_dual_peaks_between_grid_points():
    # the dual's kernel integral peaks at s = pi / cos(theta), between the
    # points of a 2,049-point grid
    fb = spin_frame("b", npts=2049)
    ref = (np.sqrt(2.0) * np.tan(THETA)
           * np.sin(min(np.pi * np.cos(THETA), np.pi / 2)))
    assert abs(f_norm_max(fb) - ref) <= 1e-10


def test_f_norm_max_of_the_base_at_the_refinement_trigger():
    # at 0.3 rad per step a plain trapezoid series, maximized over the grid
    # points, is 7.6e-3 (relative) off this closed form
    npts = 2049
    tau = 0.3 * (npts - 1) / WINDOW
    fa = spin_frame("a", omega=1.0 / tau, npts=npts)
    assert abs(ak.phase_rate_per_step(fa) - 0.3) <= 1e-9
    ref = np.sqrt(2.0) * np.sin(THETA) / (tau + np.cos(THETA))
    assert abs(f_norm_max(fa) - ref) <= 1e-4 * ref


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_f_norm_max_of_the_base_on_a_coarse_grid(k):
    # 2,049 points at tau = 2 pi 10^k: 1.9 to 1,930 rad per step
    tau = 2 * np.pi * 10**k
    fa = spin_frame("a", omega=1.0 / tau, npts=2049)
    ref = np.sqrt(2.0) * np.sin(THETA) / (tau + np.cos(THETA))
    assert abs(f_norm_max(fa) - ref) <= 1e-10 * ref


@pytest.mark.parametrize("omega", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_negated_dual_resonance_on_a_coarse_grid(omega):
    # the integrand turns at 2 tau + cos(theta) per unit s: 6 to 6e6 rad
    # per step on 2,049 points
    fc = spin_frame("c", omega=omega, npts=2049)
    ref = spinhalf.negated_dual_resonance_integral(THETA, OMEGA0, omega,
                                                   WINDOW)
    assert abs(ak.resonance_series(fc, 1, 0)[-1] - ref) <= 1e-12


@settings(max_examples=8, deadline=None, database=None)
@given(dim=st.integers(min_value=3, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       tau=st.floats(min_value=5.0, max_value=200.0))
def test_kernel_summary_of_a_discrete_frame_matches_a_16x_grid(dim, seed,
                                                                tau):
    # random smooth paths at up to about 2 rad per step on 2,049 points,
    # where the gaps vary along s so the phase is not linear per step.
    # Bound: resonance ends and running maxima within 1e-8 of the largest
    # entry maximum, f_norm_max within 1e-8 relative. Forty draws of this
    # strategy stayed below 2.2e-9; the trapezoid rule with the
    # Euler-Maclaurin correction was up to 7e-3 off at 2 rad per step.
    path = random_smooth_hamiltonian(dim, np.random.default_rng(seed),
                                     base_gap=1.0, wobble=0.3)
    coarse = ak.eigenframe(path, tau, np.linspace(0.0, WINDOW, 2049))
    assume(coarse.min_gap >= 0.2)
    fine = ak.eigenframe(path, tau, np.linspace(0.0, WINDOW, 32769))
    kc, peak_c, _, norm_c = _kernel_summary(coarse)
    kf, peak_f, _, norm_f = _kernel_summary(fine)
    scale = np.max(peak_f)
    assert np.max(np.abs(kc[-1] - kf[-1])) <= 1e-8 * scale
    assert np.max(np.abs(peak_c - peak_f)) <= 1e-8 * scale
    assert abs(norm_c - norm_f) <= 1e-8 * norm_f


def _mirror_case(system):
    if system == "discrete_4level":
        path = random_smooth_hamiltonian(4, np.random.default_rng(7),
                                         base_gap=1.0, wobble=0.3)
        frame = ak.eigenframe(path, 60.0, np.linspace(0.0, WINDOW, 4097))
    else:
        frame = spin_frame("b", npts=2049)
    assert frame.construction == system.split("_")[0]
    return frame


@pytest.mark.parametrize("system", ["discrete_4level", "transported_dual"])
def test_kernel_coefficients_are_hermitian(system):
    # the couplings are anti-Hermitian, so i e^{i(phi_m - phi_n)} C_mn is
    # Hermitian at every point: the kernel is integrated for the pairs
    # m > n alone. Measured 7.9e-16 and 5.7e-16 of the largest coefficient
    coeff = ak.kernel_coefficients(_mirror_case(system))
    mirror = coeff - np.conj(np.swapaxes(coeff, 1, 2))
    assert np.max(np.abs(mirror)) <= 1e-13 * np.max(np.abs(coeff))


@pytest.mark.parametrize("system", ["discrete_4level", "transported_dual"])
def test_pair_columns_match_the_full_kernel_stack(system):
    # reference: all n^2 entries integrated as columns, entry (m, n) under
    # the phase theta_m - theta_n; the pair columns, their conjugate
    # mirrors and sqrt(2) times the pairs' norm are the full stack's
    frame = _mirror_case(system)
    n = frame.dim
    K, peaks, norms, norm_max = _kernel_summary(frame)
    theta = frame.integrand_phases()
    phase = (None if theta is None else
             (theta[:, :, None] - theta[:, None, :]).reshape(-1, n * n))
    full, full_peaks, full_norms, full_max = _cumtrapz_with_maxima(
        ak.kernel_coefficients(frame).reshape(-1, n * n), frame.grid, phase)
    full = full.reshape(-1, n, n)
    full_peaks = full_peaks.reshape(n, n)
    m, k = np.tril_indices(n, -1)
    scale = np.max(full_peaks)
    assert np.max(np.abs(full[:, m, k] - K)) <= 1e-13 * scale
    assert np.max(np.abs(full[:, k, m] - K.conj())) <= 1e-13 * scale
    assert np.max(np.abs(full_peaks[m, k] - peaks)) <= 1e-13 * scale
    assert np.max(np.abs(full_peaks[k, m] - peaks)) <= 1e-13 * scale
    assert np.max(np.abs(full_norms - norms)) <= 1e-13 * full_max
    assert abs(full_max - norm_max) <= 1e-13 * full_max
    assert np.all(full_peaks[np.arange(n), np.arange(n)] == 0.0)


def test_projector_drift_values():
    fr = spin_frame("a", theta=np.pi / 3, omega=0.01, npts=4097)
    ser = ak.projector_drift_series(fr)
    k = int(np.argmin(np.abs(fr.grid - np.pi)))
    assert abs(ser[k] - np.sqrt(2) * np.sin(np.pi / 3)) <= 1e-6
    const = ak.eigenframe(constant_hamiltonian(np.diag([1.0, -1.0]).astype(complex)),
                          5.0, np.linspace(0, 1, 65))
    assert ak.projector_drift(const) <= 1e-13


def test_intertwining_defect_systems():
    omega = 0.01
    ua = spinhalf.exact_propagator(THETA, OMEGA0)
    ub = spinhalf.dual_propagator(THETA, OMEGA0)
    fa, fb = spin_frame("a", omega=omega), spin_frame("b", omega=omega)
    da = ak.intertwining_defect(ua, fa)
    db = ak.intertwining_defect(ub, fb)
    assert da <= 0.02          # O(omega)
    assert db > 0.1            # plateau
    # grid mismatch is rejected
    res = ak.propagate(spinhalf.hamiltonian(THETA, OMEGA0), 1 / omega,
                       np.linspace(0, WINDOW, 33), substeps=4)
    with pytest.raises(ValueError):
        ak.intertwining_defect(res, fa)


def test_w_deviation_constant_hamiltonian():
    H0 = np.diag([0.7, -0.4]).astype(complex)
    h = constant_hamiltonian(H0)
    grid = np.linspace(0, 1, 129)
    fr = ak.eigenframe(h, 37.0, grid)
    res = ak.propagate(h, 37.0, grid, substeps=2)
    assert ak.w_deviation(res, fr) <= 1e-8


def _intertwining_by_projectors(us, frame):
    out = np.zeros(frame.npoints)
    for j in range(frame.dim):
        P = frame.projector(j)
        d = np.linalg.norm(us @ P[0] - P @ us, axis=(1, 2))
        np.maximum(out, d, out=out)
    return out


def _dynamical_phase(frame):
    """Phase operator sum_n exp(-i tau int_0^s E_n) P_n(0); (N, n, n)."""
    phases = np.exp(-1j * frame.phase_integrals())
    v0 = frame.vectors[0]
    return np.einsum("ij,kj,lj->kil", v0, phases, v0.conj())


def _w_deviation_by_operators(us, frame):
    ua = ak.kato_operator(frame)
    ph = _dynamical_phase(frame)
    w = np.einsum("kji,klj,klm->kim", ph.conj(), ua.conj(), us)
    return float(np.max(np.linalg.norm(w - np.eye(frame.dim), axis=(1, 2))))


@settings(max_examples=24, deadline=None, database=None)
@given(dim=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       tau=st.floats(min_value=1.0, max_value=60.0))
def test_transition_matrix_diagnostics_match_projector_formulas(dim, seed,
                                                                 tau):
    h = random_smooth_hamiltonian(dim, np.random.default_rng(seed))
    grid = np.linspace(0.0, WINDOW, 257)
    fr = ak.eigenframe(h, tau, grid)
    res = ak.propagate(h, tau, grid, substeps=2)
    us = res.unitaries
    assert np.max(np.abs(ak.intertwining_series(res, fr)
                         - _intertwining_by_projectors(us, fr))) <= 1e-12
    assert abs(ak.w_deviation(res, fr)
               - _w_deviation_by_operators(us, fr)) <= 1e-12


def test_transition_matrix_is_the_evolution_in_the_adiabatic_basis():
    fr = spin_frame("b", omega=0.01, npts=1025)
    ub = spinhalf.dual_propagator(THETA, OMEGA0)
    M = ak.transition_matrix(ub, fr)
    us = ub.eval_batch(fr.grid, fr.tau)
    ref = np.einsum("kji,kjl,lm->kim", fr.vectors.conj(), us, fr.vectors[0])
    assert M.shape == (fr.npoints, 2, 2)
    assert np.max(np.abs(M - ref)) <= 1e-14
    assert ak.unitarity_defect(M) <= 1e-12
    # the dual carries up to sin^2(theta) of the population off its level,
    # whatever tau
    leak = np.max(np.abs(M[:, 1, 0]) ** 2)
    assert abs(leak - np.sin(THETA) ** 2) <= 1e-10


def test_scaling_slope_exact_cases():
    taus = [10.0, 100.0, 1000.0]
    fit = ak.scaling_slope(taus, [3.0 / t for t in taus])
    assert abs(fit.slope + 1.0) <= 1e-6
    assert fit.residual <= 1e-12
    flat = ak.scaling_slope(taus, [2.5, 2.5, 2.5])
    assert abs(flat.slope) <= 1e-12
    with pytest.raises(ScalingUndefinedError):
        ak.scaling_slope([1.0, 2.0], [1.0, 2.0])          # too few
    with pytest.raises(ScalingUndefinedError):
        ak.scaling_slope(taus, [1.0, -2.0, 3.0])          # non-positive


def test_classifier_table():
    th = Thresholds()
    assert ak.classify(1e-3, 1e-3, None, th) is Classification.ADIABATIC_CONSISTENT
    assert ak.classify(1e-3, 0.5, None, th) is Classification.WEAK_RESONANT_INCONSISTENT
    assert ak.classify(0.3, 0.5, 0.01, th) is Classification.STRONG_OSCILLATORY
    assert ak.classify(0.3, 0.5, -0.9, th) is Classification.NONRESONANT_AVERAGED
    with pytest.raises(ScalingUndefinedError):
        ak.classify(0.3, 0.5, None, th)
    # thresholds are configurable
    tight = Thresholds(eps_q=1e-4)
    assert ak.classify(1e-3, 0.01, 0.0, tight) is Classification.STRONG_OSCILLATORY


def test_classification_basis_invariance():
    # conjugating the path by a fixed unitary leaves every classifier input
    # unchanged (all quantities are basis-independent scalars)
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    path = driven_two_level(1.0, 0.3, 1.0)
    from adiakit.paths import HamiltonianPath
    rotated = HamiltonianPath(
        2, lambda sv, tau: np.einsum(
            "ji,kjl,lm->kim", q.conj(), path.eval_batch(sv, tau), q))
    grid = np.linspace(0, WINDOW, 8193)
    for tau in (20.0, 40.0):
        f1 = ak.eigenframe(path, tau, grid)
        f2 = ak.eigenframe(rotated, tau, grid)
        assert abs(ak.qac_max(f1) - ak.qac_max(f2)) <= 1e-9
        assert abs(f_norm_max(f1) - f_norm_max(f2)) <= 1e-8
        assert abs(ak.resonance_max_abs(f1, 1, 0)
                   - ak.resonance_max_abs(f2, 1, 0)) <= 1e-8


def test_premise_checks_slow_vs_dual():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    grid = np.linspace(0, WINDOW, 513)
    rep = ak.premise_checks(h, 100.0, grid)
    assert rep["p2_min_gap"] >= 0.99
    assert rep["p3_stable"] == 1.0
    assert rep["p3_dP_norm"] <= 1.0
    # dual system: the second projector derivative grows with tau (premise
    # proxy; the first derivative is exactly U^dag dP/ds U and stays bounded
    # because projectors commute with their own Hamiltonian)
    hb = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    grid_b = np.linspace(0, WINDOW, 16385)
    r100 = ak.premise_checks(hb, 100.0, grid_b)
    r1000 = ak.premise_checks(hb, 1000.0, grid_b)
    assert r1000["p3_d2P_norm"] > 5.0 * r100["p3_d2P_norm"]
    assert 0.5 <= r1000["p3_dP_norm"] / r100["p3_dP_norm"] <= 2.0


def test_negated_dual_integrand_double_rate():
    # the negated-dual integrand advances at twice the base dynamical rate
    omega = 0.01
    fc = spin_frame("c", omega=omega, npts=65537)
    g = -1j * ak.kernel_coefficients(fc)[:, 1, 0]
    tau = 1.0 / omega
    ref = (-0.5j * np.sin(THETA)
           * np.exp(1j * (2.0 * tau * OMEGA0 + np.cos(THETA)) * fc.grid))
    assert np.max(np.abs(g - ref)) <= 1e-6


def test_phase_rate_per_step_reports_refinement_need():
    fr = spin_frame("a", omega=0.01, npts=257)
    assert ak.phase_rate_per_step(fr) > 0.3
    fr2 = spin_frame("a", omega=0.01, npts=4097)
    assert ak.phase_rate_per_step(fr2) < 0.3
