"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass line on success (run with ``pytest -s`` to see
them); a failed assertion is the fail line. Tolerances here are fixed by the
project contract, not tuned to the implementation.
"""

import time

import numpy as np
import pytest

import adiakit as ak
from adiakit import spinhalf
from adiakit.diagnostics import (Classification, Thresholds, classify,
                                 f_norm_max, resonance_series_refined,
                                 _pair_integrand)
from adiakit.models import driven_two_level, random_smooth_hamiltonian

WINDOW = 2 * np.pi
OMEGA0 = 1.0


def _report(num, text):
    print(f"[acceptance] criterion {num:2d} PASS: {text}")


def spin_system_frame(system, theta, tau, npts):
    h = spinhalf.hamiltonian(theta, OMEGA0)
    ua = spinhalf.exact_propagator(theta, OMEGA0)
    paths = {"a": h, "b": ak.dual_of(h, ua),
             "c": ak.negate(ak.dual_of(h, ua))}
    grid = np.linspace(0.0, WINDOW, npts)
    return ak.eigenframe(paths[system], tau, grid,
                         initial_vectors=spinhalf.initial_vectors(theta))


def test_criterion_01_closed_form_propagator():
    theta, omega = np.pi / 4, 0.1
    tau = 1.0 / omega
    start = time.perf_counter()
    res = ak.propagate_adaptive(spinhalf.hamiltonian(theta, OMEGA0), tau,
                                WINDOW, tol=1e-8)
    elapsed = time.perf_counter() - start
    ref = spinhalf.propagator_matrix(theta, OMEGA0, omega, res.grid)
    dev = float(np.max(np.linalg.norm(res.unitaries - ref, axis=(1, 2))))
    assert dev <= 1e-6, f"propagator deviation {dev:.3e} > 1e-6"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, f"|dU|={dev:.2e} in {elapsed:.2f}s ({res.steps_taken} steps)")


def test_criterion_02_coupling_identity():
    worst = 0.0
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        fr = spin_system_frame("a", theta, 100.0, 1001)
        C = ak.couplings(fr)
        ref = spinhalf.coupling_upper_lower(theta, fr.grid)
        worst = max(worst, float(np.max(np.abs(C[:, 1, 0] - ref))))
    assert worst <= 1e-6, f"coupling deviation {worst:.3e} > 1e-6"
    _report(2, f"max pointwise coupling deviation {worst:.2e} at 1000 points")


def test_criterion_03_inconsistency_reproduction():
    theta, omega = np.pi / 4, 0.01
    fa = spin_system_frame("a", theta, 1.0 / omega, 4097)
    fb = spin_system_frame("b", theta, 1.0 / omega, 4097)
    qa, qb = ak.qac_max(fa), ak.qac_max(fb)
    rel = abs(qa - qb) / qa
    assert rel <= 1e-8, f"qac mismatch {rel:.2e} > 1e-8"
    closed = spinhalf.qac_value(theta, OMEGA0, omega)
    assert abs(qa - closed) <= 1e-8 * closed

    taus = [2 * np.pi * 100, 2 * np.pi * 1000, 2 * np.pi * 10000]
    ua = spinhalf.exact_propagator(theta, OMEGA0)
    ub = spinhalf.dual_propagator(theta, OMEGA0)
    da, db = [], []
    for tau in taus:
        fra = spin_system_frame("a", theta, tau, 16385)
        frb = spin_system_frame("b", theta, tau, 16385)
        da.append(ak.intertwining_defect(ua, fra))
        db.append(ak.intertwining_defect(ub, frb))
    slope = ak.scaling_slope(taus, da).slope
    assert abs(slope + 1.0) <= 0.15, f"base-system slope {slope:.3f}"
    assert min(db) > 0.1, f"dual plateau {min(db):.3f} not above 0.1"
    _report(3, f"qac equal to {rel:.1e}; base slope {slope:.3f}; "
               f"dual plateau {min(db):.2f}")


def test_criterion_04_dual_resonance_integral():
    theta = np.pi / 4
    fb = spin_system_frame("b", theta, 100.0, 4097)
    ser = ak.resonance_series(fb, 1, 0)
    ref = spinhalf.dual_resonance_integral(theta, fb.grid)
    dev = float(np.max(np.abs(ser - ref)))
    assert dev <= 1e-6, f"dual resonance deviation {dev:.3e} > 1e-6"
    fb0 = spin_system_frame("b", 0.0, 100.0, 4097)
    dev0 = float(np.max(np.abs(ak.resonance_series(fb0, 1, 0))))
    assert dev0 <= 1e-10, f"theta=0 residual {dev0:.3e} > 1e-10"
    _report(4, f"deviation {dev:.2e} over [0, 2pi]; theta=0 residual {dev0:.1e}")


def _oscillatory_quad_oracle(theta, omega, s_end):
    """Adaptive quadrature of the twice-rotating integrand, per-period."""
    from scipy.integrate import quad

    rate = 2.0 * OMEGA0 / omega + np.cos(theta)
    period = 2 * np.pi / rate
    edges = np.arange(0.0, s_end, 50 * period).tolist() + [s_end]
    re = sum(quad(lambda x: 0.5 * np.sin(theta) * np.sin(rate * x),
                  a, b, limit=400)[0] for a, b in zip(edges[:-1], edges[1:]))
    im = sum(quad(lambda x: -0.5 * np.sin(theta) * np.cos(rate * x),
                  a, b, limit=400)[0] for a, b in zip(edges[:-1], edges[1:]))
    return re + 1j * im


def test_criterion_05_negated_dual_resonance_scaling():
    pytest.importorskip("scipy")
    theta = np.pi / 4
    omegas = [1e-2, 1e-3, 1e-4]
    npts = [32769, 131073, 524289]
    mags, worst = [], 0.0
    for omega, n in zip(omegas, npts):
        fc = spin_system_frame("c", theta, 1.0 / omega, n)
        _, ser = resonance_series_refined(fc, 1, 0)
        oracle = _oscillatory_quad_oracle(theta, omega, WINDOW)
        worst = max(worst, abs(ser[-1] - oracle))
        mags.append(abs(ser[-1]))
    assert worst <= 1e-8, f"oracle mismatch {worst:.3e} > 1e-8"
    slope = ak.scaling_slope(omegas, mags).slope
    assert abs(slope - 1.0) <= 0.05, f"slope {slope:.3f} not 1.0 +- 0.05"
    _report(5, f"slope {slope:.4f}; worst |value - oracle| {worst:.2e}")


def test_criterion_06_projector_drift():
    theta = np.pi / 3
    omegas = [1e-2, 1e-3, 1e-4]
    npts = [4097, 32769, 262145]
    drifts = [ak.projector_drift(spin_system_frame("b", theta, 1.0 / om, n))
              for om, n in zip(omegas, npts)]
    slope = ak.scaling_slope(omegas, drifts).slope
    assert abs(slope - 1.0) <= 0.1, f"dual drift slope {slope:.3f}"
    fa = spin_system_frame("a", theta, 100.0, 4097)
    ser = ak.projector_drift_series(fa)
    k = int(np.argmin(np.abs(fa.grid - np.pi)))
    dev = abs(ser[k] - np.sqrt(2.0) * np.sin(theta))
    assert dev <= 1e-6, f"drift at s=pi off by {dev:.3e}"
    _report(6, f"dual drift slope {slope:.3f}; base drift(pi)="
               f"{ser[k]:.7f} (sqrt2*sin = {np.sqrt(2)*np.sin(theta):.7f})")


def test_criterion_07_phase_cancellation():
    theta = np.pi / 4
    fb = spin_system_frame("b", theta, 100.0, 4097)
    g = _pair_integrand(fb, 1, 0)
    ref = spinhalf.coupling_upper_lower(theta, fb.grid)
    dev = float(np.max(np.abs(g - ref)))
    assert dev <= 1e-6, f"integrand deviation {dev:.3e} > 1e-6"
    _report(7, f"dual integrand equals base coupling to {dev:.2e} pointwise")


def test_criterion_08_kernel_structure():
    theta = np.pi / 4
    taus = [2 * np.pi * 100, 2 * np.pi * 1000, 2 * np.pi * 10000]
    npts_a = [16385, 131073, 1048577]
    fa = [f_norm_max(spin_system_frame("a", theta, tau, n))
          for tau, n in zip(taus, npts_a)]
    fb = [f_norm_max(spin_system_frame("b", theta, tau, 65537))
          for tau in taus]
    sa = ak.scaling_slope(taus, fa).slope
    sb = ak.scaling_slope(taus, fb).slope
    assert abs(sa + 1.0) <= 0.1, f"base kernel slope {sa:.3f}"
    assert abs(sb) <= 0.1, f"dual kernel slope {sb:.3e}"
    _report(8, f"kernel-integral slopes: base {sa:.3f}, dual {sb:.1e}")


def test_criterion_09_kato_intertwining_random_paths():
    rng = np.random.default_rng(90)
    worst, used = 0.0, 0
    while used < 8:
        dim = 2 if used % 2 == 0 else 4
        path = random_smooth_hamiltonian(dim, rng, base_gap=1.0, wobble=0.3)
        fr = ak.eigenframe(path, 50.0, np.linspace(0.0, WINDOW, 2049))
        if fr.min_gap < 0.2:
            continue
        used += 1
        worst = max(worst, ak.intertwining_defect(ak.kato_operator(fr), fr))
    assert worst <= 1e-8, f"geometric intertwining defect {worst:.3e} > 1e-8"
    _report(9, f"worst defect {worst:.2e} over {used} random 2x2/4x4 paths")


def test_criterion_10_classifier():
    th = Thresholds()

    def classify_path(path, taus, npts):
        qs, rs, fs = [], [], []
        for tau in taus:
            fr = ak.eigenframe(path, tau, np.linspace(0.0, WINDOW, npts))
            C = ak.couplings(fr)
            qs.append(ak.qac_max(fr, C))
            rs.append(max(ak.resonance_max_abs(fr, 1, 0, C),
                          ak.resonance_max_abs(fr, 0, 1, C)))
            fs.append(f_norm_max(fr, C))
        slope = None
        if min(fs) > 0:
            slope = ak.scaling_slope(taus, fs).slope
        return classify(qs[0], rs[0], slope, th)

    theta = np.pi / 4
    h = spinhalf.hamiltonian(theta, OMEGA0)
    ua = spinhalf.exact_propagator(theta, OMEGA0)
    spin_taus = [100.0, 200.0, 400.0]
    got = {
        "S_a": classify_path(h, spin_taus, 4097),
        "S_b": classify_path(ak.dual_of(h, ua), spin_taus, 65537),
        "resonant": classify_path(
            driven_two_level(1.0, 0.3, 1.0, scaled_frequency=False),
            [20.0, 40.0, 80.0], 16385),
        "off_resonant": classify_path(
            driven_two_level(1.0, 1.0, 8.0, scaled_frequency=True),
            [20.0, 40.0, 80.0], 16385),
    }
    want = {
        "S_a": Classification.ADIABATIC_CONSISTENT,
        "S_b": Classification.WEAK_RESONANT_INCONSISTENT,
        "resonant": Classification.STRONG_OSCILLATORY,
        "off_resonant": Classification.NONRESONANT_AVERAGED,
    }
    assert got == want, f"classes {got} != {want}"
    h0 = spinhalf.hamiltonian(0.0, OMEGA0)
    theta0 = classify_path(ak.dual_of(h0, spinhalf.exact_propagator(0.0, OMEGA0)),
                           spin_taus, 65537)
    assert theta0 is Classification.ADIABATIC_CONSISTENT
    _report(10, "four scenarios map to four classes; theta=0 dual consistent")


def test_criterion_11_property_suite_random_paths():
    rng = np.random.default_rng(11)
    worst_pair, worst_gauge, worst_comp = 0.0, 0.0, 0.0
    used = 0
    grid = np.linspace(0.0, WINDOW, 4097)
    while used < 50:
        path = random_smooth_hamiltonian(3, rng, base_gap=1.2, wobble=0.3)
        fr = ak.eigenframe(path, 30.0, grid)
        if fr.min_gap < 0.2:
            continue
        used += 1
        Chf = ak.couplings(fr, method="hf")
        Cfd = ak.couplings(fr, method="fd")
        off = ~np.eye(3, dtype=bool)
        worst_pair = max(worst_pair,
                         float(np.max(np.abs(Chf[:, off] - Cfd[:, off]))))
        worst_gauge = max(worst_gauge, fr.gauge_residual())
        worst_comp = max(worst_comp, fr.completeness_defect())
    assert worst_pair <= 1e-6, f"route disagreement {worst_pair:.3e} > 1e-6"
    assert worst_gauge <= 1e-6, f"gauge residual {worst_gauge:.3e} > 1e-6"
    assert worst_comp <= 1e-10, f"completeness defect {worst_comp:.3e} > 1e-10"
    _report(11, f"50 paths: routes agree to {worst_pair:.2e}, gauge residual "
                f"{worst_gauge:.2e}, completeness {worst_comp:.2e}")
