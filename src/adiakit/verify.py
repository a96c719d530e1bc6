"""Built-in verification suite: closed-form identities of the rotating
spin-half model and the dual-system constructions, checked numerically.

Each check returns a dict with the measured deviation and its tolerance.
``run_all`` executes every check; the CLI renders the results as a table
(`adiakit verify-paper`). These are the same identities the acceptance test
suite pins down, packaged so a deployed installation can re-verify itself.

The spin-half H(s) does not depend on tau. A check that sweeps tau or omega
on one grid therefore builds the base frame once and re-binds it to each
tau, and builds the dual frames on it (``_spin_sweep``); the driven
two-level paths depend on tau and are built per tau. Nothing is kept
between checks or between calls of ``run_all``.
"""

from dataclasses import replace

import numpy as np

from . import spinhalf
from .diagnostics import (Classification, Thresholds, classify, f_norm_max,
                          intertwining_defect, projector_drift,
                          projector_drift_series, qac_max, resonance_series,
                          scaling_slope)
from .diagnostics import _kernel_summary, _pair_entry
from .exceptions import ScalingUndefinedError
from .gauge import (_transported_frame, couplings, eigenframe, kato_operator,
                    kernel_coefficients)
from .linalg import unitarity_defect
from .models import driven_two_level, random_smooth_hamiltonian
from .propagate import propagate_adaptive
from .transforms import dual_of, negate

WINDOW = 2.0 * np.pi


def _result(name, deviation, tolerance, detail="", ok=True):
    """One check's outcome; ``ok`` carries any side condition it has."""
    return {
        "name": name,
        "deviation": float(deviation),
        "tolerance": float(tolerance),
        "passed": bool(deviation <= tolerance and ok),
        "detail": detail,
    }


def _spin_sweep(theta, omega0, taus, npts, systems=("a",), pinned=True):
    """For each tau in turn, the spin-half frames of ``systems`` ("a" the
    base, "b" the dual, "c" the negated dual) on the window's ``npts``-point
    grid, keyed by system, as ``eigenframe`` builds them, with the phases
    of ``spinhalf.initial_vectors`` when ``pinned``. H(s) does not depend
    on tau, so the base frame is built once and re-bound to each tau, and
    the duals are built on it, both from one evaluation of their unitary
    U_tau per tau."""
    h = spinhalf.hamiltonian(theta, omega0)
    ua = spinhalf.exact_propagator(theta, omega0)
    duals = {"b": dual_of(h, ua), "c": negate(dual_of(h, ua))}
    iv = spinhalf.initial_vectors(theta) if pinned else None
    base = eigenframe(h, taus[0], np.linspace(0.0, WINDOW, npts),
                      initial_vectors=iv)
    for tau in taus:
        base = replace(base, tau=float(tau))
        u = ua.eval_batch(base.grid, tau) if set(systems) - {"a"} else None
        yield {sys_: base if sys_ == "a" else _transported_frame(
            duals[sys_], tau, base.grid, iv, base_frame=base, unitaries=u)
            for sys_ in systems}


def _spin_frames(theta, omega0, tau, npts, systems=("a",)):
    """``_spin_sweep`` at one tau; returns (frames, grid)."""
    frames = next(_spin_sweep(theta, omega0, [tau], npts, systems))
    return frames, frames[systems[0]].grid


def check_closed_form_propagator(tol=1e-6):
    """Adaptive numerical propagation matches the analytic propagator."""
    theta, omega0, omega = np.pi / 4, 1.0, 0.1
    tau = 1.0 / omega
    res = propagate_adaptive(spinhalf.hamiltonian(theta, omega0), tau,
                             WINDOW, 1e-8)
    ref = spinhalf.propagator_matrix(theta, omega0, omega, res.grid)
    dev = float(np.max(np.linalg.norm(res.unitaries - ref, axis=(1, 2))))
    return _result("closed_form_propagator", dev, tol,
                   f"{res.steps_taken} steps, unitarity defect "
                   f"{res.max_unitarity_defect:.1e}")


def check_propagator_unitarity(tol=1e-12):
    """Closed-form propagator is unitary on a 100-point sample."""
    theta, omega0, omega = np.pi / 4, 1.0, 0.1
    s = np.linspace(0.0, WINDOW, 100)
    U = spinhalf.propagator_matrix(theta, omega0, omega, s)
    return _result("propagator_unitarity", unitarity_defect(U), tol)


def check_coupling_closed_form(tol=1e-6):
    """Frame coupling reproduces -(i/2) sin(theta) e^{i s cos(theta)}."""
    dev = 0.0
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        frames, grid = _spin_frames(theta, 1.0, 100.0, 1001)
        C = couplings(frames["a"])
        dev = max(dev, float(np.max(np.abs(
            C[:, 1, 0] - spinhalf.coupling_upper_lower(theta, grid)))))
    return _result("coupling_closed_form", dev, tol,
                   "theta in {pi/6, pi/4, pi/3}, 1000 grid intervals")


def check_coupling_modulus(tol=1e-9):
    """|coupling| = sin(theta)/2, independent of s."""
    theta = np.pi / 3
    frames, grid = _spin_frames(theta, 1.0, 50.0, 1001)
    C = couplings(frames["a"])
    dev = float(np.max(np.abs(np.abs(C[:, 1, 0]) - np.sin(theta) / 2)))
    return _result("coupling_modulus_constant", dev, tol)


def check_dual_projector_element(tol=1e-10):
    """Dual projector off-diagonal matches its trig closed form."""
    theta, omega0, omega = np.pi / 4, 1.0, 0.01
    frames, grid = _spin_frames(theta, omega0, 1.0 / omega, 4097,
                                systems=("b",))
    P = frames["b"].projector(1)
    ref = spinhalf.dual_projector_offdiag(theta, omega0, omega, grid)
    return _result("dual_projector_element",
                   float(np.max(np.abs(P[:, 0, 1] - ref))), tol)


def check_dual_resonance_integral(tol=1e-6):
    """Dual-system resonance integral equals (1/2)(1-e^{is cos}) tan."""
    theta = np.pi / 4
    frames, grid = _spin_frames(theta, 1.0, 100.0, 4097, systems=("b",))
    ser = resonance_series(frames["b"], 1, 0)
    dev = float(np.max(np.abs(ser - spinhalf.dual_resonance_integral(theta, grid))))
    frames0, _ = _spin_frames(0.0, 1.0, 100.0, 1025, systems=("b",))
    dev0 = float(np.max(np.abs(resonance_series(frames0["b"], 1, 0))))
    return _result("dual_resonance_integral", dev, tol,
                   f"theta=0 residual {dev0:.1e} (tol 1e-10)",
                   ok=dev0 <= 1e-10)


def check_negated_dual_resonance(tol=1e-8):
    """Negated-dual resonance integral: O(omega) magnitude, slope 1."""
    theta, omega0 = np.pi / 4, 1.0
    dev = 0.0
    mags, omegas = [], [1e-2, 1e-3, 1e-4]
    sweep = _spin_sweep(theta, omega0, [1.0 / w for w in omegas], 2049,
                        systems=("c",))
    for omega, frames in zip(omegas, sweep):
        ser = resonance_series(frames["c"], 1, 0)
        ref = spinhalf.negated_dual_resonance_integral(theta, omega0, omega,
                                                       WINDOW)
        dev = max(dev, abs(ser[-1] - ref))
        mags.append(abs(ser[-1]))
    slope = scaling_slope(omegas, mags).slope
    return _result("negated_dual_resonance", dev, tol,
                   f"log-log slope vs omega {slope:.4f} (want 1.0 +- 0.05)",
                   ok=abs(slope - 1.0) <= 0.05)


def check_qac_dual_equality(tol=1e-8):
    """Dual system shares the base system's adiabatic-condition value."""
    theta, omega = np.pi / 4, 0.01
    frames, _ = _spin_frames(theta, 1.0, 1.0 / omega, 4097, systems=("a", "b"))
    qa = qac_max(frames["a"])
    qb = qac_max(frames["b"])
    return _result("qac_dual_equality", abs(qa - qb) / qa, tol,
                   f"qac={qa:.6e}, closed form {spinhalf.qac_value(theta, 1.0, omega):.6e}")


def check_phase_cancellation(tol=1e-6):
    """Dual-frame resonance integrand equals the base coupling pointwise."""
    theta = np.pi / 4
    frames, grid = _spin_frames(theta, 1.0, 100.0, 4097, systems=("b",))
    g = -1j * kernel_coefficients(frames["b"])[:, 1, 0]
    dev = float(np.max(np.abs(g - spinhalf.coupling_upper_lower(theta, grid))))
    return _result("phase_cancellation", dev, tol)


def check_double_rate_integrand(tol=1e-6):
    """Negated-dual integrand advances at twice the dynamical rate."""
    theta, omega0, omega = np.pi / 4, 1.0, 0.01
    tau = 1.0 / omega
    # the transported frame is exact on any grid: a pointwise comparison
    # needs no fine one
    frames, grid = _spin_frames(theta, omega0, tau, 4097, systems=("c",))
    g = -1j * kernel_coefficients(frames["c"])[:, 1, 0]
    ref = (-0.5j * np.sin(theta)
           * np.exp(1j * (2.0 * tau * omega0 + np.cos(theta)) * grid))
    return _result("double_rate_integrand", float(np.max(np.abs(g - ref))), tol)


def check_intertwining_scaling(slope_tol=0.15, plateau=0.1):
    """Defect slope -1 for base and negated dual; plateau for the dual."""
    theta, omega0 = np.pi / 4, 1.0
    taus = [2 * np.pi * 100, 2 * np.pi * 1000, 2 * np.pi * 10000]
    ua = spinhalf.exact_propagator(theta, omega0)
    ub = spinhalf.dual_propagator(theta, omega0)
    uc = spinhalf.negated_dual_propagator(theta, omega0)
    da, db, dc = [], [], []
    for frames in _spin_sweep(theta, omega0, taus, 16385,
                              systems=("a", "b", "c")):
        da.append(intertwining_defect(ua, frames["a"]))
        db.append(intertwining_defect(ub, frames["b"]))
        dc.append(intertwining_defect(uc, frames["c"]))
    sa = scaling_slope(taus, da).slope
    sc = scaling_slope(taus, dc).slope
    dev = max(abs(sa + 1.0), abs(sc + 1.0))
    return _result("intertwining_scaling", dev, slope_tol,
                   f"slopes a={sa:.3f}, c={sc:.3f}; dual plateau "
                   f"min={min(db):.3f} (want > {plateau})",
                   ok=min(db) > plateau)


def check_kernel_integral_scaling(slope_tol=0.1):
    """Accumulated kernel: decays ~1/tau for base, stays flat for dual."""
    theta, omega0 = np.pi / 4, 1.0
    taus = [2 * np.pi * 100, 2 * np.pi * 1000, 2 * np.pi * 10000]
    fa, fb = [], []
    for frames in _spin_sweep(theta, omega0, taus, 2049, systems=("a", "b")):
        fa.append(f_norm_max(frames["a"]))
        fb.append(f_norm_max(frames["b"]))
    sa = scaling_slope(taus, fa).slope
    sb = scaling_slope(taus, fb).slope
    dense = np.linspace(0.0, WINDOW, 20001)
    expected_b = np.sqrt(2.0) * float(np.max(np.abs(
        spinhalf.dual_resonance_integral(theta, dense))))
    dev = max(abs(sa + 1.0), abs(sb))
    return _result("kernel_integral_scaling", dev, slope_tol,
                   f"slopes a={sa:.3f}, b={sb:.2e}; dual magnitude "
                   f"{fb[0]:.6f} (closed form {expected_b:.6f})",
                   ok=abs(fb[0] - expected_b) <= 1e-6)


def check_projector_drift(tol=1e-6, slope_tol=0.1):
    """Dual drift is O(omega); base drift at s=pi equals sqrt(2) sin(theta)."""
    theta = np.pi / 3
    drifts, omegas = [], [1e-2, 1e-3, 1e-4]
    for frames in _spin_sweep(theta, 1.0, [1.0 / w for w in omegas], 4097,
                              systems=("a", "b")):
        drifts.append(projector_drift(frames["b"]))
    slope = scaling_slope(omegas, drifts).slope
    # the base's drift does not depend on tau: the sweep's frame serves
    ser = projector_drift_series(frames["a"])
    grid = frames["a"].grid
    k = int(np.argmin(np.abs(grid - np.pi)))
    dev = abs(ser[k] - np.sqrt(2.0) * np.sin(theta))
    return _result("projector_drift", dev, tol,
                   f"dual drift slope vs omega {slope:.3f} (want 1 +- {slope_tol})",
                   ok=abs(slope - 1.0) <= slope_tol)


def check_geometric_intertwining(tol=1e-8):
    """Geometric evolution built from any smooth frame intertwines projectors."""
    rng = np.random.default_rng(2024)
    dev = 0.0
    for dim in (2, 4):
        for _ in range(3):
            path = random_smooth_hamiltonian(dim, rng, base_gap=1.0, wobble=0.3)
            grid = np.linspace(0.0, WINDOW, 2049)
            fr = eigenframe(path, 50.0, grid)
            if fr.min_gap < 0.2:
                continue
            dev = max(dev, intertwining_defect(kato_operator(fr), fr))
    return _result("geometric_intertwining", dev, tol)


def check_coupling_route_agreement(tol=1e-6):
    """Hellmann-Feynman and finite-difference couplings agree."""
    rng = np.random.default_rng(11)
    dev = 0.0
    done = 0
    while done < 8:
        path = random_smooth_hamiltonian(3, rng, base_gap=1.2, wobble=0.3)
        grid = np.linspace(0.0, WINDOW, 2049)
        fr = eigenframe(path, 30.0, grid)
        if fr.min_gap < 0.2:
            continue
        done += 1
        Chf = couplings(fr, method="hf")
        Cfd = couplings(fr, method="fd")
        off = ~np.eye(3, dtype=bool)
        dev = max(dev, float(np.max(np.abs(Chf[:, off] - Cfd[:, off]))))
    return _result("coupling_route_agreement", dev, tol, "8 random 3-level paths")


def check_classifier_scenarios():
    """The four reference scenarios map onto the four classes."""
    th = Thresholds()
    taus = [20.0, 40.0, 80.0]
    outcomes = {}

    def _classify(taus, frames):
        qs, rs, fs = [], [], []
        for fr in frames:
            C = couplings(fr)
            qs.append(qac_max(fr, C))
            _, peaks, _, f_max = _kernel_summary(fr, C)
            rs.append(_pair_entry(peaks, 1, 0))
            fs.append(f_max)
        try:
            slope = scaling_slope(taus, fs).slope
        except ScalingUndefinedError:
            slope = None
        return classify(qs[0], rs[0], slope, th)

    def _classify_spin(theta, npts, system):
        frames = _spin_sweep(theta, 1.0, spin_taus, npts, (system,),
                             pinned=False)
        return _classify(spin_taus, (f[system] for f in frames))

    def _classify_driven(path):
        grid = np.linspace(0.0, WINDOW, 16385)
        return _classify(taus, (eigenframe(path, tau, grid) for tau in taus))

    spin_taus = [100.0, 200.0, 400.0]
    outcomes["base"] = _classify_spin(np.pi / 4, 4097, "a")
    outcomes["dual"] = _classify_spin(np.pi / 4, 2049, "b")
    outcomes["resonant"] = _classify_driven(
        driven_two_level(1.0, 0.3, 1.0, scaled_frequency=False))
    outcomes["off_resonant"] = _classify_driven(
        driven_two_level(1.0, 1.0, 8.0, scaled_frequency=True))
    outcomes["dual_theta0"] = _classify_spin(0.0, 2049, "b")

    want = {
        "base": Classification.ADIABATIC_CONSISTENT,
        "dual": Classification.WEAK_RESONANT_INCONSISTENT,
        "resonant": Classification.STRONG_OSCILLATORY,
        "off_resonant": Classification.NONRESONANT_AVERAGED,
        "dual_theta0": Classification.ADIABATIC_CONSISTENT,
    }
    wrong = {k: (outcomes[k].value, want[k].value)
             for k in want if outcomes[k] is not want[k]}
    res = _result("classifier_scenarios", float(len(wrong)), 0.5,
                  "; ".join(f"{k}={v.value}" for k, v in outcomes.items()))
    if wrong:
        res["detail"] += f" MISMATCHES: {wrong}"
    return res


ALL_CHECKS = [
    check_closed_form_propagator,
    check_propagator_unitarity,
    check_coupling_closed_form,
    check_coupling_modulus,
    check_dual_projector_element,
    check_dual_resonance_integral,
    check_negated_dual_resonance,
    check_qac_dual_equality,
    check_phase_cancellation,
    check_double_rate_integrand,
    check_intertwining_scaling,
    check_kernel_integral_scaling,
    check_projector_drift,
    check_geometric_intertwining,
    check_coupling_route_agreement,
    check_classifier_scenarios,
]


def run_all():
    """Run every identity check."""
    return [fn() for fn in ALL_CHECKS]
