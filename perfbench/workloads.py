"""The benchmark's four workloads, each built from a seed and checked against
a closed form or the paper's scaling law.

A workload is a pair of functions: ``build(seed, small)`` makes the inputs
(this is the set-up the benchmark times in a fresh process), and
``run(inputs, out_dir)`` performs one operation and returns an ``Outcome``.
``small=True`` selects reduced sizes that exist only for the harness's own
smoke tests; the benchmark always runs the full sizes.
"""

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import adiakit as ak
from adiakit import models, scenario, verify
# reference closed forms are bound by name, so a traced run does not count
# the harness's own checks as work of the spinhalf layer
from adiakit.spinhalf import (dual_resonance_integral, hamiltonian,
                              propagator_matrix, qac_value)

THETA = np.pi / 4
WINDOW = 2.0 * np.pi


@dataclass
class Outcome:
    """Result of one operation.

    ``max_err`` is the largest error against the workload's reference and
    ``tol_used`` is that error as a share of the workload's tolerance (the
    largest deviation/tolerance over the checks, for ``verify_paper``).
    ``report`` holds the bytes of ``report.json`` for scans, which must not
    change between operations of one run.
    """

    ok: bool
    max_err: float
    tol_used: float
    detail: str = ""
    report: Optional[bytes] = None


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], dict]
    run: Callable[[dict, str], Outcome]


def _write_and_read(report, series, out_dir) -> bytes:
    scenario.write_report(report, series, out_dir)
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        return fh.read()


# -- scan_dual ---------------------------------------------------------------

SCAN_DUAL_TOL = 1e-6


def _build_scan_dual(seed, small):
    omegas = [4e-2, 2e-2, 1e-2] if small else [1e-2, 1e-3, 1e-4]
    return {"config": {
        "model": "spin_half", "system": "b",
        "parameters": {"theta": THETA, "omega0": 1.0, "omega_list": omegas},
        "grid": 256 if small else 2048, "auto_refine": True,
        "propagator": "closed_form",
    }}


def _dual_f_norm_peak(theta):
    """sqrt(2) * max_s |(1/2)(1 - e^{i s cos}) tan| over one window."""
    half_phase = min(0.5 * WINDOW * abs(np.cos(theta)), 0.5 * np.pi)
    return np.sqrt(2.0) * abs(np.tan(theta)) * np.sin(half_phase)


def _run_scan_dual(inputs, out_dir):
    cfg = dict(inputs["config"], output={"directory": out_dir})
    report, series = scenario.scan(cfg)
    data = _write_and_read(report, series, out_dir)
    theta = cfg["parameters"]["theta"]
    end_ref = complex(dual_resonance_integral(theta, WINDOW))
    peak_ref = _dual_f_norm_peak(theta)
    err = 0.0
    for e in report["entries"]:
        qac_ref = qac_value(theta, 1.0, 1.0 / e["tau"])
        res = e["resonance_integrals"]["1,0"]
        err = max(err,
                  abs(e["qac_max"] - qac_ref) / qac_ref,
                  abs(complex(res["end_re"], res["end_im"]) - end_ref),
                  abs(e["f_norm_max"] - peak_ref))
    cls = report["classification"]
    used = err / SCAN_DUAL_TOL
    return Outcome(ok=cls == "weak_resonant_inconsistent" and used <= 1.0,
                   max_err=err, tol_used=used, detail=f"classification {cls}",
                   report=data)


# -- scan_custom_4level ------------------------------------------------------

# The 4-level path is one fixed draw of random_smooth_hamiltonian; the
# benchmark seed rotates it by a constant random unitary V (H -> V H V^dag).
# A rotation leaves the spectrum, the grid policy and every diagnostic
# unchanged, so cost and accuracy do not drift with the seed, while the
# matrices the program sees differ from seed to seed.
CUSTOM_INSTANCE = 7
CUSTOM_SLOPE_TOL = 0.15     # verify's tolerance on the same O(1/tau) law


def _random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _build_scan_custom(seed, small):
    dim, nodes = 4, 257
    path = models.random_smooth_hamiltonian(
        dim, np.random.default_rng(CUSTOM_INSTANCE), base_gap=1.0, wobble=0.3)
    s = np.linspace(0.0, WINDOW, nodes)
    v = _random_unitary(np.random.default_rng(seed), dim)
    mats = v @ path.eval_batch(s) @ v.conj().T
    mats = 0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2)))
    return {"config": {
        "model": "custom_matrix_path", "system": "c",
        "parameters": {
            "grid": s.tolist(),
            "matrices": np.stack([mats.real, mats.imag], axis=-1).tolist(),
            "tau_list": [10.0, 20.0, 40.0] if small else [20.0, 60.0, 200.0],
        },
        "grid": 256 if small else 2048, "auto_refine": True,
    }}


def _run_scan_custom(inputs, out_dir):
    cfg = dict(inputs["config"], output={"directory": out_dir})
    report, series = scenario.scan(cfg)
    data = _write_and_read(report, series, out_dir)
    slope = report["scaling"]["intertwining_defect"]["slope"]
    err = abs(slope + 1.0)
    cls = report["classification"]
    used = err / CUSTOM_SLOPE_TOL
    return Outcome(ok=cls == "adiabatic_consistent" and used <= 1.0,
                   max_err=err, tol_used=used,
                   detail=f"classification {cls}, defect slope {slope:.4f}",
                   report=data)


# -- propagate_spinhalf ------------------------------------------------------

PROPAGATE_TOL = 1e-7


def _build_propagate(seed, small):
    return {"path": hamiltonian(THETA, 1.0), "tau": 100.0,
            "adaptive_tol": 1e-5 if small else 1e-6,
            "grid": np.linspace(0.0, WINDOW, 1025 if small else 4097),
            "substeps": 10 if small else 50,
            "err_tol": 1e-4 if small else PROPAGATE_TOL}


def _propagator_error(res, tau):
    ref = propagator_matrix(THETA, 1.0, 1.0 / tau, res.grid)
    return float(np.max(np.linalg.norm(res.unitaries - ref, axis=(1, 2))))


def _run_propagate(inputs, out_dir):
    path, tau = inputs["path"], inputs["tau"]
    adaptive = ak.propagate_adaptive(path, tau, WINDOW, tol=inputs["adaptive_tol"])
    fixed = ak.propagate(path, tau, inputs["grid"], substeps=inputs["substeps"])
    ea, ef = _propagator_error(adaptive, tau), _propagator_error(fixed, tau)
    err = max(ea, ef)
    used = err / inputs["err_tol"]
    return Outcome(ok=used <= 1.0, max_err=err, tol_used=used,
                   detail=f"adaptive {ea:.2e} in {adaptive.steps_taken} steps, "
                          f"fixed {ef:.2e} in {fixed.steps_taken} steps")


# -- verify_paper ------------------------------------------------------------

# the cheapest checks, for the reduced smoke run only
SMALL_CHECKS = ("check_propagator_unitarity", "check_coupling_modulus",
                "check_phase_cancellation")


def _build_verify(seed, small):
    return {"small": small}


def _run_verify(inputs, out_dir):
    if inputs["small"]:
        results = [getattr(verify, name)() for name in SMALL_CHECKS]
    else:
        results = verify.run_all()
    failed = [r["name"] for r in results if not r["passed"]]
    err = max(r["deviation"] for r in results)
    used = max(r["deviation"] / r["tolerance"] for r in results)
    return Outcome(ok=not failed, max_err=err, tol_used=used,
                   detail=f"{len(results) - len(failed)}/{len(results)} checks "
                          f"passed" + (f", failed: {failed}" if failed else ""))


WORKLOADS = {w.name: w for w in (
    Workload("scan_dual",
             "paper's headline dual scan: eigensolves, transported frame and "
             "diagnostics on 8k-524k point grids, closed-form propagator, no "
             "integrator",
             _build_scan_dual, _run_scan_dual),
    Workload("scan_custom_4level",
             "numeric route: fixed-grid propagation at tau and 2*tau, discrete "
             "frame with Richardson refinement and 4x4 eigensolves",
             _build_scan_custom, _run_scan_custom),
    Workload("propagate_spinhalf",
             "integrator alone in two shapes: adaptive (many small batches) and "
             "fixed (long per-step loop), checked against the closed form",
             _build_propagate, _run_propagate),
    Workload("verify_paper",
             "the 16-check correctness contract: 1M-point eigenframe, fd "
             "couplings, driven two-level and random 3- and 4-level paths",
             _build_verify, _run_verify),
)}
