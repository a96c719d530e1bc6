"""Config validation, scenario runner, file outputs, CLI exit codes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import adiakit.scenario as sc
from adiakit import _kernels_py as kernels
from adiakit import cli, spinhalf
from adiakit.exceptions import ConfigError

THETA = np.pi / 4


def base_config(**over):
    cfg = {
        "model": "spin_half",
        "parameters": {"theta": THETA, "omega0": 1.0, "omega": 0.01},
        "system": "a",
        "grid": 1024,
    }
    cfg.update(over)
    return cfg


# ---------- config validation ----------

def test_normalize_fills_defaults():
    cfg = sc.normalize_config(base_config())
    assert cfg["schema"] == sc.SCHEMA
    assert cfg["parameters"]["tau_list"] == [100.0]
    assert cfg["diagnostics"] == list(sc.DEFAULT_DIAGNOSTICS)
    assert cfg["thresholds"] == {"eps_q": 0.05, "eps_r": 0.1,
                                 "decay_slope": -0.5}
    cfg = sc.normalize_config(base_config(thresholds={"eps_r": 0.2}))
    assert cfg["thresholds"]["eps_r"] == 0.2


@pytest.mark.parametrize("mutate,msg", [
    (lambda c: c.update(model="bogus"), "model"),
    (lambda c: c.update(system="q"), "system"),
    (lambda c: c["parameters"].update(theta=4.0), "theta"),
    (lambda c: c["parameters"].update(omega0=-1.0), "omega0"),
    (lambda c: c["parameters"].update(omega=-0.1), "positive"),
    (lambda c: c.update(grid=100), "grid"),
    (lambda c: c.update(grid="abc"), "grid must be an integer"),
    (lambda c: c.update(grid=1024.5), "grid must be an integer"),
    (lambda c: c.update(substeps=0), "substeps must be an integer"),
    (lambda c: c.update(substeps=2.7), "substeps must be an integer"),
    (lambda c: c.update(substeps=True), "substeps must be an integer"),
    (lambda c: c.update(diagnostics=["nope"]), "diagnostic"),
    (lambda c: c["parameters"].pop("omega"), "exactly one"),
    (lambda c: c["parameters"].update(tau_list=[1.0]), "exactly one"),
    (lambda c: c.update(system="x", transform={"sign": -1},
                        propagator="closed_form"), "closed_form"),
    (lambda c: c.update(thresholds={"foo": 1}), "allowed keys"),
    (lambda c: c.update(thresholds={"slope_tol": 0.15}), "slope_tol"),
    (lambda c: c["parameters"].update(theta="abc"), "theta must be a finite"),
    (lambda c: c.update(parameters={"theta": THETA, "tau": "abc"}),
     "tau must be a finite"),
    (lambda c: c.update(parameters={"theta": THETA, "tau": float("inf")}),
     "tau must be a finite"),
    (lambda c: c["parameters"].update(omega=1e-320), "tau must be a finite"),
    (lambda c: c["parameters"].update(omega0="1"), "omega0 must be a finite"),
    (lambda c: c.update(model="driven_two_level", parameters={
        "amplitude": "x", "drive_frequency": 1.0, "tau": 5.0}),
     "amplitude must be a finite"),
    (lambda c: c.update(system="x", transform={
        "sign": -1, "unitary": "rotating_z", "rate": "fast"}),
     "transform.rate must be a finite"),
    (lambda c: c.update(thresholds={"eps_q": "x"}),
     "thresholds.eps_q must be a finite"),
    (lambda c: c.update(diagnostics="qac_max"), "diagnostics must be a list"),
    (lambda c: c.update(output={"formats": "json"}),
     "output.formats must be a list"),
    (lambda c: c.update(auto_refine="no"), "auto_refine must be true or"),
    (lambda c: c.update(model="driven_two_level", parameters={
        "amplitude": 0.1, "drive_frequency": 1.0, "tau": 5.0,
        "envelope": "false"}), "envelope must be true or false"),
    (lambda c: c.update(model="driven_two_level", parameters={
        "amplitude": 0.1, "drive_frequency": 1.0, "tau": 5.0,
        "scaled_frequency": 1}), "scaled_frequency must be true or false"),
    (lambda c: c.update(model="custom_matrix_path", parameters={
        "grid": "abc", "matrices": [], "tau": 5.0}),
     "parameters.grid must hold numbers"),
    (lambda c: c.update(model="custom_matrix_path", parameters={
        "grid": [0.0, 1.0], "matrices": "x", "tau": 5.0}),
     "matrices must hold numbers"),
    (lambda c: c.update(model="custom_matrix_path", parameters={
        "grid": [0.0, 1.0], "matrices": [[[[1.0, 0.0]]], [[1.0, 0.0]]],
        "tau": 5.0}), "matrices must hold numbers"),
    (lambda c: c.update(model="custom_matrix_path", parameters={
        "grid": [0.0, 1.0], "matrices": [[[[1.0, 0.0]]], [[[2.0, 0.0]]]],
        "tau": 5.0}), "at least 2x2"),
    (lambda c: c.update(grid=10**400), "grid must be an integer"),
    (lambda c: c.update(substeps=10**400), "substeps must be an integer"),
])
def test_invalid_configs_rejected(mutate, msg):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=msg):
        sc.normalize_config(cfg)


def test_integral_grid_and_substeps_become_ints():
    cfg = sc.normalize_config(base_config(grid=1024.0, substeps=3.0))
    assert cfg["grid"] == 1024 and isinstance(cfg["grid"], int)
    assert cfg["substeps"] == 3 and isinstance(cfg["substeps"], int)


def test_normalize_is_idempotent():
    once = sc.normalize_config(base_config())
    twice = sc.normalize_config(json.loads(json.dumps(once)))
    assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)


def test_omega_list_converts_to_tau():
    cfg = base_config()
    cfg["parameters"] = {"theta": THETA, "omega0": 1.0,
                         "omega_list": [0.01, 0.1]}
    norm = sc.normalize_config(cfg)
    assert norm["parameters"]["tau_list"] == [10.0, 100.0]


# ---------- run/scan ----------

def test_run_spin_half_a():
    report, series = sc.run(base_config())
    e = report["entries"][0]
    assert abs(e["qac_max"] - spinhalf.qac_value(THETA, 1.0, 0.01)) <= 1e-10
    assert report["classification"] == "adiabatic_consistent"
    assert e["frame_construction"] == "discrete"
    assert e["intertwining_defect"] <= 0.02
    assert series[0]["s"][0] == 0.0


def test_run_spin_half_b_inconsistent():
    report, _ = sc.run(base_config(system="b"))
    e = report["entries"][0]
    assert report["classification"] == "weak_resonant_inconsistent"
    assert abs(e["qac_max"] - spinhalf.qac_value(THETA, 1.0, 0.01)) <= 1e-10
    assert e["intertwining_defect"] > 0.1
    assert e["frame_construction"] == "transported"


def test_run_theta_zero_dual_is_consistent():
    cfg = base_config(system="b")
    cfg["parameters"]["theta"] = 0.0
    report, _ = sc.run(cfg)
    assert report["classification"] == "adiabatic_consistent"


def test_transform_system_reproduces_dual():
    cfg = base_config(system="x",
                      transform={"sign": -1, "unitary": "base_propagator"})
    rx, _ = sc.run(cfg)
    rb, _ = sc.run(base_config(system="b"))
    ex, eb = rx["entries"][0], rb["entries"][0]
    assert abs(ex["qac_max"] - eb["qac_max"]) <= 1e-10
    assert np.isclose(ex["f_norm_max"], eb["f_norm_max"], atol=1e-8)
    assert rx["classification"] == rb["classification"]


def test_transform_identity_is_base():
    cfg = base_config(system="x",
                      transform={"sign": 1, "unitary": "identity"})
    rx, _ = sc.run(cfg)
    ra, _ = sc.run(base_config())
    assert abs(rx["entries"][0]["qac_max"] - ra["entries"][0]["qac_max"]) <= 1e-12


def test_scan_requires_three_taus():
    with pytest.raises(ConfigError, match="3 tau"):
        sc.scan(base_config())


@pytest.mark.parametrize("key,values", [("tau_list", [5.0, 5.0, 10.0]),
                                        ("omega_list", [0.1, 0.2, 0.1])])
def test_duplicate_taus_rejected(key, values):
    # scan's ">= 3 tau values" must count distinct taus
    cfg = base_config()
    cfg["parameters"] = {"theta": THETA, "omega0": 1.0, key: values}
    with pytest.raises(ConfigError, match="distinct"):
        sc.normalize_config(cfg)
    with pytest.raises(ConfigError, match="distinct"):
        sc.scan(cfg)


def test_provenance_names_the_eigensolver_route():
    report, _ = sc.run(base_config())
    assert report["provenance"]["eigensolver"] == "closed-form-2x2"


def test_scan_slopes():
    cfg = base_config()
    cfg["parameters"] = {"theta": THETA, "omega0": 1.0,
                         "tau_list": [100.0, 300.0, 1000.0]}
    report, _ = sc.scan(cfg)
    assert abs(report["scaling"]["intertwining_defect"]["slope"] + 1.0) <= 0.15
    assert abs(report["scaling"]["qac_max"]["slope"] + 1.0) <= 1e-6
    assert abs(report["scaling"]["w_deviation"]["slope"] + 1.0) <= 0.2


def test_custom_matrix_path_roundtrip():
    sgrid = np.linspace(0.0, 1.0, 9)
    mats = np.empty((9, 2, 2, 2))
    for k, s in enumerate(sgrid):
        H = np.array([[1.0 + 0.1 * s, 0.2 * s], [0.2 * s, -1.0]], dtype=complex)
        mats[k, :, :, 0] = H.real
        mats[k, :, :, 1] = H.imag
    cfg = {
        "model": "custom_matrix_path",
        "parameters": {"grid": sgrid.tolist(), "matrices": mats.tolist(),
                       "tau": 25.0},
        "system": "a",
        "grid": 256,
        "auto_refine": False,
    }
    report, _ = sc.run(cfg)
    e = report["entries"][0]
    assert e["min_gap"] >= 1.9
    assert report["classification"] == "adiabatic_consistent"


def test_custom_matrix_dual_numeric():
    sgrid = np.linspace(0.0, 1.0, 17)
    mats = np.empty((17, 2, 2, 2))
    for k, s in enumerate(sgrid):
        H = np.array([[1.0, 0.3 * np.sin(np.pi * s)],
                      [0.3 * np.sin(np.pi * s), -1.0]], dtype=complex)
        mats[k, :, :, 0] = H.real
        mats[k, :, :, 1] = H.imag
    cfg = {
        "model": "custom_matrix_path",
        "parameters": {"grid": sgrid.tolist(), "matrices": mats.tolist(),
                       "tau": 10.0},
        "system": "b",
        "grid": 512,
        "auto_refine": False,
        "substeps": 8,
        "diagnostics": ["qac_max", "resonance_integrals", "projector_drift"],
    }
    report, _ = sc.run(cfg)
    e = report["entries"][0]
    assert e["frame_construction"] == "transported"
    assert e["qac_max"] > 0
    assert report["provenance"]["integrator"] == "eigenbasis-strang"


def test_custom_matrix_dual_intertwining_via_base_algebra():
    # dual of a custom path: system unitaries come from the exact algebraic
    # relation to the numerically propagated base, so the intertwining
    # diagnostics work at any substeps setting
    sgrid = np.linspace(0.0, 1.0, 17)
    mats = np.empty((17, 2, 2, 2))
    for k, s in enumerate(sgrid):
        H = np.array([[1.0, 0.3 * np.sin(np.pi * s)],
                      [0.3 * np.sin(np.pi * s), -1.0]], dtype=complex)
        mats[k, :, :, 0] = H.real
        mats[k, :, :, 1] = H.imag
    cfg = {
        "model": "custom_matrix_path",
        "parameters": {"grid": sgrid.tolist(), "matrices": mats.tolist(),
                       "tau": 30.0},
        "system": "b",
        "grid": 512,
        "auto_refine": False,
        "substeps": 6,
        "diagnostics": ["qac_max", "intertwining_defect", "projector_drift"],
    }
    report, _ = sc.run(cfg)
    e = report["entries"][0]
    # slow custom base: the dual still shows the plateau-style defect equal
    # to the base projector drift scale
    assert e["intertwining_defect"] > 0.01
    cfg_a = dict(cfg); cfg_a["system"] = "a"
    report_a, _ = sc.run(cfg_a)
    drift_a = report_a["entries"][0]["projector_drift"]
    assert abs(e["intertwining_defect"] - drift_a) <= 0.05 * max(drift_a, 1e-3)


def test_transition_matrix_built_once_per_entry(monkeypatch):
    calls = []
    original = sc.transition_matrix

    def counted(U, frame):
        calls.append(frame.tau)
        return original(U, frame)

    monkeypatch.setattr(sc, "transition_matrix", counted)
    cfg = base_config(diagnostics=["intertwining_defect", "w_deviation"])
    cfg["parameters"] = {"theta": THETA, "omega0": 1.0,
                         "tau_list": [50.0, 100.0, 200.0]}
    report, _ = sc.run(cfg)
    assert calls == [50.0, 100.0, 200.0]
    for e in report["entries"]:
        assert {"intertwining_defect", "w_deviation",
                "transition_probability_max"} <= set(e)


def test_transition_probability_max_separates_base_and_dual():
    diags = ["qac_max", "intertwining_defect"]
    base, _ = sc.run(base_config(diagnostics=diags))
    dual, _ = sc.run(base_config(system="b", diagnostics=diags))
    # O(1/tau^2) on the base (sin^2(theta) / tau^2 to leading order), and
    # sin^2(theta) = 1/2 on the dual, whatever tau
    p_base = base["entries"][0]["transition_probability_max"]
    assert abs(p_base * 100.0**2 - 0.5) <= 0.05
    assert abs(dual["entries"][0]["transition_probability_max"] - 0.5) <= 1e-9
    only_qac, _ = sc.run(base_config(diagnostics=["qac_max"]))
    assert "transition_probability_max" not in only_qac["entries"][0]


def _two_level_custom_parameters(taus):
    """A gapped 2-level custom path through 9 nodes of [0, 1]."""
    sgrid = np.linspace(0.0, 1.0, 9)
    mats = np.zeros((9, 2, 2, 2))
    mats[:, 0, 0, 0], mats[:, 1, 1, 0] = 1.0, -1.0
    mats[:, 0, 1, 0] = mats[:, 1, 0, 0] = 0.3 * np.sin(np.pi * sgrid)
    return {"grid": sgrid.tolist(), "matrices": mats.tolist(),
            "tau_list": taus}


def test_numeric_cache_fills_each_key_once_under_threads(monkeypatch):
    # negated dual of a custom path: each tau chains Q at tau and at 2 tau
    # in the base's eigenbasis. The three taus share one grid, so its
    # refined points (256 intervals, two steps each) are factorized once
    # (2x2: their SU(2) components), in the grid's one pass before any
    # worker starts: the 257 frame points, then the 256 midpoints of its
    # one chunk. Nothing else is factorized
    rows, components = [], []
    eigh_batch, su2_components = kernels.eigh_batch, kernels.su2_components

    def counted_eigh(h):
        rows.append(len(h))
        return eigh_batch(h)

    def counted_components(h):
        components.append(len(h))
        return su2_components(h)

    monkeypatch.setattr(kernels, "eigh_batch", counted_eigh)
    monkeypatch.setattr(kernels, "su2_components", counted_components)
    cfg = {
        "model": "custom_matrix_path",
        "parameters": _two_level_custom_parameters([10.0, 30.0, 70.0]),
        "system": "c",
        "grid": 256,
        "auto_refine": False,
        "diagnostics": ["qac_max", "intertwining_defect", "w_deviation"],
    }
    single, _ = sc.scan(cfg, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, to expose races
    try:
        for threads in (2, 3):
            rows.clear()
            components.clear()
            report, _ = sc.scan(cfg, threads=threads)
            assert rows == components == [257, 256]
            assert json.dumps(report, sort_keys=True) == \
                json.dumps(single, sort_keys=True)
    finally:
        sys.setswitchinterval(interval)


def test_two_grids_run_alike_on_one_and_two_threads(monkeypatch):
    # the base and the negated dual of a custom path whose taus lie on two
    # grids (256 and 1024 intervals): the taus run grouped by grid, each
    # grid's refined points are factorized once, and the worker count
    # changes no byte
    rows = []
    eigh_batch = kernels.eigh_batch

    def counted_eigh(h):
        rows.append(len(h))
        return eigh_batch(h)

    monkeypatch.setattr(kernels, "eigh_batch", counted_eigh)
    for system in ("a", "c"):
        cfg = {
            "model": "custom_matrix_path",
            "parameters": _two_level_custom_parameters([10.0, 30.0, 40.0]),
            "system": system,
            "grid": 256,
            "diagnostics": list(sc.ALL_DIAGNOSTICS),
        }
        single, single_series = sc.run(cfg, threads=1)
        assert [e["grid_points"] for e in single["entries"]] == \
            [257, 1025, 1025]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads often, to expose races
        try:
            rows.clear()
            report, series = sc.run(cfg, threads=2)
        finally:
            sys.setswitchinterval(interval)
        # each grid's probe (33 points), then per grid its frame points
        # and the midpoints of its one chunk
        assert rows == [33, 33, 33, 257, 256, 1025, 1024], system
        assert json.dumps(report, sort_keys=True) == \
            json.dumps(single, sort_keys=True)
        for a, b in zip(series, single_series):
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)


def test_written_reports_match_on_one_and_two_threads(tmp_path):
    # the negated dual of a custom path on two grids, every diagnostic:
    # the grid's one pass runs before the workers, which share its data,
    # and report.json and every CSV are byte-identical
    cfg = {"model": "custom_matrix_path", "system": "c", "grid": 256,
           "parameters": _two_level_custom_parameters([10.0, 30.0, 40.0]),
           "diagnostics": list(sc.ALL_DIAGNOSTICS)}
    written = []
    for threads in (1, 2):
        report, series = sc.scan(cfg, threads=threads)
        assert [e["grid_points"] for e in report["entries"]] == \
            [257, 1025, 1025]
        out = tmp_path / str(threads)
        paths = sc.write_report(report, series, str(out))
        written.append({os.path.basename(p): open(p, "rb").read()
                        for p in paths})
    assert len(written[0]) == 5
    assert written[0] == written[1]


@pytest.mark.parametrize("system, extra", [
    ("b", {"propagator": "numeric"}),
    ("x", {"transform": {"sign": -1, "unitary": "base_propagator"}})])
def test_lab_frame_dual_resolves_its_rotation(system, extra):
    # the dual's integrands keep no phase, so its grid stays at 2,049
    # points, but -U^dag H U turns at tau * gap: the integrator's substeps
    # follow 2 tau * spread + 10 at 0.3 rad per substep. The closed form's
    # intertwining is 1; measured 0.99953 (0.0333 at the configured single
    # substep)
    cfg = dict(base_config(
        system=system, grid=2048, diagnostics=["intertwining_defect"],
        parameters={"theta": np.pi / 4, "omega0": 1.0, "tau": 1e4}),
        **extra)
    entry, = sc.run(cfg)[0]["entries"]
    assert entry["grid_points"] == 2049
    assert entry["integrator_substeps"] == 205
    assert abs(entry["intertwining_defect"] - 1.0) <= 1e-3


def test_closed_form_entries_name_no_substeps():
    entry, = sc.run(base_config(
        system="b", grid=256, diagnostics=["intertwining_defect"],
        parameters={"theta": np.pi / 4, "tau": 1e4}))[0]["entries"]
    assert "integrator_substeps" not in entry


def _numeric_route_peak(system="c", diagnostics=None):
    """The traced peak of a run of a 3-level custom ``system`` (the default
    diagnostics unless ``diagnostics``) whose taus lie on two grids (4,096
    and 16,384 intervals), in stacks of the larger grid's refined points:
    (2 * 16,384 + 1) 3x3 complex matrices."""
    import tracemalloc

    from adiakit.models import random_smooth_hamiltonian
    path = random_smooth_hamiltonian(3, np.random.default_rng(3),
                                     base_gap=1.0, wobble=0.3)
    s = np.linspace(0.0, 1.0, 33)
    mats = path.eval_batch(s)
    raw = {"model": "custom_matrix_path", "system": system, "grid": 256,
           "parameters": {"grid": s.tolist(), "tau_list": [80.0, 1000.0],
                          "matrices": np.stack([mats.real, mats.imag],
                                               -1).tolist()}}
    if diagnostics is not None:
        raw["diagnostics"] = list(diagnostics)
    cfg = sc.normalize_config(raw)
    bundle = sc.SystemBundle(cfg)
    intervals = [len(bundle.grid_for(t)) - 1 for t in (80.0, 1000.0)]
    assert intervals == [4096, 16384]
    stack = (2 * intervals[-1] + 1) * 3 * 3 * 16   # bytes, complex128
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sc.run(cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / stack


def test_numeric_route_peak_memory_is_bounded():
    # one grid's data is alive at a time, its refined vectors and overlaps
    # one chunk at a time, M and Q one record block at a time, and the
    # frame's vectors until the grid's pass ends: measured 2.14 stacks
    # (3.31 when the grid kept its refined overlaps and each entry formed
    # M and Q as whole stacks); the bound is within 10% of it
    assert _numeric_route_peak() <= 2.35


@pytest.mark.parametrize("system, bound", [("a", 2.15), ("b", 2.35)])
def test_numeric_route_peak_memory_with_every_diagnostic(system, bound):
    # as above, where the base's premises keep its vectors at the premise
    # points and the dual's M reads the frame's vectors in the pass:
    # measured 1.99 (a) and 2.16 (b) stacks, against 4.08 and 4.38 when the
    # grid kept its refined overlaps and M was one stack per entry
    assert _numeric_route_peak(system, sc.ALL_DIAGNOSTICS) <= bound


def test_numeric_route_entries_hold_block_sized_temporaries():
    # the dual's couplings read as pair columns, qac_max and the M and Q
    # reductions in blocks, and no frame vectors kept for the negated
    # dual: measured 3.58 stacks, set by the second grid's entry (4.76
    # when the entries held full-length temporaries)
    assert _numeric_route_peak() <= 3.9


def test_grid_refinement_probes_the_custom_grid_range():
    # a 2x2 path whose gap grows from 1 to 40 gets the same grid on [0, 2 pi]
    # and on [10, 10 + 2 pi]; a probe of [0, 2 pi] would see only the
    # clipped start of the second (gap ~1) and under-refine it
    mats = np.zeros((33, 2, 2, 2))
    mats[:, 0, 0, 0] = 0.5 * (1.0 + 39.0 * np.linspace(0.0, 1.0, 33))
    mats[:, 1, 1, 0] = -mats[:, 0, 0, 0]
    mats[:, 0, 1, 0] = mats[:, 1, 0, 0] = 0.1

    def config(start):
        sgrid = start + np.linspace(0.0, 2.0 * np.pi, 33)
        return {
            "model": "custom_matrix_path",
            "parameters": {"grid": sgrid.tolist(), "matrices": mats.tolist(),
                           "tau": 10.0},
            "system": "a",
            "grid": 256,
            "diagnostics": ["qac_max"],
        }

    at_zero, _ = sc.run(config(0.0))
    shifted, _ = sc.run(config(10.0))
    assert shifted["entries"][0]["grid_points"] == \
        at_zero["entries"][0]["grid_points"] == 65537
    for report in (at_zero, shifted):
        rate = report["entries"][0]["phase_rate_per_step"]
        assert rate <= sc.PHASE_PER_STEP_TARGET


def _scan_taus(cfg):
    cfg = sc.normalize_config(cfg)
    return sc.SystemBundle(cfg), cfg["parameters"]["tau_list"]


@pytest.mark.parametrize("system,points", [
    ("a", [8193, 131073, 524289]),
    ("b", [2049, 2049, 2049]),
    ("c", [8193, 131073, 524289]),
])
def test_grid_policy_pins_spin_half(system, points):
    # the dual's integrands keep no phase (E_n + f_n = 0), so its grid does
    # not grow with tau; the negated dual's keep 2E, the base's E
    bundle, taus = _scan_taus(base_config(
        system=system, grid=2048,
        parameters={"theta": THETA, "omega0": 1.0,
                    "omega_list": [1e-2, 1e-3, 1e-4]}))
    assert [len(bundle.grid_for(t)) for t in taus] == points
    assert not any(bundle.grid_policy(t)[1] for t in taus)


def test_one_grid_policy_probe_per_tau(monkeypatch):
    # the negated dual of a custom path reads its grid, its grid_capped
    # flag and its eigenbasis data from one probe per tau
    probes = []
    estimate = sc.SystemBundle._phase_rate_estimate

    def counted(bundle, tau):
        probes.append(tau)
        return estimate(bundle, tau)

    monkeypatch.setattr(sc.SystemBundle, "_phase_rate_estimate", counted)
    report, _ = sc.run({
        "model": "custom_matrix_path", "system": "c", "grid": 256,
        "parameters": _two_level_custom_parameters([10.0, 30.0, 70.0]),
        "diagnostics": ["qac_max", "intertwining_defect"]})
    assert sorted(probes) == [10.0, 30.0, 70.0]
    assert not any(e["grid_capped"] for e in report["entries"])


def test_grid_policy_pins_custom_4level():
    from adiakit.models import random_smooth_hamiltonian
    path = random_smooth_hamiltonian(4, np.random.default_rng(7),
                                     base_gap=1.0, wobble=0.3)
    s = np.linspace(0.0, 2.0 * np.pi, 257)
    mats = path.eval_batch(s)
    bundle, taus = _scan_taus({
        "model": "custom_matrix_path", "system": "c", "grid": 2048,
        "parameters": {
            "grid": s.tolist(),
            "matrices": np.stack([mats.real, mats.imag], axis=-1).tolist(),
            "tau_list": [20.0, 60.0, 200.0]},
    })
    assert [len(bundle.grid_for(t)) for t in taus] == [8193, 32769, 32769]


def test_phase_rate_per_step_reads_the_transported_phase():
    cfg = base_config(grid=2048, diagnostics=["qac_max"])
    dual, _ = sc.run(dict(cfg, system="b"))
    negated, _ = sc.run(dict(cfg, system="c"))
    assert dual["entries"][0]["phase_rate_per_step"] == 0.0
    assert 0.0 < negated["entries"][0]["phase_rate_per_step"] \
        <= sc.PHASE_PER_STEP_TARGET


def test_grid_cap_is_named_in_the_entry(monkeypatch):
    cfg = base_config(grid=256, diagnostics=["qac_max"])
    entry = sc.run(cfg)[0]["entries"][0]
    assert entry["grid_capped"] is False
    assert entry["grid_points"] == 16385
    monkeypatch.setattr(sc, "GRID_CAP", 1024)
    entry = sc.run(cfg)[0]["entries"][0]
    assert entry["grid_capped"] is True
    assert entry["grid_points"] == 1025


def test_capped_entries_leave_the_scan_unclassified(monkeypatch):
    # tau = 1 meets the phase-per-step target on 257 points, the larger
    # taus do not on GRID_CAP's 1025: the slopes are reported, the class
    # is not
    cfg = base_config(grid=256)
    cfg["parameters"] = {"theta": THETA, "omega0": 1.0,
                         "tau_list": [1.0, 100.0, 200.0]}
    report, _ = sc.scan(cfg)
    assert report["classification"] is not None
    monkeypatch.setattr(sc, "GRID_CAP", 1024)
    capped, _ = sc.scan(cfg)
    assert [e["grid_capped"] for e in capped["entries"]] == \
        [False, True, True]
    assert capped["classification"] is None
    assert sorted(capped["scaling"]) == sorted(report["scaling"])
    assert set(capped["classification_inputs"]) == \
        set(report["classification_inputs"])


def test_cli_names_the_capped_taus_of_an_unclassified_scan(
        tmp_path, monkeypatch, capsys):
    # in process, so the patched cap holds; the exit code stays 0
    cfg = base_config(grid=256)
    cfg["parameters"] = {"theta": THETA, "omega0": 1.0,
                         "tau_list": [1.0, 100.0, 200.0]}
    cfgp = tmp_path / "scan.json"
    cfgp.write_text(json.dumps(cfg))
    assert cli.main(["scan", str(cfgp), "--out", str(tmp_path / "o1")]) == 0
    assert "classification: nonresonant_averaged" in capsys.readouterr().out
    monkeypatch.setattr(sc, "GRID_CAP", 1024)
    assert cli.main(["scan", str(cfgp), "--out", str(tmp_path / "o2")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == \
        "classification: none; grid_capped at tau 100.0, 200.0"


def test_premises_diagnostic_included_on_request():
    cfg = base_config(diagnostics=["qac_max", "premises"])
    report, _ = sc.run(cfg)
    prem = report["entries"][0]["premises"]
    assert prem["p2_min_gap"] >= 0.99
    assert prem["p3_stable"] == 1.0
    assert "intertwining_defect" not in report["entries"][0]


def test_threads_give_identical_results():
    cfg = base_config()
    cfg["parameters"] = {"theta": THETA, "omega0": 1.0,
                         "tau_list": [50.0, 100.0, 200.0]}
    r1, _ = sc.run(cfg, threads=1)
    r3, _ = sc.run(cfg, threads=3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r3, sort_keys=True)


# ---------- files and CLI ----------

def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src")] + sys.path)
    return subprocess.run([sys.executable, "-m", "adiakit.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_run_writes_files(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config()))
    out = tmp_path / "out"
    proc = run_cli("run", str(cfgp), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == sc.REPORT_SCHEMA
    assert report["config"]["parameters"]["tau_list"] == [100.0]
    assert (out / "series_000.csv").exists()
    header = (out / "series_000.csv").read_text().splitlines()[1]
    assert header.startswith("s,") and '"a.resonance[1,0].re"' in header
    assert "a.resonance[0,1].re" not in header   # the mirror of (1, 0)


def test_series_csv_header_has_one_field_per_column(tmp_path):
    # pair labels hold a comma, so the header quotes them
    rng = np.random.default_rng(4)
    s = np.linspace(0.0, 1.0, 9)
    H = rng.standard_normal((9, 3, 3)) + np.diag([-2.0, 0.0, 2.0])
    H = H + np.swapaxes(H, 1, 2)
    report, series = sc.run({
        "model": "custom_matrix_path", "system": "b",
        "parameters": {"grid": s.tolist(), "tau": 5.0,
                       "matrices": np.stack([H, 0 * H], -1).tolist()},
        "grid": 256, "auto_refine": False})
    path, = [p for p in sc.write_report(report, series, str(tmp_path))
             if p.endswith("series_000.csv")]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[1]
    assert header == ["s"] + [f"b.{k}" for k in series[0] if k != "s"]
    assert "b.resonance[2,1].im" in header
    assert {len(row) for row in rows[2:]} == {len(header)}


def test_cli_reports_are_deterministic(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config()))
    p1 = run_cli("run", str(cfgp), "--out", str(tmp_path / "o1"))
    p2 = run_cli("run", str(cfgp), "--out", str(tmp_path / "o2"))
    assert p1.returncode == p2.returncode == 0
    assert ((tmp_path / "o1" / "report.json").read_bytes()
            == (tmp_path / "o2" / "report.json").read_bytes())


def test_cli_config_error_exit_code(tmp_path):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(json.dumps(base_config(model="bogus")))
    proc = run_cli("run", str(cfgp))
    assert proc.returncode == cli.EXIT_CONFIG
    assert "config error" in proc.stderr


@pytest.mark.parametrize("over", [{"substeps": 0}, {"grid": "abc"},
                                  {"substeps": 2.7}])
def test_cli_rejects_a_bad_grid_or_substeps(tmp_path, over):
    # these once ended in a ValueError traceback, or ran 2.7 substeps as 2
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(json.dumps(base_config(propagator="numeric", **over)))
    proc = run_cli("run", str(cfgp))
    assert proc.returncode == cli.EXIT_CONFIG
    assert "config error" in proc.stderr and "must be an integer" in proc.stderr


def test_series_csv_cells_are_float_reprs(tmp_path):
    rng = np.random.default_rng(3)
    n = 3 * sc.SERIES_MAX_ROWS + 5
    ser = {"s": np.linspace(0.0, 1.0, n),
           "x": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
           "y": np.arange(n)}
    path = sc._write_series_csv(str(tmp_path / "s.csv"), "a", {"tau": 2.5}, ser)
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[:2] == ["# tau=2.5", "s,a.x,a.y"]
    stride = 4
    expected = [",".join(repr(float(ser[k][i])) for k in ("s", "x", "y"))
                for i in range(0, n, stride)]
    assert lines[2:] == expected


def test_cli_missing_config_file():
    proc = run_cli("run", "/nonexistent/cfg.json")
    assert proc.returncode == cli.EXIT_CONFIG


def test_cli_numerical_error_exit_code(tmp_path):
    # eigenvalue crossing: premise violation -> exit 3
    sgrid = [0.0, 0.5, 1.0]
    mats = []
    for s in sgrid:
        H = np.diag([s - 0.5, 0.5 - s]).astype(complex)
        mats.append(np.stack([H.real, H.imag], axis=-1).tolist())
    cfg = {
        "model": "custom_matrix_path",
        "parameters": {"grid": sgrid, "matrices": mats, "tau": 10.0},
        "system": "a",
        "grid": 256,
        "auto_refine": False,
    }
    cfgp = tmp_path / "crossing.json"
    cfgp.write_text(json.dumps(cfg))
    proc = run_cli("run", str(cfgp))
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert "crossing" in proc.stderr


def test_cli_scan_exit_and_scaling_csv(tmp_path):
    cfg = base_config()
    cfg["parameters"] = {"theta": THETA, "omega0": 1.0,
                         "tau_list": [50.0, 100.0, 200.0]}
    cfgp = tmp_path / "scan.json"
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    proc = run_cli("scan", str(cfgp), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "scaling.csv").read_text().splitlines()
    assert lines[0].startswith("tau,")
    assert len(lines) == 4


def test_verify_paper_reports_a_failing_check(monkeypatch, capsys):
    from adiakit import verify

    def check_always_fails():
        return verify._result("always_fails", 1.0, 0.5)

    monkeypatch.setattr(verify, "ALL_CHECKS", [check_always_fails])
    assert cli.main(["verify-paper"]) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "FAIL  always_fails" in out and "0/1 checks passed" in out


def test_verify_check_result_is_json_serializable():
    # a direct call, without run_all, yields plain Python types
    from adiakit import verify

    res = verify.check_kernel_integral_scaling()
    assert type(res["passed"]) is bool
    assert json.loads(json.dumps(res)) == res


def test_cli_verify_paper_full_run():
    proc = run_cli("verify-paper", "--json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert len(payload["results"]) >= 16
    assert all(r["passed"] for r in payload["results"])


def test_cli_grid_override(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config()))
    out = tmp_path / "out"
    proc = run_cli("run", str(cfgp), "--out", str(out), "--grid", "512")
    assert proc.returncode == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["grid"] == 512
