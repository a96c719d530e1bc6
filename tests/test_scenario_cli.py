"""Config validation, scenario runner, file outputs, CLI exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import adiakit.scenario as sc
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
    (lambda c: c.update(diagnostics=["nope"]), "diagnostic"),
    (lambda c: c["parameters"].pop("omega"), "exactly one"),
    (lambda c: c["parameters"].update(tau_list=[1.0]), "exactly one"),
    (lambda c: c.update(system="x", transform={"sign": -1},
                        propagator="closed_form"), "closed_form"),
    (lambda c: c.update(thresholds={"foo": 1}), "allowed keys"),
    (lambda c: c.update(thresholds={"slope_tol": 0.15}), "slope_tol"),
])
def test_invalid_configs_rejected(mutate, msg):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=msg):
        sc.normalize_config(cfg)


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
    assert e["frame_construction"] == "discrete"
    assert e["qac_max"] > 0


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


def test_numeric_cache_fills_each_key_once_under_threads(monkeypatch):
    # negated dual of a custom path: each tau propagates the base at tau
    # and at 2 tau; two worker threads must not propagate any of them twice
    calls = []
    original = sc.propagate

    def counted(path, tau, grid, **kwargs):
        calls.append(tau)
        return original(path, tau, grid, **kwargs)

    monkeypatch.setattr(sc, "propagate", counted)
    sgrid = np.linspace(0.0, 1.0, 9)
    mats = np.zeros((9, 2, 2, 2))
    mats[:, 0, 0, 0], mats[:, 1, 1, 0] = 1.0, -1.0
    mats[:, 0, 1, 0] = mats[:, 1, 0, 0] = 0.3 * np.sin(np.pi * sgrid)
    taus = [10.0, 30.0, 70.0]
    cfg = {
        "model": "custom_matrix_path",
        "parameters": {"grid": sgrid.tolist(), "matrices": mats.tolist(),
                       "tau_list": taus},
        "system": "c",
        "grid": 256,
        "auto_refine": False,
        "diagnostics": ["qac_max", "intertwining_defect", "w_deviation"],
    }
    report, _ = sc.scan(cfg, threads=2)
    assert sorted(calls) == sorted(taus + [2.0 * t for t in taus])
    single, _ = sc.scan(cfg, threads=1)
    assert json.dumps(report, sort_keys=True) == \
        json.dumps(single, sort_keys=True)


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
    assert header.startswith("s,") and "a.resonance[0,1].re" in header


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
