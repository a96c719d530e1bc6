"""The public API and the report schema are pinned, so that a change to
either is deliberate."""

import ast
import inspect
import pathlib
import sys

import numpy as np
import scipy.linalg

import adiakit
from adiakit import models, scenario
from adiakit._backend import kernels


def test_public_api_is_pinned():
    assert sorted(adiakit.__all__) == [
        "AdiakitError", "Classification", "ConfigError", "EigenFrame",
        "EigenvalueCrossingError", "HamiltonianPath", "NonHermitianError",
        "NonSmoothUnitaryError", "ProjectorDiscontinuityError",
        "PropagationResult", "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
        "ScalingUndefinedError", "SlopeFit", "StepLimitError", "Thresholds",
        "TransformedHamiltonianPath", "UnitaryPath", "backend_name", "classify",
        "constant_hamiltonian", "couplings", "dual_of", "eigenframe", "f_norm",
        "generator_of", "hermiticity_defect", "identity_unitary",
        "intertwining_defect", "intertwining_series", "kato_operator",
        "kernel_coefficients", "negate", "phase_rate_per_step",
        "premise_checks", "projector_drift", "projector_drift_series",
        "propagate", "propagate_adaptive", "qac_max", "resonance_integral",
        "resonance_max_abs", "resonance_series", "scaling_slope", "transform",
        "transition_matrix", "unitarity_defect", "w_deviation",
    ]
    for name in adiakit.__all__:
        assert hasattr(adiakit, name), name


def test_the_package_imports_only_the_stdlib_and_numpy():
    # the package depends on numpy alone; scipy and hypothesis are test
    # extras, so a stray import of either would pass the tests and still
    # break a plain install. Relative imports are the package's own
    allowed = set(sys.stdlib_module_names) | {"numpy", "adiakit"}
    modules = sorted(pathlib.Path(adiakit.__file__).parent.glob("*.py"))
    stray, seen = [], set()
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                seen.add(name.split(".")[0])
                if name.split(".")[0] not in allowed:
                    stray.append(f"{module.name}: {name}")
    assert len(modules) >= 10 and "numpy" in seen
    assert stray == []


def test_signatures_are_pinned():
    # keywords that no caller set were removed; they come back on purpose
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(adiakit.eigenframe) == [
        "path", "tau", "grid", "initial_vectors", "transport"]
    assert names(adiakit.couplings) == ["frame", "method"]
    assert names(adiakit.premise_checks) == ["path", "tau", "grid"]
    assert names(adiakit.HamiltonianPath.derivative) == ["self", "s", "tau"]
    assert names(adiakit.HamiltonianPath.derivative_batch) == [
        "self", "s_values", "tau"]
    assert names(models.random_smooth_hamiltonian) == [
        "dim", "rng", "base_gap", "wobble"]
    assert names(adiakit.generator_of) == [
        "unitary", "tau", "h", "residual_threshold"]


def test_kernel_entry_points():
    # the names the benchmark harness wraps and records
    assert callable(kernels.eigh_batch) and callable(kernels.propagate_steps)
    assert adiakit.backend_name() == "python"


def test_kernels_take_any_dimension():
    dim = 33
    path = models.random_smooth_hamiltonian(dim, np.random.default_rng(0))
    grid = np.linspace(0.0, 0.1, 5)
    frame = adiakit.eigenframe(path, 1.0, grid)
    assert frame.dim == dim and frame.completeness_defect() <= 1e-12
    res = adiakit.propagate(path, 1.0, grid)
    assert res.max_unitarity_defect <= 1e-12
    M = path.eval(0.0)
    W, V = kernels.eigh_batch(M[None])
    assert np.linalg.norm((V[0] * W[0]) @ V[0].conj().T - M) \
        <= 1e-12 * np.linalg.norm(M)
    assert np.linalg.norm(scipy.linalg.expm(-1j * M) - kernels.exponential_map(
        M[None])(np.ones(1))[0]) <= 1e-12 * np.sqrt(dim)


def test_report_schema_is_pinned():
    # the report is an interface too: its keys change with the schema string
    path = models.random_smooth_hamiltonian(3, np.random.default_rng(3))
    s = np.linspace(0.0, 2.0 * np.pi, 33)
    H = path.eval_batch(s)
    report, series = scenario.run({
        "model": "custom_matrix_path", "system": "a",
        "parameters": {"grid": s.tolist(), "tau": 20.0,
                       "matrices": np.stack([H.real, H.imag], -1).tolist()},
        "grid": 256, "auto_refine": False,
        "diagnostics": list(scenario.ALL_DIAGNOSTICS)})
    assert scenario.REPORT_SCHEMA == report["schema"] == "adiakit-report/2"
    assert sorted(report) == [
        "classification", "classification_inputs", "config", "entries",
        "provenance", "scaling", "schema"]
    assert sorted(report["provenance"]) == [
        "backend", "eigensolver", "integrator", "norm", "package",
        "phase_per_step_target", "version"]
    entry, = report["entries"]
    assert sorted(entry) == [
        "f_norm_end", "f_norm_max", "frame_construction", "grid_capped",
        "grid_points", "intertwining_defect", "min_gap",
        "phase_rate_per_step", "premises", "projector_drift", "qac_max",
        "resonance_integrals", "tau", "transition_probability_max",
        "w_deviation", "window_real_time"]
    # one pair of each mirror, m > n
    assert set(entry["resonance_integrals"]) == {"1,0", "2,0", "2,1"}
    assert all(sorted(v) == ["end_abs", "end_im", "end_re", "max_abs"]
               for v in entry["resonance_integrals"].values())
    assert list(series[0]) == [
        "s", "resonance[1,0].re", "resonance[1,0].im", "resonance[2,0].re",
        "resonance[2,0].im", "resonance[2,1].re", "resonance[2,1].im",
        "f_norm", "projector_drift", "intertwining"]


def test_lab_frame_entries_add_their_substeps():
    # an entry whose M comes from ``propagate`` names the integrator's
    # substeps per grid interval; every other key is the custom entry's
    report, _ = scenario.run({
        "model": "spin_half", "system": "b", "propagator": "numeric",
        "parameters": {"theta": 0.7, "tau": 20.0}, "grid": 256,
        "diagnostics": list(scenario.ALL_DIAGNOSTICS)})
    entry, = report["entries"]
    assert sorted(entry) == [
        "f_norm_end", "f_norm_max", "frame_construction", "grid_capped",
        "grid_points", "integrator_substeps", "intertwining_defect",
        "min_gap", "phase_rate_per_step", "premises", "projector_drift",
        "qac_max", "resonance_integrals", "tau",
        "transition_probability_max", "w_deviation", "window_real_time"]
