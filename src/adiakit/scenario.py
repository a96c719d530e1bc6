"""Declarative scenario runner: config in, diagnostics report + files out.

A scenario names a model (spin_half, driven_two_level, custom_matrix_path),
one of the systems derived from it (a = base, b = dual, c = negated dual,
x = general unitary transform), a grid density, a tau list, and the set of
diagnostics to compute. ``run`` evaluates every requested diagnostic per tau;
``scan`` additionally fits log-log slopes against tau and classifies.

Grid policy: the configured density applies to one 2*pi window and is
refined in powers of four until the largest dynamical phase advance per step
is below 0.3 rad (capped); oscillatory integrals would otherwise alias.
"""

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import numpy as np

from . import __version__ as _version
from ._backend import backend_name, kernels
from . import spinhalf
from .diagnostics import (Thresholds, _f_norm_end_and_series,
                          _intertwining_of, _transition_probability_max,
                          _w_deviation_of, classify,
                          phase_rate_per_step, premise_checks,
                          projector_drift_series, qac_max, resonance_series,
                          scaling_slope, transition_matrix)
from .exceptions import ConfigError, ScalingUndefinedError
from .gauge import couplings, eigenframe
from .linalg import dagger, hermiticity_defect
from .models import driven_two_level
from .paths import (HamiltonianPath, UnitaryPath, constant_hamiltonian,
                    identity_unitary)
from .propagate import propagate
from .transforms import dual_of, negate, transform

SCHEMA = "adiakit-scenario/1"
REPORT_SCHEMA = "adiakit-report/1"

S_WINDOW = 2.0 * np.pi
PHASE_PER_STEP_TARGET = 0.3
GRID_CAP = 2**21
SERIES_MAX_ROWS = 4096

ALL_DIAGNOSTICS = ("qac_max", "resonance_integrals", "f_norm",
                   "projector_drift", "intertwining_defect", "w_deviation",
                   "premises")
DEFAULT_DIAGNOSTICS = ALL_DIAGNOSTICS[:-1]

MODELS = ("spin_half", "driven_two_level", "custom_matrix_path")
SYSTEMS = ("a", "b", "c", "x")


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def normalize_config(cfg: dict) -> dict:
    """Validate a raw config dict and fill defaults; raises ConfigError."""
    _require(isinstance(cfg, dict), "config must be a JSON object")
    out = dict(cfg)
    out.setdefault("schema", SCHEMA)
    _require(out["schema"] == SCHEMA, f"unsupported schema {out['schema']!r}")
    model = out.get("model")
    _require(model in MODELS, f"model must be one of {MODELS}")
    system = out.setdefault("system", "a")
    _require(system in SYSTEMS, f"system must be one of {SYSTEMS}")

    p = dict(out.get("parameters") or {})
    taus = _extract_taus(p, model)
    _require(len(taus) > 0, "at least one tau (or omega) is required")
    _require(all(t > 0 for t in taus), "every tau must be positive")
    p["tau_list"] = sorted(float(t) for t in taus)
    _require(len(set(p["tau_list"])) == len(taus), "tau values must be distinct")
    for key in ("omega", "omega_list", "tau"):
        p.pop(key, None)

    if model == "spin_half":
        theta = p.get("theta")
        _require(theta is not None, "spin_half needs parameters.theta")
        _require(0.0 <= theta <= np.pi, "theta must lie in [0, pi]")
        p.setdefault("omega0", 1.0)
        _require(p["omega0"] > 0, "omega0 must be positive")
    elif model == "driven_two_level":
        p.setdefault("omega0", 1.0)
        _require(p["omega0"] > 0, "omega0 must be positive")
        _require("amplitude" in p, "driven_two_level needs parameters.amplitude")
        _require("drive_frequency" in p,
                 "driven_two_level needs parameters.drive_frequency")
        p.setdefault("scaled_frequency", False)
        p.setdefault("envelope", False)
        _require(system == "a",
                 "driven_two_level supports only system 'a'")
    else:  # custom_matrix_path
        _require("grid" in p and "matrices" in p,
                 "custom_matrix_path needs parameters.grid and .matrices")
        sgrid = np.asarray(p["grid"], dtype=float)
        _require(sgrid.ndim == 1 and len(sgrid) >= 2,
                 "parameters.grid must be a 1-D list of at least 2 s values")
        _require(np.all(np.diff(sgrid) > 0),
                 "parameters.grid must be strictly ascending")
        mats = _parse_matrices(p["matrices"], len(sgrid))
        worst = hermiticity_defect(mats)
        _require(worst <= 1e-9 * max(1.0, float(np.max(np.abs(mats)))),
                 f"custom matrices are not Hermitian (defect {worst:.2e})")
        _require(system in ("a", "b", "c"),
                 "custom_matrix_path supports systems a, b, c")

    if system == "x":
        _require(model == "spin_half", "system 'x' needs the spin_half model")
        tr = dict(out.get("transform") or {})
        _require(tr.get("sign") in (1, -1), "transform.sign must be +1 or -1")
        tr.setdefault("unitary", "base_propagator")
        _require(tr["unitary"] in ("base_propagator", "rotating_z", "identity"),
                 "transform.unitary must be base_propagator, rotating_z or identity")
        if tr["unitary"] == "rotating_z":
            _require("rate" in tr, "rotating_z transform needs a rate")
        out["transform"] = tr

    grid = int(out.get("grid", 2048))
    _require(grid >= 256, "grid must be at least 256 points per window")
    out["grid"] = grid
    out.setdefault("auto_refine", True)
    out.setdefault("substeps", 1)
    out.setdefault("propagator", "auto")
    _require(out["propagator"] in ("auto", "closed_form", "numeric"),
             "propagator must be auto, closed_form or numeric")
    _require(out["propagator"] != "closed_form"
             or (model == "spin_half" and system in ("a", "b", "c")),
             "propagator closed_form exists only for spin_half systems a, b, c")

    diags = out.get("diagnostics") or list(DEFAULT_DIAGNOSTICS)
    for d in diags:
        _require(d in ALL_DIAGNOSTICS, f"unknown diagnostic {d!r}")
    out["diagnostics"] = list(diags)

    th = dict(out.get("thresholds") or {})
    defaults = dataclasses.asdict(Thresholds())
    unknown = sorted(set(th) - set(defaults))
    _require(not unknown, f"unknown thresholds {unknown}; "
                          f"allowed keys are {sorted(defaults)}")
    out["thresholds"] = {**defaults, **th}

    output = dict(out.get("output") or {})
    output.setdefault("directory", "adiakit-out")
    output.setdefault("formats", ["json", "csv"])
    for f in output["formats"]:
        _require(f in ("json", "csv"), f"unknown output format {f!r}")
    out["output"] = output
    out["parameters"] = p
    return out


def _extract_taus(p: dict, model: str) -> List[float]:
    given = [k for k in ("omega", "omega_list", "tau", "tau_list") if k in p]
    _require(len(given) == 1,
             "give exactly one of parameters.omega / omega_list / tau / tau_list")
    key = given[0]
    vals = p[key]
    if not isinstance(vals, (list, tuple)):
        vals = [vals]
    vals = [float(v) for v in vals]
    if key.startswith("omega"):
        _require(all(v > 0 for v in vals), "omega values must be positive")
        return [1.0 / v for v in vals]
    return vals


def _parse_matrices(raw, npoints: int) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    _require(arr.ndim == 4 and arr.shape[0] == npoints
             and arr.shape[1] == arr.shape[2] and arr.shape[3] == 2,
             "matrices must have shape (npoints, n, n, 2) with [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def custom_matrix_path(sgrid, matrices) -> HamiltonianPath:
    """Piecewise-linear Hermitian path through user-supplied node matrices."""
    sgrid = np.asarray(sgrid, dtype=float)
    mats = np.asarray(matrices, dtype=complex)
    dim = mats.shape[1]

    def _eval_batch(s, tau):
        s = np.clip(s, sgrid[0], sgrid[-1])
        idx = np.clip(np.searchsorted(sgrid, s, side="right") - 1,
                      0, len(sgrid) - 2)
        t = (s - sgrid[idx]) / (sgrid[idx + 1] - sgrid[idx])
        return (1.0 - t)[:, None, None] * mats[idx] + t[:, None, None] * mats[idx + 1]

    def _deriv_batch(s, tau):
        s = np.clip(s, sgrid[0], sgrid[-1])
        idx = np.clip(np.searchsorted(sgrid, s, side="right") - 1,
                      0, len(sgrid) - 2)
        return ((mats[idx + 1] - mats[idx])
                / (sgrid[idx + 1] - sgrid[idx])[:, None, None])

    return HamiltonianPath(dim, _eval_batch, derivative_fn=_deriv_batch,
                           name="custom_matrix_path")


class _RecordedUnitary(UnitaryPath):
    """UnitaryPath view of a PropagationResult (exact grid-point lookups)."""

    def __init__(self, result):
        self._result = result
        super().__init__(result.dim, self._eval_many,
                         name="numeric_propagator")

    def _indices(self, s_values):
        idx = np.searchsorted(self._result.grid, s_values)
        idx = np.clip(idx, 0, len(self._result.grid) - 1)
        left = np.clip(idx - 1, 0, None)
        pick = np.where(np.abs(self._result.grid[left] - s_values)
                        < np.abs(self._result.grid[idx] - s_values), left, idx)
        if np.max(np.abs(self._result.grid[pick] - s_values)) > 1e-9:
            raise ValueError("requested s values are not propagation grid points")
        return pick

    def _eval_many(self, s_values, tau):
        return self._result.unitaries[self._indices(s_values)]


class SystemBundle:
    """Paths and propagator sources for one configured scenario."""

    def __init__(self, config: dict):
        self.config = config
        model = config["model"]
        p = config["parameters"]
        self.window = S_WINDOW
        self.initial_vectors = None
        self.transport = "auto"
        self._numeric_cache: Dict[float, object] = {}

        if model == "spin_half":
            theta, omega0 = float(p["theta"]), float(p["omega0"])
            base = spinhalf.hamiltonian(theta, omega0)
            u_base = spinhalf.exact_propagator(theta, omega0)
            self.initial_vectors = spinhalf.initial_vectors(theta)
            self.closed_form = config["propagator"] in ("auto", "closed_form")
            system = config["system"]
            if system == "a":
                self.path = base
                self._u_closed = u_base
            elif system == "b":
                self.path = dual_of(base, u_base)
                self._u_closed = spinhalf.dual_propagator(theta, omega0)
            elif system == "c":
                self.path = negate(dual_of(base, u_base))
                self._u_closed = spinhalf.negated_dual_propagator(theta, omega0)
            else:
                tr = config["transform"]
                ux = self._build_ux(tr, base, u_base)
                self.path = transform(base, ux, tr["sign"])
                self._u_closed = None
                self.closed_form = False
            self.base = base
        elif model == "driven_two_level":
            self.path = driven_two_level(float(p["omega0"]), float(p["amplitude"]),
                                         float(p["drive_frequency"]),
                                         scaled_frequency=bool(p["scaled_frequency"]),
                                         envelope=bool(p["envelope"]))
            self.base = self.path
            self._u_closed = None
            self.closed_form = False
        else:
            sgrid = np.asarray(p["grid"], dtype=float)
            mats = _parse_matrices(p["matrices"], len(sgrid))
            base = custom_matrix_path(sgrid, mats)
            self.window = float(sgrid[-1] - sgrid[0])
            self.base = base
            self._u_closed = None
            self.closed_form = False
            system = config["system"]
            if system == "a":
                self.path = base
            else:
                self.path = None   # built per tau from the numeric propagator
                self.transport = "discrete"

    @staticmethod
    def _build_ux(tr: dict, base, u_base) -> UnitaryPath:
        kind = tr["unitary"]
        if kind == "base_propagator":
            return u_base
        if kind == "identity":
            return identity_unitary(base.dim)
        rate = float(tr["rate"])
        gen = constant_hamiltonian(np.diag([rate / 2.0, -rate / 2.0]),
                                   name="rotating_z_generator")

        def _u_batch(sv, tau):
            ph = np.exp(-0.5j * rate * tau * sv)
            out = np.zeros((len(sv), 2, 2), dtype=complex)
            out[:, 0, 0] = ph
            out[:, 1, 1] = ph.conj()
            return out

        return UnitaryPath(2, _u_batch, generator=gen, name="rotating_z")

    def path_for(self, tau: float) -> HamiltonianPath:
        if self.path is not None:
            return self.path
        u = _RecordedUnitary(self._propagate_base(tau))
        system = self.config["system"]
        dual = dual_of(self.base, u)
        return dual if system == "b" else negate(dual)

    def _propagate_base(self, tau, doubled: bool = False):
        key = (float(tau), doubled)
        if key not in self._numeric_cache:
            # two midpoint steps per substep and grid interval
            self._numeric_cache[key] = propagate(
                self.base, (2.0 if doubled else 1.0) * tau, self.grid_for(tau),
                substeps=2 * int(self.config["substeps"]))
        return self._numeric_cache[key]

    def grid_for(self, tau: float) -> np.ndarray:
        npts = self.config["grid"]
        if self.config["auto_refine"]:
            rate = 2.0 * tau * self._max_gap_estimate(tau) + 10.0
            while (self.window * rate / npts > PHASE_PER_STEP_TARGET
                   and npts < GRID_CAP):
                npts *= 4
            npts = min(npts, GRID_CAP)
        if self.config["model"] == "custom_matrix_path":
            p = self.config["parameters"]
            sgrid = np.asarray(p["grid"], dtype=float)
            lo, hi = sgrid[0], sgrid[-1]
        else:
            lo, hi = 0.0, self.window
        return np.linspace(lo, hi, npts + 1)

    def _max_gap_estimate(self, tau: float) -> float:
        probe = np.linspace(0.0, self.window, 33)
        path = self.base
        H = path.eval_batch(probe, tau)
        w, _ = kernels.eigh_batch(H)
        return float(np.max(w[:, -1] - w[:, 0]))

    def unitaries_for(self, tau: float, grid: np.ndarray):
        """Evolution operators of the configured system on the grid."""
        if self.closed_form and self._u_closed is not None:
            return self._u_closed.eval_batch(grid, tau)
        system = self.config["system"]
        if self.path is None and system in ("b", "c"):
            # dual systems evolve by exact algebra on the base propagator:
            # U_dual = U_base^dagger, and the negated dual by
            # U_base^dagger @ (solution at doubled coupling)
            u_base = _RecordedUnitary(self._propagate_base(tau))
            ub = dagger(u_base.eval_batch(grid, tau))
            if system == "b":
                return ub
            w = _RecordedUnitary(self._propagate_base(tau, doubled=True))
            return ub @ w.eval_batch(grid, tau)
        path = self.path_for(tau)
        res = propagate(path, tau, grid, substeps=int(self.config["substeps"]))
        return res.unitaries


def _entry_for_tau(bundle: SystemBundle, tau: float, config: dict) -> dict:
    grid = bundle.grid_for(tau)
    path = bundle.path_for(tau)
    frame = eigenframe(path, tau, grid,
                       initial_vectors=bundle.initial_vectors,
                       transport=bundle.transport)
    diags = config["diagnostics"]
    C = couplings(frame)
    entry: dict = {
        "tau": tau,
        "window_real_time": tau * (grid[-1] - grid[0]),
        "grid_points": int(len(grid)),
        "min_gap": frame.min_gap,
        "phase_rate_per_step": phase_rate_per_step(frame),
        "frame_construction": frame.construction,
    }
    series: Dict[str, np.ndarray] = {"s": frame.grid}
    if "qac_max" in diags:
        entry["qac_max"] = qac_max(frame, C)
        entry["qac_max_scaled"] = qac_max(frame, C, real_time=False)
    if "resonance_integrals" in diags:
        res = {}
        for m in range(frame.dim):
            for n in range(frame.dim):
                if m == n:
                    continue
                ser = resonance_series(frame, m, n, C)
                res[f"{m},{n}"] = {
                    "end_re": float(ser[-1].real),
                    "end_im": float(ser[-1].imag),
                    "end_abs": float(abs(ser[-1])),
                    "max_abs": float(np.max(np.abs(ser))),
                }
                series[f"resonance[{m},{n}].re"] = ser.real
                series[f"resonance[{m},{n}].im"] = ser.imag
        entry["resonance_integrals"] = res
    if "f_norm" in diags:
        entry["f_norm_end"], fser = _f_norm_end_and_series(frame, C)
        entry["f_norm_max"] = float(np.max(fser))
        series["f_norm"] = fser
    if "projector_drift" in diags:
        dser = projector_drift_series(frame)
        entry["projector_drift"] = float(np.max(dser))
        series["projector_drift"] = dser
    if "intertwining_defect" in diags or "w_deviation" in diags:
        M = transition_matrix(bundle.unitaries_for(tau, grid), frame)
        entry["transition_probability_max"] = _transition_probability_max(M)
        if "intertwining_defect" in diags:
            iser = _intertwining_of(M)
            entry["intertwining_defect"] = float(np.max(iser))
            series["intertwining"] = iser
        if "w_deviation" in diags:
            entry["w_deviation"] = _w_deviation_of(M, frame)
    if "premises" in diags:
        # the premise grid and its midpoints are frame grid points, where
        # a recorded propagator is known
        coarse = grid[::max(2, (len(grid) - 1) // config["grid"])]
        entry["premises"] = premise_checks(path, tau, coarse)
    return entry, series


_SCALING_KEYS = ("qac_max", "f_norm_max", "projector_drift",
                 "intertwining_defect", "w_deviation")


def _append_scaling(report: dict, thresholds: Thresholds):
    entries = report["entries"]
    taus = [e["tau"] for e in entries]
    samples = {key: [e.get(key) for e in entries] for key in _SCALING_KEYS}
    samples["resonance_max"] = [
        max(v["max_abs"] for v in e["resonance_integrals"].values())
        if "resonance_integrals" in e else None for e in entries]
    scaling = {}
    for key, vals in samples.items():
        if len(taus) < 2 or any(v is None for v in vals):
            continue
        try:
            fit = scaling_slope(taus, vals, min_points=2)
            scaling[key] = {"slope": fit.slope, "residual": fit.residual}
        except ScalingUndefinedError as exc:
            scaling[key] = {"undefined": str(exc)}
    report["scaling"] = scaling

    qac = entries[0].get("qac_max")
    rmax = samples["resonance_max"][0]
    f_slope = scaling.get("f_norm_max", {}).get("slope")
    report["classification_inputs"] = {
        "qac_max": qac, "max_resonance": rmax, "f_norm_slope": f_slope,
    }
    if qac is None or rmax is None:
        report["classification"] = None
        return
    try:
        report["classification"] = classify(qac, rmax, f_slope,
                                            thresholds).value
    except ScalingUndefinedError:
        report["classification"] = None


def _run_normalized(config: dict, threads: int):
    bundle = SystemBundle(config)
    taus = config["parameters"]["tau_list"]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda t: _entry_for_tau(bundle, t, config), taus))
    else:
        results = [_entry_for_tau(bundle, t, config) for t in taus]
    report = {
        "schema": REPORT_SCHEMA,
        "config": config,
        "provenance": {
            "package": "adiakit",
            "version": _version,
            "backend": backend_name(),
            "eigensolver": kernels.eigensolver_route(bundle.base.dim),
            "integrator": "midpoint-exponential",
            "norm": "frobenius",
            "phase_per_step_target": PHASE_PER_STEP_TARGET,
        },
        "entries": [r[0] for r in results],
    }
    _append_scaling(report, Thresholds(**config["thresholds"]))
    return report, [r[1] for r in results]


def run(config: dict, threads: int = 1):
    """Run the scenario at every configured tau; returns (report, series)."""
    return _run_normalized(normalize_config(config), threads)


def scan(config: dict, threads: int = 1):
    """Like run, but requires >= 3 tau values for meaningful slopes."""
    config = normalize_config(config)
    if len(config["parameters"]["tau_list"]) < 3:
        raise ConfigError("scan needs at least 3 tau values")
    return _run_normalized(config, threads)


def write_report(report: dict, series, out_dir: str) -> List[str]:
    """Write report.json + per-tau CSV series; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    formats = report["config"]["output"]["formats"]
    if "json" in formats:
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
        written.append(path)
    if "csv" in formats:
        system = report["config"]["system"]
        for k, (entry, ser) in enumerate(zip(report["entries"], series)):
            path = os.path.join(out_dir, f"series_{k:03d}.csv")
            written.append(_write_series_csv(path, system, entry, ser))
        if "scaling" in report and report["scaling"]:
            path = os.path.join(out_dir, "scaling.csv")
            written.append(_write_scaling_csv(path, report))
    return written


def _write_series_csv(path: str, system: str, entry: dict, ser: dict) -> str:
    names = [k for k in ser if k != "s"]
    stride = max(1, math.ceil(len(ser["s"]) / SERIES_MAX_ROWS))
    columns = [np.asarray(ser[k][::stride], dtype=float).tolist()
               for k in ["s"] + names]
    with open(path, "w") as fh:
        header = ",".join(["s"] + [f"{system}.{name}" for name in names])
        fh.write(f"# tau={entry['tau']!r}\n")
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n"
                      for row in zip(*columns))
    return path


def _write_scaling_csv(path: str, report: dict) -> str:
    entries = report["entries"]
    keys = [k for k in _SCALING_KEYS if all(k in e for e in entries)]
    with open(path, "w") as fh:
        fh.write(",".join(["tau"] + keys) + "\n")
        for e in entries:
            row = [repr(float(e["tau"]))] + [repr(float(e[k])) for k in keys]
            fh.write(",".join(row) + "\n")
    return path
