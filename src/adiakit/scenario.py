"""Declarative scenario runner: config in, diagnostics report + files out.

A scenario names a model (spin_half, driven_two_level, custom_matrix_path),
one of the systems derived from it (a = base, b = dual, c = negated dual,
x = general unitary transform), a grid density, a tau list, and the set of
diagnostics to compute. ``run`` evaluates every requested diagnostic per tau;
``scan`` additionally fits log-log slopes against tau and classifies.

Grid policy: the configured density applies to one window, [0, 2*pi] or the
span of a custom path's nodes, and is refined in powers of four until the
phase left in the frame's integrands advances by at most 0.3 rad per step,
estimated at 33 points of that window; oscillatory integrals would otherwise
alias. A transported frame's integrands keep the phase tau * int (E_n + f_n),
with f_n the rate the transport folds into its vectors (see
``diagnostics.phase_rate_per_step``): none for the dual, whose grid is the
configured density at every tau. A discrete frame refines on twice the
dynamical phase, tau * gap. Refinement stops at GRID_CAP intervals, and the
entry's ``grid_capped`` says when that left the target unmet. Where M comes
from the lab-frame integrator (``propagate``), its substeps per interval
resolve the discrete frame's rate, 2 tau * spread + 10, at the same 0.3 rad
per substep, since the path turns at that rate even where the frame's
integrands keep no phase; the entry records them (``integrator_substeps``).

Numeric route: a custom path has no closed form and ignores tau, so its
base (system a), dual (b) and negated dual (c) all read one set of data per
grid (``_EigenbasisGrid``). Each grid solves the base at its frame points
for the base's discrete frame and its couplings, then walks the grid
refined 2 * ``substeps`` times once, in chunks: each chunk solves its
refined points between the frame points, forms their overlaps, and chains
Q_c = V^dagger U_c V(0) in the base's eigenbasis (``propagate_eigenbasis``)
for every tau on the grid, at c = tau, and at 2 tau for the negated dual,
only where an entry value needs it (``_Evolution``). Each chunk of Q goes
straight into the values that read it: the base's M is Q_tau; a dual's
projector drift and the vectors its premises read follow from Q_tau, and
the negated dual's M from Q_2tau. The grids are those of a discrete frame
(2 tau * gap), which the chain's steps need.

Memory on that route: the taus run grouped by grid, and a grid's data is
freed after its last tau, before the next grid is built. Per grid, the
full-length stacks are the frame's couplings and, until the pass ends, its
vectors; the refined eigenvectors and overlaps, and the steps and records
of one coefficient, live one chunk at a time. Per entry, M and Q are
reduced as they stream; what is kept is the reported series, the kernel's
pair columns (the resonance series) while its diagnostics run, and the
vectors of the premise points, at most twice the configured density; a
dual's couplings are never formed whole (``_DualCouplings``).
"""

import csv
import dataclasses
import json
import math
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import numpy as np

from . import __version__ as _version
from ._backend import backend_name, kernels
from . import spinhalf
from .diagnostics import (Thresholds, _TransitionReads, _kernel_summary,
                          _off_diagonal_populations, _pair_entry,
                          _phase_spread, _premises, classify,
                          phase_rate_per_step, projector_drift_series,
                          qac_max, scaling_slope, transition_matrix)
from .exceptions import (ConfigError, NumericalCheckError,
                         ScalingUndefinedError)
from .gauge import (EigenFrame, _discrete_frame, _generator_rates,
                    _path_eigenpairs, _uses_transport, couplings, eigenframe)
from .linalg import _unitarity_defects, dagger, dagger_dot, hermiticity_defect
from .models import driven_two_level
from .paths import (HamiltonianPath, UnitaryPath, constant_hamiltonian,
                    identity_unitary)
from .propagate import (CHAIN_CHUNK, STEP_CAP, propagate,
                        propagate_eigenbasis)
from .transforms import dual_of, negate, transform

SCHEMA = "adiakit-scenario/1"
REPORT_SCHEMA = "adiakit-report/2"

S_WINDOW = 2.0 * np.pi
PHASE_PER_STEP_TARGET = 0.3
GRID_CAP = 2**21
SERIES_MAX_ROWS = 4096
# the base eigenvectors are orthonormal to rounding, and so their overlaps
# are unitary; a larger defect means the eigensolver failed
OVERLAP_UNITARITY_TOL = 1e-9

ALL_DIAGNOSTICS = ("qac_max", "resonance_integrals", "f_norm",
                   "projector_drift", "intertwining_defect", "w_deviation",
                   "premises")
DEFAULT_DIAGNOSTICS = ALL_DIAGNOSTICS[:-1]

MODELS = ("spin_half", "driven_two_level", "custom_matrix_path")
SYSTEMS = ("a", "b", "c", "x")


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _integer(value, name: str, low: int, high: int) -> int:
    """``value`` as an int, if it is a number in [``low``, ``high``] with no
    fractional part; raises ConfigError otherwise."""
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool)
             and low <= value <= high and float(value).is_integer(),
             f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float, if it is a finite real number and not a bool;
    raises ConfigError otherwise."""
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max,
             f"{name} must be a finite number, got {value!r}")
    return float(value)


def _boolean(value, name: str):
    _require(isinstance(value, bool), f"{name} must be true or false, "
                                      f"got {value!r}")


def _real_array(raw, name: str) -> np.ndarray:
    """``raw`` as a float array, if it is a number or a regular nesting of
    lists of numbers; raises ConfigError otherwise."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        arr = None
    _require(arr is not None and arr.dtype.kind in "iuf",
             f"{name} must hold numbers only")
    return arr.astype(float)


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
    taus = _extract_taus(p)
    _require(len(taus) > 0, "at least one tau (or omega) is required")
    _require(all(t > 0 for t in taus), "every tau must be positive")
    p["tau_list"] = sorted(taus)
    _require(len(set(p["tau_list"])) == len(taus), "tau values must be distinct")
    for key in ("omega", "omega_list", "tau"):
        p.pop(key, None)

    if model == "spin_half":
        _require("theta" in p, "spin_half needs parameters.theta")
        _require(0.0 <= _real(p["theta"], "theta") <= np.pi,
                 "theta must lie in [0, pi]")
        p.setdefault("omega0", 1.0)
        _require(_real(p["omega0"], "omega0") > 0, "omega0 must be positive")
    elif model == "driven_two_level":
        p.setdefault("omega0", 1.0)
        _require(_real(p["omega0"], "omega0") > 0, "omega0 must be positive")
        for key in ("amplitude", "drive_frequency"):
            _require(key in p, f"driven_two_level needs parameters.{key}")
            _real(p[key], key)
        for key in ("scaled_frequency", "envelope"):
            _boolean(p.setdefault(key, False), key)
        _require(system == "a",
                 "driven_two_level supports only system 'a'")
    else:  # custom_matrix_path
        _require("grid" in p and "matrices" in p,
                 "custom_matrix_path needs parameters.grid and .matrices")
        sgrid = _real_array(p["grid"], "parameters.grid")
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
            _real(tr["rate"], "transform.rate")
        out["transform"] = tr

    # points per window
    out["grid"] = _integer(out.get("grid", 2048), "grid", 256, GRID_CAP)
    _boolean(out.setdefault("auto_refine", True), "auto_refine")
    out["substeps"] = _integer(out.get("substeps", 1), "substeps", 1,
                               STEP_CAP)
    out.setdefault("propagator", "auto")
    _require(out["propagator"] in ("auto", "closed_form", "numeric"),
             "propagator must be auto, closed_form or numeric")
    _require(out["propagator"] != "closed_form"
             or (model == "spin_half" and system in ("a", "b", "c")),
             "propagator closed_form exists only for spin_half systems a, b, c")

    diags = out.get("diagnostics") or list(DEFAULT_DIAGNOSTICS)
    _require(isinstance(diags, (list, tuple)), "diagnostics must be a list")
    for d in diags:
        _require(d in ALL_DIAGNOSTICS, f"unknown diagnostic {d!r}")
    out["diagnostics"] = list(diags)

    th = dict(out.get("thresholds") or {})
    defaults = dataclasses.asdict(Thresholds())
    unknown = sorted(set(th) - set(defaults))
    _require(not unknown, f"unknown thresholds {unknown}; "
                          f"allowed keys are {sorted(defaults)}")
    for key, value in th.items():
        _real(value, f"thresholds.{key}")
    out["thresholds"] = {**defaults, **th}

    output = dict(out.get("output") or {})
    output.setdefault("directory", "adiakit-out")
    output.setdefault("formats", ["json", "csv"])
    _require(isinstance(output["formats"], (list, tuple)),
             "output.formats must be a list")
    for f in output["formats"]:
        _require(f in ("json", "csv"), f"unknown output format {f!r}")
    out["output"] = output
    out["parameters"] = p
    return out


def _extract_taus(p: dict) -> List[float]:
    given = [k for k in ("omega", "omega_list", "tau", "tau_list") if k in p]
    _require(len(given) == 1,
             "give exactly one of parameters.omega / omega_list / tau / tau_list")
    key = given[0]
    vals = p[key]
    if not isinstance(vals, (list, tuple)):
        vals = [vals]
    vals = [_real(v, key) for v in vals]
    if key.startswith("omega"):
        _require(all(v > 0 for v in vals), "omega values must be positive")
        vals = [1.0 / v for v in vals]
    return [_real(v, "tau") for v in vals]


def _parse_matrices(raw, npoints: int) -> np.ndarray:
    arr = _real_array(raw, "matrices")
    _require(arr.ndim == 4 and arr.shape[0] == npoints
             and arr.shape[1] == arr.shape[2] and arr.shape[3] == 2,
             "matrices must have shape (npoints, n, n, 2) with [re, im] pairs")
    _require(arr.shape[1] >= 2, "custom matrices must be at least 2x2: the "
                                "diagnostics compare two or more levels")
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


def _refined(grid: np.ndarray, refine: int) -> np.ndarray:
    """``grid`` with each interval split into ``refine`` equal steps; every
    ``refine``-th point is a point of ``grid``, bit for bit."""
    steps = np.arange(refine) / refine
    inner = grid[:-1, None] + np.diff(grid)[:, None] * steps
    return np.append(inner.ravel(), grid[-1])


def _premise_points(npoints: int, step: int) -> np.ndarray:
    """The points ``_premises(frame, step)`` reads of an ``npoints`` frame:
    every ``step // 2``-th point up to the last multiple of ``step``. Its
    premises are ``_premises`` of the frame on these points at step 2."""
    return np.arange(0, (npoints - 1) // step * step + 1, step // 2)


class _EigenbasisGrid:
    """The numeric route on one frame grid, for every tau it serves (a
    custom path ignores tau). The constructor evaluates the base on the
    grid refined ``refine`` times, block by block, for the Hermiticity
    check only, and solves it at the frame points (every ``refine``-th
    refined point) for its discrete frame (at tau = 1, int_0^s E cached)
    and hf couplings. ``evolutions(taus)`` then walks the refined grid
    once, in chunks of ``CHAIN_CHUNK`` steps: each chunk solves its other
    points, forms the overlaps V_{j+1}^dagger V_j of neighbouring refined
    points (the frame's vectors at the frame points, so Q comes out in the
    frame's gauge and level order), checks them for unitarity (the first
    largest defect raises after the pass), and chains in turn, each from
    its own carry, every Q_c the taus' ``_Evolution``s read, handing each
    chunk's records to its reader. The frame's vectors are freed after the
    pass.

    What it forms beyond that follows from the custom ``system`` (a, b or
    c) and its ``diags`` alone: the base's projector drift, the same at
    every tau (``drift``), and the base's frame on the premise points of
    ``premise_step`` (``premise_frame``), each None unless asked for."""

    def __init__(self, base: HamiltonianPath, grid: np.ndarray, refine: int,
                 system: str, diags, premise_step: int = 2):
        self.base, self.refine = base, refine
        self.frame = _discrete_frame(
            base, 1.0, grid, None, eigenpairs=_path_eigenpairs(
                base, 1.0, _refined(grid, refine), stride=refine))
        self.system, self.diags = system, diags
        self.couplings = couplings(self.frame)
        self.couplings.flags.writeable = False   # the base's, at every tau
        # fills the frame's cache of int_0^s E, which every frame re-bound
        # from it shares
        self.frame.phase_integrals()
        self.drift = (projector_drift_series(self.frame)
                      if system == "a" and "projector_drift" in diags
                      else None)
        self.v0 = self.frame.vectors[0].copy()
        self.premise_points = _premise_points(len(grid), premise_step)
        self.premise_frame = None
        if system == "a" and "premises" in diags:
            pts, fr = self.premise_points, self.frame
            self.premise_frame = EigenFrame(
                grid=fr.grid[pts], tau=1.0, values=fr.values[pts],
                vectors=fr.vectors[pts], min_gap=fr.min_gap)

    def evolutions(self, taus) -> list:
        """The ``_Evolution`` of each tau of ``taus``, after the one pass
        (see the class docstring) that gives every reader the rows of its
        Q_c (c None: V(s)^dagger V(0), the dual's M) on the frame grid,
        row 0 first, then each chunk's; once per grid."""
        evolutions = [_Evolution(self, tau) for tau in taus]
        reads = [read for evo in evolutions for read in evo.chains()]
        self._chain_pass(reads)
        self.frame = dataclasses.replace(self.frame, vectors=None)
        return evolutions

    def _chain_pass(self, reads):
        v, refine = self.frame.vectors, self.refine
        n = v.shape[-1]
        fine = _refined(self.frame.grid, refine)

        def inner(rows):
            return dagger_dot(v[rows], np.broadcast_to(v[0], v[rows].shape))

        carries = [np.eye(n, dtype=complex) for _ in reads]
        for (coef, reader), q0 in zip(reads, carries):
            reader(slice(0, 1), q0[None].copy() if coef is not None
                   else inner(slice(0, 1)))
        worst = []   # (largest unitarity defect, its index) per chunk
        steps = len(fine) - 1
        per_chunk = max(1, CHAIN_CHUNK // refine) * refine
        for lo in range(0, steps, per_chunk):
            hi = min(lo + per_chunk, steps)
            a, b = lo // refine, hi // refine
            w = np.empty((hi - lo + 1, n))
            u = np.empty((hi - lo + 1, n, n), dtype=complex)
            w[::refine], u[::refine] = self.frame.values[a:b + 1], v[a:b + 1]
            mid = np.arange(hi - lo + 1) % refine != 0
            w[mid], u[mid] = kernels.eigh_batch(
                self.base.eval_batch(fine[lo:hi + 1][mid], 1.0))
            overlaps = dagger_dot(u[1:], u[:-1])
            del u
            defects = _unitarity_defects(overlaps)
            k = int(np.argmax(defects))
            worst.append((defects[k], lo + k))
            rows = slice(a + 1, b + 1)
            for i, (coef, reader) in enumerate(reads):
                if coef is None:
                    reader(rows, inner(rows))
                    continue
                q = propagate_eigenbasis(w, overlaps, fine[lo:hi + 1], coef,
                                         refine, carries[i])
                carries[i] = q[-1].copy()
                reader(rows, q)
        # the first largest defect (or NaN) of all chunks, as one argmax
        defect, k = worst[int(np.argmax([d for d, _ in worst]))]
        if defect > OVERLAP_UNITARITY_TOL:
            raise NumericalCheckError(
                f"eigenvector overlaps are not unitary (defect "
                f"{defect:.2e} > {OVERLAP_UNITARITY_TOL:.0e})",
                (float(fine[k]), float(fine[k + 1])))


class _Evolution:
    """A custom system at one tau, read from its grid's ``_EigenbasisGrid``
    without lab-frame propagators. The base (system a) takes the grid's
    discrete frame re-bound to tau, its couplings, its drift, and
    M = Q_tau. The dual (system b) and the negated dual (system c) take the
    transported frame: its vectors are U^dagger V e^{-i phi}
    = V(0) Q_tau^dagger e^{-i phi}, with phi = tau int_0^s E, its values
    sign E (sign -1 for b, +1 for c), its int_0^s of them sign times the
    grid frame's cached int_0^s E, and its couplings the base's times
    e^{i(phi_m - phi_n)} (``_DualCouplings``).

    ``chains()`` lists what the grid's pass feeds it, only where a value
    reads it: a dual's Q_tau for its projector drift (``drift``) and for its
    vectors at the premise points (``premise_frame``); Q_tau of the base,
    V(s)^dagger V(0) of the dual and Q_2tau of the negated dual as
    M e^{-i phi}, which ``transitions`` reduces (``_TransitionReads``). The
    system is the grid's."""

    def __init__(self, data: _EigenbasisGrid, tau: float):
        self.data, self.system, self.tau = data, data.system, float(tau)
        fr, diags = data.frame, data.diags
        self.drift, self.premise_frame = data.drift, data.premise_frame
        if self.system == "a":
            self.frame = dataclasses.replace(fr, tau=self.tau, vectors=None)
        else:
            sign = -1 if self.system == "b" else 1
            ints = fr._value_integrals
            self.frame = EigenFrame(grid=fr.grid, tau=self.tau,
                                    values=sign * fr.values, vectors=None,
                                    min_gap=fr.min_gap,
                                    construction="transported",
                                    generator_rates=fr.values,
                                    _value_integrals=sign * ints,
                                    _rate_integrals=ints)
            if "projector_drift" in diags:
                self.drift = np.empty(fr.npoints)
            if "premises" in diags:
                pts = data.premise_points
                self.premise_frame = EigenFrame(
                    grid=fr.grid[pts], tau=self.tau,
                    values=self.frame.values[pts],
                    vectors=np.empty((len(pts),) + fr.vectors.shape[1:],
                                     dtype=complex), min_gap=fr.min_gap)
        self.transitions = None
        if _reads_evolution(diags):
            self.transitions = _TransitionReads(
                self.frame, "intertwining_defect" in diags,
                "w_deviation" in diags)

    def chains(self) -> list:
        """The (coefficient c, reader) pairs the grid's pass feeds, each
        reader taking (rows, Q_c on them), in order."""
        out = []
        if self.system != "a" and (self.drift is not None
                                   or self.premise_frame is not None):
            out.append((self.tau, self._read_q_tau))
        if self.transitions is not None:
            coef = {"a": self.tau, "b": None, "c": 2.0 * self.tau}
            out.append((coef[self.system], self._read_transitions))
        return out

    def _read_q_tau(self, rows: slice, q: np.ndarray):
        if self.drift is not None:
            self.drift[rows] = _transported_drift(q)
        if self.premise_frame is not None:
            pts = self.data.premise_points
            first, last = np.searchsorted(pts, [rows.start, rows.stop])
            at = pts[first:last]
            vecs = self.data.v0 @ dagger(q[at - rows.start])
            vecs *= self.phase_factors(at).conj()[:, None, :]
            self.premise_frame.vectors[first:last] = vecs

    def _read_transitions(self, rows: slice, q: np.ndarray):
        """M on ``rows`` from V(s)^dagger U_sys V(0) there (``q``, scaled in
        place by e^{i phi} for a dual): Q_tau for the base,
        V(s)^dagger V(0) for the dual (U_sys = U_tau^dagger) and Q_2tau
        for the negated dual (U_sys = U_tau^dagger U_2tau)."""
        if self.system != "a":
            np.multiply(self.phase_factors(rows)[:, :, None], q, out=q)
        self.transitions.read(rows, q)

    def couplings(self):
        """The frame's hf couplings: the grid's own (read-only) for the
        base, and a ``_DualCouplings`` for a dual."""
        if self.system == "a":
            return self.data.couplings
        return _DualCouplings(self.data.couplings, self.phase_factors)

    def phase_factors(self, rows=slice(None)) -> np.ndarray:
        """A dual's e^{i phi} on the grid points ``rows``, formed per call,
        so a block's are formed for that block alone, from the phases of
        the grid's frame at tau = 1."""
        return np.exp(1j * self.tau * self.data.frame.phase_integrals(rows))


class _DualCouplings:
    """A dual frame's hf couplings C_mn e_m conj(e_n), with C the base's
    and e = e^{i phi} (``phase_factors(rows)``), formed only where read:
    ``[rows, m, n]`` (a slice of grid points and index arrays of levels)
    gives those columns, as the entries of the (N, n, n) product
    C e[:, :, None] conj(e)[:, None, :] would hold them, bit for bit."""

    def __init__(self, base: np.ndarray, phase_factors):
        self.base, self.phase_factors = base, phase_factors

    def __getitem__(self, key) -> np.ndarray:
        rows, m, n = key
        e = self.phase_factors(rows)
        out = self.base[rows, m, n] * e[:, m]
        out *= e.conj()[:, n]
        return out


def _transported_drift(q: np.ndarray) -> np.ndarray:
    """A dual frame's projector drift from Q_tau: max_n sqrt(2 sum_{m != n}
    |Q_tau,mn|^2), since the frame's vectors at s and 0 overlap by
    e^{i phi_n} Q_tau,nn and the columns of Q_tau are unit vectors."""
    out = np.empty(len(q))
    for blk, p in _off_diagonal_populations(q):
        out[blk] = np.sqrt(2.0 * p.sum(axis=1).max(axis=1))
    return out


class SystemBundle:
    """Paths and propagator sources for one configured scenario."""

    def __init__(self, config: dict):
        self.config = config
        model = config["model"]
        p = config["parameters"]
        self.s_range = (0.0, S_WINDOW)   # the s interval every grid spans
        self.initial_vectors = None
        self._u_closed = None   # the closed-form propagator, where used

        if model == "spin_half":
            theta, omega0 = float(p["theta"]), float(p["omega0"])
            base = spinhalf.hamiltonian(theta, omega0)
            u_base = spinhalf.exact_propagator(theta, omega0)
            self.initial_vectors = spinhalf.initial_vectors(theta)
            system = config["system"]
            if system == "a":
                self.path, u_closed = base, u_base
            elif system == "b":
                self.path = dual_of(base, u_base)
                u_closed = spinhalf.dual_propagator(theta, omega0)
            elif system == "c":
                self.path = negate(dual_of(base, u_base))
                u_closed = spinhalf.negated_dual_propagator(theta, omega0)
            else:
                tr = config["transform"]
                ux = self._build_ux(tr, base, u_base)
                self.path = transform(base, ux, tr["sign"])
                u_closed = None
            if config["propagator"] != "numeric":
                self._u_closed = u_closed
            self.base = base
        elif model == "driven_two_level":
            self.path = driven_two_level(float(p["omega0"]), float(p["amplitude"]),
                                         float(p["drive_frequency"]),
                                         scaled_frequency=p["scaled_frequency"],
                                         envelope=p["envelope"])
            self.base = self.path
        else:
            sgrid = np.asarray(p["grid"], dtype=float)
            mats = _parse_matrices(p["matrices"], len(sgrid))
            base = custom_matrix_path(sgrid, mats)
            self.s_range = (float(sgrid[0]), float(sgrid[-1]))
            self.base = base
            # every system is read per tau through ``_Evolution``
            self.path = None

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

    def grid_policy(self, tau: float) -> tuple:
        """(tau's grid, whether GRID_CAP left it above the phase-per-step
        target), from one probe of ``_phase_rate_estimate``."""
        npts, capped = self.config["grid"], False
        lo, hi = self.s_range
        if self.config["auto_refine"]:
            rate = self._phase_rate_estimate(tau) + 10.0
            while ((hi - lo) * rate / npts > PHASE_PER_STEP_TARGET
                   and npts < GRID_CAP):
                npts *= 4
            npts = min(npts, GRID_CAP)
            capped = (hi - lo) * rate / npts > PHASE_PER_STEP_TARGET
        return np.linspace(lo, hi, npts + 1), capped

    def _phase_rate_estimate(self, tau: float) -> float:
        """Phase rate per unit s left in the frame's integrands, from 33
        points of the window: tau * max spread of E_n + f_n for a transported
        frame. A discrete frame takes 2 tau * gap: its couplings come from
        the vectors' own rotation, which the eigenvalues do not show, and
        the factor 2 keeps that rotation resolved."""
        if _uses_transport(self.path, "auto"):
            probe = np.linspace(*self.s_range, 33)
            w, v = kernels.eigh_batch(self.path.base.eval_batch(probe, tau))
            f = _generator_rates(self.path, tau, probe, w, v)
            return tau * _phase_spread(self.path.sign * w, f)
        return self._dynamical_rate(tau)

    def _dynamical_rate(self, tau: float) -> float:
        """2 tau times the base's largest level spread at 33 points of the
        window: the rate a discrete frame's grid resolves. A transformed
        path sign U^dagger H U has the base's spread."""
        probe = np.linspace(*self.s_range, 33)
        w, _ = kernels.eigh_batch(self.base.eval_batch(probe, tau))
        return 2.0 * tau * _phase_spread(w)

    def integrator_substeps(self, tau: float, grid: np.ndarray):
        """Midpoint substeps per grid interval of ``unitaries_for``'s
        ``propagate`` (None where it has no such run): the configured
        ``substeps``, raised until one substep advances the phase of
        ``_dynamical_rate`` + 10 by at most PHASE_PER_STEP_TARGET. The lab
        frame turns at that rate even where the frame's integrands keep no
        phase (the dual), whose grid does not resolve it."""
        if self.path is None or self._u_closed is not None:
            return None
        rate = self._dynamical_rate(tau) + 10.0
        ds = float(np.max(np.diff(grid)))
        return max(self.config["substeps"],
                   math.ceil(rate * ds / PHASE_PER_STEP_TARGET))

    def grid_for(self, tau: float) -> np.ndarray:
        return self.grid_policy(tau)[0]

    def unitaries_for(self, tau: float, grid: np.ndarray, substeps=None):
        """Evolution operators of the configured path system on the grid,
        ``propagate``d with ``substeps`` (``integrator_substeps`` when
        None) where there is no closed form. A custom system (a, b or c)
        has none: its entries read the transition matrix from Q
        (``_Evolution``)."""
        if self.path is None:
            raise ValueError("a custom system has no lab-frame evolution "
                             "operators; its entries read M from Q")
        if self._u_closed is not None:
            return self._u_closed.eval_batch(grid, tau)
        if substeps is None:
            substeps = self.integrator_substeps(tau, grid)
        res = propagate(self.path, tau, grid, substeps=substeps)
        return res.unitaries


def _entry_for_tau(bundle: SystemBundle, tau: float, grid: np.ndarray,
                   capped: bool, evo) -> tuple:
    """(entry, series) of one tau on its ``grid`` (``grid_policy``); ``evo``
    is the tau's ``_Evolution`` for a custom system, whose grid's pass has
    run, None otherwise."""
    diags = bundle.config["diagnostics"]
    if evo is not None:
        frame, C = evo.frame, evo.couplings()
    else:
        frame = eigenframe(bundle.path, tau, grid,
                           initial_vectors=bundle.initial_vectors)
        C = couplings(frame)
    entry: dict = {
        "tau": tau,
        "window_real_time": tau * (grid[-1] - grid[0]),
        "grid_points": int(len(grid)),
        "grid_capped": capped,
        "min_gap": frame.min_gap,
        "phase_rate_per_step": phase_rate_per_step(frame),
        "frame_construction": frame.construction,
    }
    series: Dict[str, np.ndarray] = {"s": frame.grid}
    if "qac_max" in diags:
        entry["qac_max"] = qac_max(frame, C)
    if "resonance_integrals" in diags or "f_norm" in diags:
        _kernel_entries(frame, C, diags, entry, series)
    del C   # freed before the evolution operators are formed
    if "projector_drift" in diags:
        dser = projector_drift_series(frame) if evo is None else evo.drift
        entry["projector_drift"] = float(np.max(dser))
        series["projector_drift"] = dser
    if _reads_evolution(diags):
        if evo is None:
            substeps = bundle.integrator_substeps(tau, grid)
            if substeps is not None:
                entry["integrator_substeps"] = substeps
            U = bundle.unitaries_for(tau, grid, substeps)
            reads = _TransitionReads(
                frame, "intertwining_defect" in diags, "w_deviation" in diags
            ).read_stack(transition_matrix(U, frame))
            del U
        else:
            reads = evo.transitions
        entry["transition_probability_max"] = float(
            np.max(reads.probabilities))
        if "intertwining_defect" in diags:
            entry["intertwining_defect"] = float(np.max(reads.intertwining))
            series["intertwining"] = reads.intertwining
        if "w_deviation" in diags:
            entry["w_deviation"] = float(np.max(reads.deviations))
    if "premises" in diags:
        entry["premises"] = (
            _premises(frame, _premise_step(grid, bundle.config))
            if evo is None else _premises(evo.premise_frame, 2))
    return entry, series


def _premise_step(grid: np.ndarray, config: dict) -> int:
    """The premises' coarse stride on ``grid``: the configured density (a
    stride of 2 or a power of 4), whose midpoints are the fine points."""
    return max(2, (len(grid) - 1) // config["grid"])


def _reads_evolution(diags) -> bool:
    """Whether ``diags`` read the transition matrix M."""
    return "intertwining_defect" in diags or "w_deviation" in diags


def _kernel_entries(frame: EigenFrame, C: np.ndarray, diags, entry: dict,
                    series: dict):
    """The resonance integrals and the kernel norm of ``diags`` into
    ``entry`` and ``series``, from one pass over the frame's kernel K:
    its pair columns, scaled by -i in place, are the resonance series, and
    it is freed on return when none is asked for."""
    K, peaks, fser, fmax = _kernel_summary(frame, C)
    if "resonance_integrals" in diags:
        K *= -1j   # the resonance series -i K_mn, whose columns are kept
        # one pair of each mirror: the integral of (n, m) is -conj of (m, n)
        res = {}
        for m in range(frame.dim):
            for n in range(m):
                ser = _pair_entry(K, m, n)
                res[f"{m},{n}"] = {
                    "end_re": float(ser[-1].real),
                    "end_im": float(ser[-1].imag),
                    "end_abs": float(abs(ser[-1])),
                    "max_abs": float(_pair_entry(peaks, m, n)),
                }
                series[f"resonance[{m},{n}].re"] = ser.real
                series[f"resonance[{m},{n}].im"] = ser.imag
        entry["resonance_integrals"] = res
    if "f_norm" in diags:
        entry["f_norm_end"], entry["f_norm_max"] = float(fser[-1]), fmax
        series["f_norm"] = fser


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
    # a capped entry's grid missed the phase-per-step target, so its
    # values are not resolved enough to classify from
    if (qac is None or rmax is None
            or any(e["grid_capped"] for e in entries)):
        report["classification"] = None
        return
    try:
        report["classification"] = classify(qac, rmax, f_slope,
                                            thresholds).value
    except ScalingUndefinedError:
        report["classification"] = None


def _entries_on_grid(bundle: SystemBundle, items, threads: int) -> list:
    """(entry, series) of each (tau, grid, capped) of ``items``, which share
    one grid; a custom system's ``_EigenbasisGrid`` runs its pass once for
    them and is freed on return. The entries' frame diagnostics run
    threaded over the taus when ``threads > 1``."""
    cfg = bundle.config
    evolutions = [None] * len(items)
    if bundle.path is None:
        grid = items[0][1]
        evolutions = _EigenbasisGrid(
            bundle.base, grid, 2 * cfg["substeps"], cfg["system"],
            cfg["diagnostics"], _premise_step(grid, cfg)).evolutions(
                [tau for tau, _, _ in items])

    def entry(k):
        return _entry_for_tau(bundle, *items[k], evolutions[k])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(entry, range(len(items))))
    return [entry(k) for k in range(len(items))]


def _run_normalized(config: dict, threads: int):
    bundle = SystemBundle(config)
    items = [(tau, *bundle.grid_policy(tau))
             for tau in config["parameters"]["tau_list"]]
    # the taus run grouped by grid, so one grid's data is alive at a time
    by_grid: Dict[int, List[int]] = {}
    for k, (_, grid, _) in enumerate(items):
        by_grid.setdefault(len(grid), []).append(k)
    results = [None] * len(items)
    for ks in by_grid.values():
        group = _entries_on_grid(bundle, [items[k] for k in ks], threads)
        for k, result in zip(ks, group):
            results[k] = result
    report = {
        "schema": REPORT_SCHEMA,
        "config": config,
        "provenance": {
            "package": "adiakit",
            "version": _version,
            "backend": backend_name(),
            "eigensolver": kernels.eigensolver_route(bundle.base.dim),
            "integrator": ("midpoint-exponential" if bundle.path is not None
                           else "eigenbasis-strang"),
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
    with open(path, "w", newline="") as fh:
        fh.write(f"# tau={entry['tau']!r}\n")
        # quoted where a name holds a comma, as in resonance[1,0].re
        csv.writer(fh, lineterminator="\n").writerow(
            ["s"] + [f"{system}.{name}" for name in names])
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
