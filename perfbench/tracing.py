"""Per-layer tracing of adiakit from outside the package.

``installed(tracer)`` wraps the public functions of each ``src/adiakit``
layer with timing spans and restores the originals on exit; no file of the
package changes. A span records its name, start, end, parent id and a few
work counts (points, matrices, steps, bytes). Spans stay in memory until the
run ends, are written to a JSON file, and the per-layer metrics are computed
from that file.

Several modules bind functions at import time (``from .gauge import
eigenframe``), so a function is replaced in every ``adiakit`` module that
holds it. Kernel calls go through the ``kernels`` module attribute and the
spin-half closed form through the ``spinhalf`` module global, so replacing
those attributes covers every caller.
"""

import functools
import importlib
import json
import os
import re
import sys
import time
from contextlib import contextmanager

_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# the 16 verify checks, in verify.ALL_CHECKS order
VERIFY_CHECKS = (
    "closed_form_propagator", "propagator_unitarity", "coupling_closed_form",
    "coupling_modulus", "dual_projector_element", "dual_resonance_integral",
    "negated_dual_resonance", "qac_dual_equality", "phase_cancellation",
    "double_rate_integrand", "intertwining_scaling", "kernel_integral_scaling",
    "projector_drift", "geometric_intertwining", "coupling_route_agreement",
    "classifier_scenarios",
)
DIAGNOSTICS = ("qac_max", "resonance_series", "f_norm", "f_norm_series",
               "projector_drift_series", "intertwining_series", "w_deviation",
               "scaling_slope")

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    [("kernels.eigh_batch.calls", "count"),
     ("kernels.eigh_batch.matrices", "count"),
     ("kernels.eigh_batch.self_s", "s"),
     ("kernels.propagate_steps.calls", "count"),
     ("kernels.propagate_steps.steps", "count"),
     ("kernels.propagate_steps.self_s", "s"),
     ("propagate.propagate.calls", "count"),
     ("propagate.propagate.steps", "count"),
     ("propagate.propagate.self_s", "s"),
     ("propagate.propagate.max_unitarity_defect", "1"),
     ("propagate.propagate_adaptive.calls", "count"),
     ("propagate.propagate_adaptive.steps_attempted", "count"),
     ("propagate.propagate_adaptive.steps_accepted", "count"),
     ("propagate.propagate_adaptive.accept_ratio", "1"),
     ("propagate.propagate_adaptive.self_s", "s"),
     ("paths.eval_batch.points", "count"),
     ("paths.eval_batch.self_s", "s"),
     ("paths.derivative_batch.points", "count"),
     ("paths.derivative_batch.self_s", "s"),
     ("transforms.eval_batch.points", "count"),
     ("transforms.eval_batch.self_s", "s"),
     ("transforms.derivative_batch.points", "count"),
     ("transforms.derivative_batch.self_s", "s"),
     ("spinhalf.propagator_matrix.calls", "count"),
     ("spinhalf.propagator_matrix.points", "count"),
     ("spinhalf.propagator_matrix.self_s", "s"),
     ("gauge.eigenframe.calls", "count"),
     ("gauge.eigenframe.points", "count"),
     ("gauge.eigenframe.self_s", "s"),
     ("gauge.eigenframe.transported.calls", "count"),
     ("gauge.couplings.calls", "count"),
     ("gauge.couplings.points", "count"),
     ("gauge.couplings.self_s", "s")]
    + [(f"diagnostics.{d}.self_s", "s") for d in DIAGNOSTICS]
    + [("scenario.normalize_config.self_s", "s"),
       ("scenario.grid_for.self_s", "s"),
       ("scenario.grid_for.points", "count"),
       ("scenario.unitaries_for.self_s", "s"),
       ("scenario.write_report.self_s", "s"),
       ("scenario.write_report.bytes", "B")]
    + [(f"verify.{c}.{f}", "s") for c in VERIFY_CHECKS
       for f in ("self_s", "total_s")]
    + [("trace.overhead_s", "s")]
)


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric or span name, else raise."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} is not made of [A-Za-z0-9_.-]")
    return name


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans = []       # [id, parent, name, start, end, counts]
        self._stack = []
        self._next_id = 0

    @contextmanager
    def span(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, check_name(name), time.perf_counter(), None, {}]
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()
            self.spans.append(record)

    def wrap(self, fn, name, counter=None):
        """``fn`` inside a span; ``name`` may be a function of the arguments,
        ``counter(args, result)`` returns the span's work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record[5] = counter(args, result)
            return result

        return traced


def _first_len(field):
    def count(args, result):
        return {field: int(len(args[0]))}
    return count


def _propagate_counts(args, result):
    return {"steps": int(result.steps_taken),
            "max_unitarity_defect": float(result.max_unitarity_defect)}


def _adaptive_counts(args, result):
    return {"steps_attempted": int(result.steps_taken),
            "steps_accepted": int(len(result.grid) - 1)}


def _closed_form_points(args, result):
    return {"points": int(result.size // 4)}


def _frame_counts(args, result):
    return {"points": int(result.npoints),
            "transported": int(result.construction == "transported")}


def _result_len(args, result):
    return {"points": int(len(result))}


def _report_bytes(args, result):
    return {"bytes": int(sum(os.path.getsize(p) for p in result))}


def _targets():
    """(owner, attribute, span name, counter) for every traced function."""
    # by module path: the package attribute ``adiakit.propagate`` is the
    # function, not the module
    (diagnostics, gauge, paths, propagate, scenario, spinhalf, transforms,
     verify) = (importlib.import_module(f"adiakit.{m}") for m in (
         "diagnostics", "gauge", "paths", "propagate", "scenario", "spinhalf",
         "transforms", "verify"))
    kernels = importlib.import_module("adiakit._backend").kernels

    transformed = (transforms.TransformedHamiltonianPath,
                   transforms.GeneratorPath)

    def path_layer(method):
        def name(args):
            layer = "transforms" if isinstance(args[0], transformed) else "paths"
            return f"{layer}.{method}"
        return name

    out = [
        (kernels, "eigh_batch", "kernels.eigh_batch", _first_len("matrices")),
        (kernels, "propagate_steps", "kernels.propagate_steps",
         _first_len("steps")),
        (propagate, "propagate", "propagate.propagate", _propagate_counts),
        (propagate, "propagate_adaptive", "propagate.propagate_adaptive",
         _adaptive_counts),
        (paths.HamiltonianPath, "eval_batch", path_layer("eval_batch"),
         _result_len),
        (paths.HamiltonianPath, "derivative_batch",
         path_layer("derivative_batch"), _result_len),
        (spinhalf, "propagator_matrix", "spinhalf.propagator_matrix",
         _closed_form_points),
        (gauge, "eigenframe", "gauge.eigenframe", _frame_counts),
        (gauge, "couplings", "gauge.couplings", _result_len),
        (scenario, "normalize_config", "scenario.normalize_config", None),
        (scenario.SystemBundle, "grid_for", "scenario.grid_for", _result_len),
        (scenario.SystemBundle, "unitaries_for", "scenario.unitaries_for", None),
        (scenario, "write_report", "scenario.write_report", _report_bytes),
    ]
    out += [(diagnostics, d, f"diagnostics.{d}", None) for d in DIAGNOSTICS]
    out += [(verify, f"check_{c}", f"verify.{c}", None) for c in VERIFY_CHECKS]
    return out


@contextmanager
def installed(tracer):
    """Route every traced adiakit function through ``tracer``; undo on exit."""
    verify = importlib.import_module("adiakit.verify")
    targets = _targets()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "adiakit" or n.startswith("adiakit."))]
    undo = []
    try:
        for owner, attr, name, counter in targets:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, name, counter)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
            for i, fn in enumerate(verify.ALL_CHECKS):
                if fn is original:
                    undo.append((verify.ALL_CHECKS, i, fn))
                    verify.ALL_CHECKS[i] = wrapper
        yield tracer
    finally:
        for holder, key, value in reversed(undo):
            if isinstance(holder, list):
                holder[key] = value
            else:
                setattr(holder, key, value)


def write_spans(path, spans):
    """Write spans as a JSON list of {id, parent, name, start, end, counts}."""
    keys = ("id", "parent", "name", "start", "end", "counts")
    with open(path, "w") as fh:
        json.dump([dict(zip(keys, s)) for s in spans], fh)


def read_spans(path):
    with open(path) as fh:
        return json.load(fh)


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def roots(spans):
    """Span id -> id of the root span it descends from."""
    parent = {s["id"]: s["parent"] for s in spans}
    out = {}
    for sid in parent:
        top = sid
        while parent[top] is not None:
            top = parent[top]
        out[sid] = top
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced operation (every span in ``spans``).

    ``calls`` counts spans, ``self_s`` sums self time, ``total_s`` sums
    span durations (children included), other fields sum the
    span counts, except ``max_unitarity_defect`` (a maximum). Every metric
    of PER_LAYER except ``trace.overhead_s`` is returned, zero when the
    layer was not called.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {}
    for metric, _ in PER_LAYER:
        span_name, field = metric.rsplit(".", 1)
        if metric == "trace.overhead_s":
            continue
        if span_name == "gauge.eigenframe.transported":
            group = [s for s in by_name.get("gauge.eigenframe", ())
                     if s["counts"].get("transported")]
        else:
            group = by_name.get(span_name, [])
        if field == "calls":
            out[metric] = len(group)
        elif field == "self_s":
            out[metric] = sum(selfs[s["id"]] for s in group)
        elif field == "total_s":
            out[metric] = sum(s["end"] - s["start"] for s in group)
        elif field == "accept_ratio":
            tried = sum(s["counts"]["steps_attempted"] for s in group)
            taken = sum(s["counts"]["steps_accepted"] for s in group)
            out[metric] = taken / tried if tried else 0.0
        elif field == "max_unitarity_defect":
            out[metric] = max((s["counts"][field] for s in group), default=0.0)
        else:
            out[metric] = sum(s["counts"][field] for s in group)
    return out
