"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench/tests -q

The workload smoke runs use reduced sizes (``small=True``), which exist only
for these tests.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, start, end, name="x", counts=None):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "counts": counts or {}}


def test_self_time_nested():
    spans = [_span(2, 1, 2.0, 3.0), _span(1, 0, 1.0, 4.0),
             _span(0, None, 0.0, 10.0)]
    assert tracing.self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_siblings():
    spans = [_span(1, 0, 1.0, 3.0), _span(2, 0, 5.0, 8.0),
             _span(0, None, 0.0, 10.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)
    # overlapping siblings cover their union once
    spans = [_span(1, 0, 1.0, 4.0), _span(2, 0, 3.0, 6.0),
             _span(0, None, 0.0, 10.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_metrics_aggregate_one_operation():
    spans = [
        _span(1, 0, 1.0, 2.0, "gauge.eigenframe",
              {"points": 5, "transported": 0}),
        _span(2, 0, 2.0, 4.0, "gauge.eigenframe",
              {"points": 7, "transported": 1}),
        _span(0, None, 0.0, 5.0, "op"),
    ]
    m = tracing.layer_metrics(spans)
    assert m["gauge.eigenframe.calls"] == 2
    assert m["gauge.eigenframe.points"] == 12
    assert m["gauge.eigenframe.transported.calls"] == 1
    assert m["gauge.eigenframe.self_s"] == pytest.approx(3.0)
    assert m["kernels.propagate_steps.calls"] == 0
    assert m["propagate.propagate_adaptive.accept_ratio"] == 0.0


@pytest.mark.parametrize("name", ["a b", "x/y", "", "tau=1", "wall_s\n",
                                  "é", "a,b"])
def test_metric_names_outside_charset_rejected(name):
    with pytest.raises(ValueError):
        tracing.check_name(name)
    with pytest.raises(ValueError):
        with tracing.Tracer().span(name):
            pass


def test_metric_names_accepted():
    for name, _ in tracing.PER_LAYER + list(run.END_TO_END):
        assert tracing.check_name(name) == name


def test_spec_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


def test_verify_check_names_follow_the_package():
    verify = importlib.import_module("adiakit.verify")
    assert tracing.VERIFY_CHECKS == tuple(
        fn.__name__[len("check_"):] for fn in verify.ALL_CHECKS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_reduced_workload_passes_its_output_check(name, tmp_path):
    w = workloads.WORKLOADS[name]
    outcome = w.run(w.build(3, True), str(tmp_path))
    assert outcome.ok, outcome.detail
    assert 0.0 < outcome.tol_used <= 1.0
    assert outcome.max_err > 0.0
    if name.startswith("scan"):
        assert outcome.report == (tmp_path / "report.json").read_bytes()


def test_seed_gives_same_inputs():
    build = workloads.WORKLOADS["scan_custom_4level"].build
    assert build(5, True) == build(5, True)
    assert build(5, True) != build(6, True)


def _traced_counts(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = w.build(0, True)
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span("op"):
        assert w.run(inputs, str(tmp_path)).ok
    path = str(tmp_path / "spans.json")
    tracing.write_spans(path, tracer.spans)
    m = tracing.layer_metrics(tracing.read_spans(path))
    return {k: v for k, v in m.items() if not k.endswith("self_s")}


def test_traced_scan_never_calls_the_integrator(tmp_path):
    counts = _traced_counts("scan_dual", tmp_path)
    assert counts["kernels.propagate_steps.calls"] == 0
    assert counts["propagate.propagate.calls"] == 0
    assert counts["gauge.eigenframe.transported.calls"] == 3
    assert counts["kernels.eigh_batch.matrices"] > 0
    assert counts["spinhalf.propagator_matrix.points"] > 0
    assert counts["scenario.write_report.bytes"] > 0
    assert counts == _traced_counts("scan_dual", tmp_path)


def test_traced_propagation_builds_no_frame(tmp_path):
    counts = _traced_counts("propagate_spinhalf", tmp_path)
    assert counts["gauge.eigenframe.calls"] == 0
    assert counts["propagate.propagate.calls"] == 1
    assert counts["propagate.propagate_adaptive.calls"] == 1
    assert 0.0 < counts["propagate.propagate_adaptive.accept_ratio"] <= 1.0
    # the harness's closed-form reference is not counted as program work
    assert counts["spinhalf.propagator_matrix.calls"] == 0


def test_tracing_is_removed_on_exit():
    gauge = importlib.import_module("adiakit.gauge")
    scenario = importlib.import_module("adiakit.scenario")
    verify = importlib.import_module("adiakit.verify")
    before = (gauge.eigenframe, scenario.eigenframe, list(verify.ALL_CHECKS))
    with tracing.installed(tracing.Tracer()):
        assert scenario.eigenframe is not before[1]
        assert verify.ALL_CHECKS[0] is not before[2][0]
    assert (gauge.eigenframe, scenario.eigenframe,
            list(verify.ALL_CHECKS)) == before


class _Sleeper:
    def __init__(self, seconds):
        self.seconds = seconds

    def run(self, inputs, out_dir):
        time.sleep(self.seconds)
        return "done"


def test_traced_run_warms_up_then_alternates():
    ops = run._operations(_Sleeper(0.05), None, 0.3, "", tracing.Tracer())
    kinds = [op.kind for op in ops]
    assert kinds[:3] == ["warmup", "plain", "traced"]
    assert all(a != b for a, b in zip(kinds[1:], kinds[2:]))


def test_long_warmup_counts_as_plain():
    ops = run._operations(_Sleeper(0.2), None, 0.3, "", tracing.Tracer())
    assert [op.kind for op in ops] == ["plain", "traced"]
    ops = run._operations(_Sleeper(0.2), None, 0.3, "", None)
    assert [op.kind for op in ops] == ["plain"]


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(steady, [1.5, 1.51, 1.49], 0.2) == "regression"
    assert compare.verdict(steady, [0.5, 0.51, 0.49], 0.2) == "better"
    assert compare.verdict(steady, [1.02, 1.0, 1.01], 0.2) == "same"
    assert compare.verdict(steady, [0.5, 1.5, 3.0, 0.9], 0.2) == "unresolved"
    assert compare.verdict([10.0, 10.1], [12.0, 12.5], 0.1,
                           lower_is_better=False) == "better"


def test_compare_fail_frac_pools_runs():
    clean = [(0, 5)] * 10
    # failures in a minority of runs leave the median at 0 but still count
    some = [(1, 5)] * 4 + [(0, 5)] * 6
    assert compare.fail_verdict(clean, some) == "regression"
    assert compare.fail_verdict(some, clean) == "better"
    assert compare.fail_verdict(clean, [(0, 3)] * 10) == "same"


def test_compare_rows(tmp_path):
    def write(path, failed):
        with open(path, "w") as fh:
            for k, f in enumerate(failed):
                fh.write(json.dumps({"workload": "scan_dual", "trace": 0,
                                     "result": {"attempted": 4, "failed": f,
                                                "metrics": {"wall_s": {
                                                    "value": 6.0 + 0.01 * k,
                                                    "unit": "s"}}}}) + "\n")
    write(tmp_path / "p.jsonl", [0] * 10)
    write(tmp_path / "c.jsonl", [1] * 3 + [0] * 7)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = compare.compare(compare.load(tmp_path / "p.jsonl"),
                           compare.load(tmp_path / "c.jsonl"), spec)
    verdicts = {r[1]: r[-1] for r in rows}
    assert verdicts == {"wall_s": "same", "fail_frac": "regression"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_dual",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
