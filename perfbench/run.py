"""adiakit benchmark: four workloads, accuracy gates and a traced per-layer run.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload scan_dual --seed 1 --seconds 32 --trace 0

The run times operations of the workload (one operation is one full pass,
closed loop, one client, one thread) until ``--seconds`` have passed, checks
every result against its closed form or scaling law, and prints a summary
followed by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
  fresh processes that import adiakit and build the inputs, half of them
  before the operations and half after), ``wall_s``
  (median seconds per operation), ``peak_rss_mb`` (after the first
  operation), ``max_err`` and
  ``tol_used`` (``max_err`` as a share of the workload's tolerance).
* ``--trace 1`` runs one warm-up operation (unless it is longer than half
  of ``--seconds``; then it counts as untraced), then alternates untraced
  and traced ones, and reports the per-layer metrics of ``tracing.PER_LAYER``,
  computed from the span file it writes to ``.perfbench_out/``, plus
  ``trace.overhead_s`` (traced minus untraced median wall time).

``--workload all`` runs every workload in its own process and prints one
table. ``--out FILE`` appends each result, with its provenance, as a JSON
line; ``perfbench/compare.py`` compares two such files.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("scan_dual", "scan_custom_4level", "propagate_spinhalf",
                  "verify_paper")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("max_err", "1"), ("tol_used", "1"))
# fresh set-up processes measured before the operations, and again after,
# so that the median spans the run rather than its first seconds
SETUP_REPEATS = 6

# ``peak_mb`` is the process's peak resident memory after the operation
Op = namedtuple("Op", "kind wall outcome error peak_mb")


def _setup_times(workload, seed, warm):
    """Seconds each of SETUP_REPEATS fresh processes takes to import adiakit
    and build the inputs. With ``warm``, one unmeasured process first fills
    the bytecode cache."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
           str(seed)]
    times = []
    for k in range(SETUP_REPEATS + warm):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        if k >= warm:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def provenance(seed):
    import numpy

    import adiakit

    lines = 0
    pkg = os.path.join(SRC, "adiakit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"backend": adiakit.backend_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed,
            "src_py_lines": lines}


def _operations(workload, inputs, seconds, out_dir, tracer):
    """Run operations until ``seconds`` have passed; returns a list of Op.

    Without a tracer every operation is "plain". With one, a "warmup"
    operation comes first, so that neither side pays alone for first-touch
    memory, and then "plain" and "traced" ones alternate, at least one each.
    A warm-up longer than half of ``seconds`` is kept as the first "plain"
    operation, so that a long workload runs two operations, not three.
    """
    import tracing

    ops = []
    kind = "plain" if tracer is None else "warmup"
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            if kind == "traced":
                with tracing.installed(tracer), tracer.span("op"):
                    outcome = workload.run(inputs, out_dir)
            else:
                outcome = workload.run(inputs, out_dir)
            error = ""
        except Exception:  # a failed operation is counted, not fatal
            outcome, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        if kind == "warmup" and wall > seconds / 2:
            kind = "plain"
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops.append(Op(kind, wall, outcome, error, peak))
        elapsed = time.perf_counter() - start
        estimate = statistics.median(op.wall for op in ops)
        if tracer is not None:
            kind = "traced" if kind == "plain" else "plain"
            if not {"plain", "traced"} <= {op.kind for op in ops}:
                continue
        if elapsed + estimate > seconds:
            return ops


def _failures(ops):
    """Indices of failed operations: raised, failed its output check, or
    (scans) wrote a report.json that differs from the first operation's."""
    first = next((op.outcome.report for op in ops if op.outcome), None)
    return [i for i, op in enumerate(ops) if op.outcome is None
            or not op.outcome.ok or op.outcome.report != first]


def _layer_metrics(ops, tracer, workload, seed):
    import tracing

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    tracing.write_spans(path, tracer.spans)
    spans = tracing.read_spans(path)
    top = tracing.roots(spans)
    per_op = [tracing.layer_metrics([s for s in spans if top[s["id"]] == r["id"]])
              for r in spans if r["parent"] is None]
    units = dict(tracing.PER_LAYER)
    metrics = {}
    for name, _ in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            walls = {kind: statistics.median(op.wall for op in ops
                                             if op.kind == kind)
                     for kind in ("plain", "traced")}
            value = walls["traced"] - walls["plain"]
        elif units[name] == "s":
            value = statistics.median(m[name] for m in per_op)
        else:
            value = per_op[0][name]     # counts repeat exactly between operations
        metrics[name] = value
    return metrics, path


def run_one(args):
    sys.path[:0] = [SRC, HERE]
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else _setup_times(args.workload, args.seed, True)
    inputs = workload.build(args.seed, False)
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        ops = _operations(workload, inputs, args.seconds, out_dir, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not args.trace:
        setup += _setup_times(args.workload, args.seed, False)
    failed = _failures(ops)
    done = [op.outcome for op in ops if op.outcome is not None]
    for i in failed:
        op = ops[i]
        print(f"operation {i} failed: "
              + (op.outcome.detail if op.outcome else op.error.strip()),
              file=sys.stderr)
    if not done:
        print("no operation completed", file=sys.stderr)
        return 1

    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {args.workload}: {len(ops)} operations, fail_frac "
          f"{len(failed) / len(ops):.3g} ({len(failed)}/{len(ops)}); "
          f"{done[0].detail}")
    if args.trace:
        metrics, span_file = _layer_metrics(ops, tracer, args.workload,
                                            args.seed)
        units = dict(tracing.PER_LAYER)
        print(f"spans written to {os.path.relpath(span_file, ROOT)}")
    else:
        walls = [op.wall for op in ops]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            # after the first operation: later ones can raise the peak
            # through allocator fragmentation, and their number varies
            "peak_rss_mb": ops[0].peak_mb,
            "max_err": max(o.max_err for o in done),
            "tol_used": max(o.tol_used for o in done),
        }
        units = dict(END_TO_END)
        print(f"  wall_s samples {len(walls)}: "
              + " ".join(f"{w:.4f}" for w in walls))
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {tracing.check_name(name):<44} {shown} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "walls": [[op.kind, op.wall] for op in ops],
                                 "provenance": prov, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload in a fresh process and print one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}")
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        frac = result["failed"] / result["attempted"]
        rows.append((name, "fail_frac", f"{frac:.3g}",
                     f"({result['failed']}/{result['attempted']})"))
        rows += [(name, k, f"{m['value']:.6g}", m["unit"])
                 for k, m in result["metrics"].items()]
    for row in rows:
        print("{:<20} {:<44} {:>14} {}".format(*row))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append results as JSON lines here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adiakit", "__init__.py")):
        print(f"adiakit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
