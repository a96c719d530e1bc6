"""Compare two result files written by ``perfbench/run.py --out``.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Prints one row per workload and end-to-end metric (untraced runs only), plus
``fail_frac`` (failed / attempted operations), with each side's median and
quartiles over its runs. Bounds come from ``BENCHMARK.json``:

* ``fail_frac`` is judged on the pooled totals, failed / attempted
  operations over all of a side's runs: any rise is a ``regression``, any
  fall is ``better``;
* ``unresolved``: a side's quartile spread exceeds the bound, and the change
  does not beat the parent on every run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``better``: the change's median is better by more than the parent's
  quartile spread;
* ``same`` otherwise.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, metric): [values]} over the untraced runs of a file.
    The values of ``fail_frac`` are (failed, attempted) pairs."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            res = rec["result"]
            values = {k: m["value"] for k, m in res["metrics"].items()}
            values["fail_frac"] = (res["failed"], res["attempted"])
            for metric, value in values.items():
                out.setdefault((rec["workload"], metric), []).append(value)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pooled(runs):
    """Failed / attempted operations over (failed, attempted) pairs."""
    return sum(f for f, _ in runs) / sum(a for _, a in runs)


def fail_verdict(parent, change):
    p, c = pooled(parent), pooled(change)
    return "regression" if c > p else "better" if c < p else "same"


def verdict(parent, change, bound, lower_is_better=True):
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    worse = sign * (cm - pm) / abs(pm) if pm else sign * (cm - pm)
    if worse > bound:
        return "regression"
    if sign * (pm - cm) > (p3 - p1):
        return "better"
    return "same"


def compare(parent, change, spec):
    """Rows of (workload, metric, unit, parent q, change q, verdict)."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics["fail_frac"] = {"name": "fail_frac", "unit": "1"}
    rows = []
    for w in spec["workloads"]:
        for name, m in metrics.items():
            key = (w["name"], name)
            if key not in parent or key not in change:
                continue
            p, c = parent[key], change[key]
            if name == "fail_frac":
                v = fail_verdict(p, c)
                p, c = [f / a for f, a in p], [f / a for f, a in c]
            else:
                v = verdict(p, c, m["bound"], m["better"] == "lower")
            rows.append((w["name"], name, m["unit"], quartiles(p), len(p),
                         quartiles(c), len(c), v))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = compare(load(args.parent), load(args.change), spec)

    def fmt(q, n):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={n}"

    print(f"{'workload':<20} {'metric':<12} {'unit':<5} {'parent':<34} "
          f"{'change':<34} verdict")
    for w, name, unit, pq, pn, cq, cn, v in rows:
        print(f"{w:<20} {name:<12} {unit:<5} {fmt(pq, pn):<34} "
              f"{fmt(cq, cn):<34} {v}")
    return 1 if any(r[-1] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
