"""Benchmark the compiled kernels against the pure Python fallback.

Runs the same workloads in two subprocesses (ADIAKIT_BACKEND=compiled /
python) and prints a comparison table:

    python benchmarks/bench_backends.py [--quick]

When the compiled core is not built, it says so and times the python
backend alone.

Workloads: batched Hermitian eigensolves, a fixed-grid propagation of the
rotating spin-half model, the step-doubling adaptive propagator, and an
eigenframe construction with couplings.
"""

import argparse
import importlib.machinery
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _workloads(quick):
    import numpy as np

    import adiakit as ak
    from adiakit import spinhalf
    from adiakit._backend import kernels

    scale = 0.2 if quick else 1.0
    rng = np.random.default_rng(0)
    out = {}

    n_eigh = int(20000 * scale)
    for dim in (2, 4, 8):
        m = rng.standard_normal((n_eigh, dim, dim)) \
            + 1j * rng.standard_normal((n_eigh, dim, dim))
        m = 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))
        t0 = time.perf_counter()
        kernels.eigh_batch(m)
        out[f"eigh_batch[{n_eigh}x{dim}x{dim}]"] = time.perf_counter() - t0

    h = spinhalf.hamiltonian(np.pi / 4, 1.0)
    nsteps = int(200000 * scale)
    grid = np.linspace(0, 2 * np.pi, 101)
    t0 = time.perf_counter()
    ak.propagate(h, 100.0, grid, substeps=max(1, nsteps // 100))
    out[f"propagate[{nsteps} steps]"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ak.propagate_adaptive(h, 10.0, 2 * np.pi, tol=1e-7 if quick else 1e-8)
    out["propagate_adaptive"] = time.perf_counter() - t0

    npts = int(65536 * scale) + 1
    t0 = time.perf_counter()
    fr = ak.eigenframe(h, 100.0, np.linspace(0, 2 * np.pi, npts))
    ak.couplings(fr)
    out[f"eigenframe+couplings[{npts}]"] = time.perf_counter() - t0
    return out


def _compiled_built():
    pkg = os.path.join(SRC, "adiakit")
    return any(os.path.exists(os.path.join(pkg, "_kernels" + suffix))
               for suffix in importlib.machinery.EXTENSION_SUFFIXES)


def _run_worker(backend, quick):
    env = dict(os.environ, ADIAKIT_BACKEND=backend)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.abspath(__file__), "--worker"]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{backend} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        import adiakit
        results = _workloads(args.quick)
        results["_backend"] = adiakit.backend_name()
        print(json.dumps(results))
        return

    if not _compiled_built():
        print("compiled core (adiakit._kernels) is not built; "
              "timing the python backend alone")
        fallback = _run_worker("python", args.quick)
        assert fallback.pop("_backend") == "python"
        width = max(len(k) for k in fallback)
        print(f"{'workload':<{width}}  {'python':>10}")
        for key, tp in fallback.items():
            print(f"{key:<{width}}  {tp:>9.3f}s")
        return

    compiled = _run_worker("compiled", args.quick)
    fallback = _run_worker("python", args.quick)
    assert compiled.pop("_backend") == "compiled"
    assert fallback.pop("_backend") == "python"

    width = max(len(k) for k in compiled)
    print(f"{'workload':<{width}}  {'compiled':>10}  {'python':>10}  {'speedup':>8}")
    for key in compiled:
        tc, tp = compiled[key], fallback[key]
        print(f"{key:<{width}}  {tc:>9.3f}s  {tp:>9.3f}s  {tp / tc:>7.1f}x")


if __name__ == "__main__":
    main()
