"""Command-line interface.

Subcommands:
  run <config.json>      evaluate a scenario at each configured tau
  scan <config.json>     tau sweep (>= 3 values) with log-log slopes
  verify-paper           run the built-in closed-form identity suite

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure.
"""

import argparse
import json
import sys

from .exceptions import AdiakitError, ConfigError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(sub):
    sub.add_argument("config", help="path to the scenario config JSON")
    sub.add_argument("--out", default=None,
                     help="output directory (overrides config output.directory)")
    sub.add_argument("--grid", type=int, default=None,
                     help="grid points per window (overrides config)")
    sub.add_argument("--threads", type=int, default=1,
                     help="parallel workers across the tau entries that "
                          "share one grid")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adiakit",
        description="Adiabatic dynamics scenarios, diagnostics, and "
                    "closed-form verification.")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("run", help="run a scenario"))
    _add_common(subs.add_parser("scan", help="tau sweep with slopes"))
    vp = subs.add_parser("verify-paper",
                         help="check the built-in closed-form identities")
    vp.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable output")
    return parser


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _run_or_scan(args, scan_mode):
    from . import scenario

    cfg = _load_config(args.config)
    if args.grid is not None:
        cfg["grid"] = args.grid
    entry = scenario.scan if scan_mode else scenario.run
    report, series = entry(cfg, threads=max(1, args.threads))
    out_dir = args.out or report["config"]["output"]["directory"]
    written = scenario.write_report(report, series, out_dir)
    for path in written:
        print(path)
    cls = report.get("classification")
    capped = [e["tau"] for e in report["entries"] if e["grid_capped"]]
    if cls:
        print(f"classification: {cls}")
    elif capped:
        print("classification: none; grid_capped at tau "
              + ", ".join(map(repr, capped)))
    return EXIT_OK


def _verify(args):
    from . import verify

    results = verify.run_all()
    failed = [r for r in results if not r["passed"]]
    if args.as_json:
        print(json.dumps({"results": results,
                          "passed": not failed}, sort_keys=True, indent=1))
    else:
        width = max(len(r["name"]) for r in results)
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            line = (f"{status}  {r['name']:<{width}}  "
                    f"deviation {r['deviation']:.3e}  "
                    f"tolerance {r['tolerance']:.1e}")
            if r["detail"]:
                line += f"  [{r['detail']}]"
            print(line)
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_or_scan(args, scan_mode=False)
        if args.command == "scan":
            return _run_or_scan(args, scan_mode=True)
        return _verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdiakitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
