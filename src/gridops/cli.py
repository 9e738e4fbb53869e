"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 scenario validation failure,
3 runtime failure.  Diagnostics go to stderr; stdout carries only the
requested product (the validation report).
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import read_trace, simulate, write_trace
from .grid import make_regulation
from .metrics import REPORTED, write_all
from .mini import write_mini3
from .scenario import (ScenarioError, load_scenario, render_report,
                       validate_scenario)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_seed(args_seed, scn) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get("EPECS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ScenarioError(f"EPECS_SEED is not an integer: {env!r}")
    return scn.seed


def _load_checked(path: str):
    scn = load_scenario(path)
    report = validate_scenario(scn)
    errors = [r for r in report if r[0] == "error"]
    if errors:
        sys.stderr.write(render_report(errors))
        raise SystemExit(EXIT_VALIDATION)
    return scn


def cmd_validate(args) -> int:
    try:
        scn = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error\tscenario\t{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = validate_scenario(scn)
    sys.stdout.write(render_report(report))
    if any(sev == "error" for sev, _, _ in report):
        return EXIT_VALIDATION
    print(f"validated {args.scenario}", file=sys.stderr)
    return EXIT_OK


def _simulate_one(path: str, minutes: int, seed, outdir: str) -> None:
    scn = _load_checked(path)
    use_seed = _resolve_seed(seed, scn)
    trace = simulate(scn, minutes, seed=use_seed)
    write_trace(outdir, trace, scn, use_seed, path)
    print(f"simulated {path}: {minutes} minutes -> {outdir}",
          file=sys.stderr)


def cmd_simulate(args) -> int:
    minutes = args.days * 1440 if args.minutes is None else args.minutes
    if minutes <= 0:
        print("nothing to simulate: span is zero", file=sys.stderr)
        return EXIT_USAGE
    runs: dict[str, str] = {}       # output directory -> scenario
    for path in args.scenario:
        out = args.out if len(args.scenario) == 1 else os.path.join(
            args.out, os.path.splitext(os.path.basename(path))[0])
        if out in runs:
            print(f"{runs[out]} and {path} both write {out}", file=sys.stderr)
            return EXIT_USAGE
        runs[out] = path
    for out, path in runs.items():
        _simulate_one(path, minutes, args.seed, out)
    return EXIT_OK


def cmd_metrics(args) -> int:
    scn = _load_checked(args.scenario)
    trace = read_trace(args.trace, REPORTED)
    trace.reg_saturation = make_regulation(scn.generators).total_saturation
    name = args.name or os.path.splitext(os.path.basename(args.scenario))[0]
    outdir = args.out or args.trace
    write_all(outdir, trace, scn, name)
    print(f"metrics for {args.trace} -> {outdir}", file=sys.stderr)
    return EXIT_OK


def cmd_gen_mini(args) -> int:
    write_mini3(args.out, variant=args.variant, days=args.days)
    print(f"wrote {args.variant} fixture to {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="gridops",
                description="Layered bulk power system simulator.")
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("validate", help="check a scenario file")
    v.add_argument("scenario")
    v.set_defaults(fn=cmd_validate)

    s = sub.add_parser("simulate", help="run the control cascade")
    s.add_argument("scenario", nargs="+")
    s.add_argument("--minutes", type=int, default=None)
    s.add_argument("--days", type=int, default=1)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default="out")
    s.set_defaults(fn=cmd_simulate)

    m = sub.add_parser("metrics", help="summarize a written trace")
    m.add_argument("trace")
    m.add_argument("--scenario", required=True)
    m.add_argument("--name", default="")
    m.add_argument("--out", default="")
    m.set_defaults(fn=cmd_metrics)

    g = sub.add_parser("gen-mini", help="write the bundled test system")
    g.add_argument("out")
    g.add_argument("--variant", default="base",
                   choices=["base", "congestion", "congestion-wide",
                            "high-solar"])
    g.add_argument("--days", type=int, default=4)
    g.set_defaults(fn=cmd_gen_mini)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:            # noqa: BLE001 - map to exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
