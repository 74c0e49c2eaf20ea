"""Command-line front end.

Subcommands: ``solve`` (one blocking report), ``sweep`` (threshold sweep
emitting one blocking pair per threshold as CSV), ``oracle`` (truncated-chain ground
truth), ``prelimit`` (finite pre-rescaling chain), and ``compare``
(analytic vs oracle with a pass/fail tolerance gate).

Rates are taken with mu and c separate, as they appear in the original
finite-capacity model, and multiplied internally.  The environment variable
QW_GRID_SIZE, read when a command runs, overrides the default quadrature
grid size.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import __version__
from .errors import BadGridSize, QwblockError
from .model import (CONFIG_KEYS, ModelParams, params_from_json, read_config,
                    validate)
from .oracle import (default_box, blocking_from_distribution, solve_limiting_walk,
                     solve_prelimit)
from .quadrature import QuadConfig
from .solver import blocking, sweep

SWEEP_HEADER = ["a", "B1", "B2", "B1_inf", "B2_inf", "B1_0", "B2_0",
                "p00", "residual"]


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with lambda1/lambda2/mu1/mu2/c1/c2/a")
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--mu1", type=float, default=1.0)
    p.add_argument("--mu2", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--a", type=int, help="threshold (default: the --config "
                   "file's, else 0)")
    p.add_argument("--grid-size", type=int,
                   help="default: $QW_GRID_SIZE, else 512")
    p.add_argument("--output", "-o", help="output file (default: stdout)")


def _params(args) -> ModelParams:
    if args.config:
        base = params_from_json(args.config)
        return validate(base.with_a(base.a if args.a is None else args.a))
    if args.lambda1 is None or args.lambda2 is None:
        raise QwblockError("--lambda1 and --lambda2 (or --config) are required")
    return validate(ModelParams(args.lambda1, args.lambda2,
                                args.mu1 * args.c1, args.mu2 * args.c2,
                                args.a or 0))


def _cfg(args) -> QuadConfig:
    if args.grid_size is not None:
        return QuadConfig(grid_size=args.grid_size)
    env = os.environ.get("QW_GRID_SIZE", "512")
    try:
        return QuadConfig(grid_size=int(env))
    except ValueError as exc:    # BadGridSize is a ValueError too
        raise BadGridSize(f"QW_GRID_SIZE={env!r}: {exc}") from exc


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise QwblockError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _box(args, params) -> tuple[int, int]:
    return tuple(args.box) if args.box else default_box(params)


def cmd_solve(args) -> int:
    params = _params(args)
    report = blocking(params, _cfg(args))
    _emit(args, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_sweep(args) -> int:
    params = _params(args)
    if not 0 <= args.a_min <= args.a_max <= 200:
        raise QwblockError("sweep range must satisfy 0 <= a-min <= a-max <= 200")
    thresholds = range(args.a_min, args.a_max + 1)
    reports = sweep(params, thresholds, _cfg(args))
    rows = [[a, *rep.blocking, *rep.baseline_inf, *rep.baseline_a0, rep.p00,
             rep.normalization_residual] for a, rep in zip(thresholds, reports)]
    _emit(args, _format_rows(SWEEP_HEADER, rows, args.format))
    return 0


def cmd_oracle(args) -> int:
    params = _params(args)
    dist = solve_limiting_walk(params, _box(args, params))
    pair = blocking_from_distribution(dist, params)
    doc = {
        "params": {"lambda1": params.lambda1, "lambda2": params.lambda2,
                   "mu1c1": params.mu1c1, "mu2c2": params.mu2c2},
        "a": params.a,
        "box": list(dist.box),
        "B1": pair.b1,
        "B2": pair.b2,
        "boundary_mass": dist.boundary_mass,
        "residual": dist.residual,
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_prelimit(args) -> int:
    doc = read_config(args.config) if args.config else vars(args)
    missing = [k for k in CONFIG_KEYS if doc.get(k) is None]
    if missing:
        raise QwblockError(f"missing {', '.join(missing)} (flags or --config)")
    a = (doc.get("a") or 0) if args.a is None else args.a
    pair = solve_prelimit(*(float(doc[k]) for k in CONFIG_KEYS), a, args.nu)
    _emit(args, json.dumps({"nu": args.nu, "B1": pair.b1, "B2": pair.b2},
                           indent=2, sort_keys=True) + "\n")
    return 0


def cmd_compare(args) -> int:
    params = _params(args)
    rep = blocking(params, _cfg(args))
    dist = solve_limiting_walk(params, _box(args, params))
    pair = blocking_from_distribution(dist, params)
    d1 = abs(rep.blocking.b1 - pair.b1)
    d2 = abs(rep.blocking.b2 - pair.b2)
    ok = max(d1, d2) <= args.tol
    doc = {
        "a": params.a,
        "analytic": {"B1": rep.blocking.b1, "B2": rep.blocking.b2},
        "oracle": {"B1": pair.b1, "B2": pair.b2},
        "delta": {"B1": d1, "B2": d2},
        "tolerance": args.tol,
        "pass": ok,
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 2


def _format_rows(header, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in rows:
        writer.writerow([r[0]] + [f"{v:.12g}" for v in r[1:]])
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwblock",
        description="Blocking probabilities of two cooperating data centers "
                    "under trunk reservation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="analytic blocking report for one threshold")
    _add_param_args(p)

    p = sub.add_parser("sweep", help="blocking pair for a range of thresholds")
    _add_param_args(p)
    p.add_argument("--a-min", type=int, default=0)
    p.add_argument("--a-max", type=int, default=30)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("oracle", help="truncated-chain ground truth")
    _add_param_args(p)
    p.add_argument("--box", type=int, nargs=2, metavar=("N1", "N2"))

    p = sub.add_parser("prelimit", help="finite pre-rescaling chain")
    _add_param_args(p)
    p.add_argument("--nu", type=float, required=True)

    p = sub.add_parser("compare", help="analytic vs oracle with tolerance gate")
    _add_param_args(p)
    p.add_argument("--box", type=int, nargs=2, metavar=("N1", "N2"))
    p.add_argument("--tol", type=float, default=5e-3)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a later rebinding of cmd_* is honoured
        return globals()[f"cmd_{args.command}"](args)
    except QwblockError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
