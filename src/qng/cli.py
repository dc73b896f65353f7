"""Command-line front end emitting CSV data for bound curves, witness scans,
loss thresholds and error bands.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure or no memory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bounds import MAX_GRID_POINTS, build_bound_curve
from .error_model import ErrorSpec, bound_error_curve
from .fock import TruncationError
from .witness import StateFamily, epsilon_threshold, witness_at_loss

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return f"{x:.17g}"


def parse_range(text: str, step: float | None) -> list[float]:
    """Parse 'lo..hi' (finite, lo <= hi, needs --step) or a single number."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = float(lo_s), float(hi_s)
        if step is None or not 0 < step < math.inf:
            raise ValueError("range arguments need a positive finite --step")
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValueError(f"range {text!r} needs finite ends with lo <= hi")
        if (hi - lo) / step + 1 > MAX_GRID_POINTS:
            raise ValueError(f"range {text!r} with step {step:g} exceeds "
                             f"{MAX_GRID_POINTS} values")
        values = []
        v = lo
        while v <= hi + step * 1e-9:
            values.append(round(v, 12))
            if v + step == v:
                raise ValueError(f"step {step:g} does not advance range {text!r}")
            v += step
        return values
    return [float(text)]


def parse_s_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ValueError(f"--s {text!r} names no ordering parameter")
    return values


def _write(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w") as fh:
            fh.write(content)


def _family_args(args) -> list[float]:
    spec = {"fock": args.m, "pac": args.alpha, "pss": args.r}[args.family]
    if spec is None:
        raise ValueError(f"family {args.family!r} needs its parameter flag")
    params = parse_range(spec, args.step)
    if args.family == "fock":
        if not all(p.is_integer() for p in params):
            raise ValueError(f"Fock number m must be an integer, got {spec!r}")
        params = [float(int(p)) for p in params]
    return params


def cmd_bound_curve(args) -> int:
    curve = build_bound_curve(args.s, args.n_max, args.step)
    _write(args.out, curve.to_csv())
    return EXIT_OK


def cmd_threshold(args) -> int:
    params = _family_args(args)
    s_values = parse_s_list(args.s)
    lines = ["family_param,s,criterion,epsilon_star"]
    for p in params:
        family = StateFamily(kind=args.family, param=p)
        for s in s_values:
            res = epsilon_threshold(family, s, criterion=args.criterion,
                                    tol=args.tol, cutoff=args.cutoff,
                                    nbar_slack=args.nbar_slack)
            lines.append(",".join([_fmt(p), _fmt(s), args.criterion,
                                   _fmt(res.epsilon_star)]))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_witness_curve(args) -> int:
    params = _family_args(args)
    if len(params) != 1:
        raise ValueError("witness-curve takes a single family parameter")
    family = StateFamily(kind=args.family, param=params[0])
    s_values = parse_s_list(args.s)
    eps_values = parse_range(args.eps, args.eps_step)
    lines = ["epsilon,s,delta"]
    for eps in eps_values:
        for s in s_values:
            rep = witness_at_loss(family, s, eps, args.criterion,
                                  cutoff=args.cutoff,
                                  nbar_slack=args.nbar_slack)
            lines.append(",".join([_fmt(eps), _fmt(s), _fmt(rep.delta)]))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_error_bars(args) -> int:
    s_values = parse_s_list(args.s)
    grid = parse_range(args.n_avg, args.step)
    spec = ErrorSpec(k=args.k, n_avg_grid=grid, s_list=s_values)
    lines = [f"# k={args.k}", "s,n_avg,mean,std"]
    for row in bound_error_curve(spec):
        lines.append(",".join(_fmt(v) for v in
                              (row.s, row.n_avg, row.mean, row.std)))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qng",
        description="Quantum non-Gaussianity witnesses from phase-space bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound-curve", help="tabulate the hull bound over n")
    pb.add_argument("--s", type=float, required=True)
    pb.add_argument("--n-max", type=float, required=True)
    pb.add_argument("--step", type=float, required=True)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_bound_curve)

    def positive_int(text: str) -> int:
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
        return int(text)

    def add_family_flags(p):
        p.add_argument("--family", choices=("fock", "pac", "pss"),
                       required=True)
        p.add_argument("--m", default=None,
                       help="Fock number or range lo..hi")
        p.add_argument("--alpha", default=None,
                       help="PAC amplitude or range lo..hi")
        p.add_argument("--r", default=None,
                       help="PSS squeezing or range lo..hi")
        p.add_argument("--s", required=True,
                       help="comma-separated ordering parameters, all <= 0")
        p.add_argument("--cutoff", type=positive_int,
                       default=os.environ.get("QNG_DEFAULT_CUTOFF", "80"))
        p.add_argument("--nbar-slack", type=float, default=0.0)
        p.add_argument("--out", default=None)

    pt = sub.add_parser("threshold", help="scan loss thresholds per family")
    add_family_flags(pt)
    pt.add_argument("--step", type=float, default=1.0,
                    help="step for the family parameter range")
    pt.add_argument("--criterion", choices=("a", "b"), default="a")
    pt.add_argument("--tol", type=float, default=1e-5)
    pt.set_defaults(func=cmd_threshold)

    pw = sub.add_parser("witness-curve",
                        help="witness value vs loss for one state")
    add_family_flags(pw)
    pw.add_argument("--step", type=float, default=None,
                    help="step for the family parameter range (single value)")
    pw.add_argument("--eps", required=True, help="loss value or range lo..hi")
    pw.add_argument("--eps-step", type=float, default=None)
    pw.add_argument("--criterion", choices=("a", "b"), default="a")
    pw.set_defaults(func=cmd_witness_curve)

    pe = sub.add_parser("error-bars",
                        help="Poisson error bands of the normalized bounds")
    pe.add_argument("--s", required=True)
    pe.add_argument("--n-avg", required=True, help="value or range lo..hi")
    pe.add_argument("--step", type=float, default=None)
    pe.add_argument("--k", type=int, default=100)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_error_bars)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TruncationError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
