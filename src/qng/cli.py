"""Command-line front end emitting CSV data for bound curves, witness scans,
loss thresholds and error bands.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure or no memory.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import cache

from .bounds import MAX_GRID_POINTS, build_bound_curve
from .error_model import normalized_bound_stats
from .fock import TruncationError
from .quasiprob import _coerce_s
from .witness import DEFAULT_CUTOFF, StateFamily, epsilon_threshold, witness_curve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
# Largest --cutoff. No command builds a d x d state: it bounds the guard's O(cutoff)
# amplitude loop (fock._member_vector), about 1.3 ms at 4096 on a 2-core x86-64.
MAX_CUTOFF = 4096


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


def _emit(path: str | None, header: str, rows) -> int:
    """Write the header and one CSV line per row, each value through _fmt, to
    path (stdout for None or "-"); the whole text is built before path is
    opened, so a failing row leaves no file behind."""
    text = "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _families(args, step: float | None) -> list[StateFamily]:
    spec = {"fock": args.m, "pac": args.alpha, "pss": args.r}[args.family]
    if spec is None:
        raise ValueError(f"family {args.family!r} needs its parameter flag")
    return [StateFamily(kind=args.family, param=p) for p in parse_range(spec, step)]


def cmd_bound_curve(args) -> int:
    return _emit(args.out, "n,bound,m_opt",
                 build_bound_curve(args.s, args.n_max, args.step))


def cmd_threshold(args) -> int:
    families, s_values = _families(args, args.step), parse_s_list(args.s)
    return _emit(args.out, "family_param,s,criterion,epsilon_star", (
        (family.param, s, args.criterion,
         epsilon_threshold(family, s, criterion=args.criterion, tol=args.tol,
                           cutoff=args.cutoff).epsilon_star)
        for family in families for s in s_values))


def cmd_witness_curve(args) -> int:
    (family,) = _families(args, None)  # one member: a range needs a step
    s_values = parse_s_list(args.s)
    eps_values = parse_range(args.eps, args.eps_step)
    deltas = witness_curve(family, s_values, eps_values, args.criterion,
                           cutoff=args.cutoff)
    return _emit(args.out, "epsilon,s,delta", (
        (eps, s, delta) for eps, row in zip(eps_values, deltas)
        for s, delta in zip(s_values, row)))


def cmd_error_bars(args) -> int:
    s_values = [_coerce_s(s) for s in parse_s_list(args.s)]
    grid = parse_range(args.n_avg, args.step)
    return _emit(args.out, f"# k={args.k}\ns,n_avg,mean,std", (
        (s, n_avg, *normalized_bound_stats(s, n_avg, args.k))
        for s in s_values for n_avg in grid))


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ValueError, so main exits 2 with one error line
    as for every other invalid argument, and reads every argument that starts
    with a minus and a digit (-1,-2 or -1e-3, not only -1 and -1.5) as a
    value: no qng flag starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise ValueError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    parser = _Parser(
        prog="qng",
        description="Quantum non-Gaussianity witnesses from phase-space bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound-curve", help="tabulate the hull bound over n")
    pb.add_argument("--s", type=float, required=True)
    pb.add_argument("--n-max", type=float, required=True)
    pb.add_argument("--step", type=float, required=True)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_bound_curve)

    def cutoff(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not 1 <= value <= MAX_CUTOFF:
            raise argparse.ArgumentTypeError(
                f"must be in [1, {MAX_CUTOFF}], got {text}")
        return value

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
        p.add_argument("--cutoff", type=cutoff, default=DEFAULT_CUTOFF)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TruncationError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
