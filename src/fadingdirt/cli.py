"""Command-line front end: bound evaluation, sweeps, claim verification,
Monte Carlo mutual information, and the finite-alphabet solver.

Exit codes: 0 on success (including when claim violations are found — those
are results, not errors), 2 on flag parse errors, 3 when a theorem
precondition or other domain contract is violated.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from . import bounds_norcsi as bn
from .errors import FileInaccessible, SpecInvalid, ToolkitError, malformed
from .fading import parse_distribution
from .gauss_mi import CostaAssignment, mi_monte_carlo
from .gp import GPInstance, binary_nonoise_instance, optimize_alternating
from .harness import CLAIMED, THEOREMS, SweepSpec, emit, not_reading, point_bounds, run_sweep
from .harness import verify_claims

_EXIT_PRECONDITION = 3


class _Parser(argparse.ArgumentParser):
    """A parser that reads every token float() accepts, such as -1e-3 or
    -inf, as a value: argparse's own negative-number pattern has no exponent
    or infinity form, so it took those for unknown flags.  Subparsers are
    built from the parent's class."""

    def _parse_optional(self, arg_string):  # argparse's token classifier: None marks a value
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache  # parsing reads the parser and does not change it
def _build_parser():
    p = _Parser(
        prog="fadingdirt",
        description="Capacity bound toolkit for channels with fast-fading "
                    "interference known at the transmitter.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--format", default="csv",
                        choices=["csv", "json", "plotdata", "svg"],
                        help="output serialization")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")

    b = sub.add_parser("bounds", help="evaluate one (P, c) point")
    b.add_argument("--theorem", required=True, choices=THEOREMS)
    b.add_argument("--P", type=float, required=True, help="input power")
    b.add_argument("--c", type=float, default=1.0,
                   help="interference gain; the phase theorem's state power is its square")
    b.add_argument("--delta", type=float, default=None,
                   help="phase half-angle in radians (phase theorem; default pi/2)")
    b.add_argument("--dist", default=None,
                   help="fading law: shorthand name or JSON literal (default gaussian)")
    b.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"),
                   help="interval I for the continuous theorem")

    s = sub.add_parser("sweep", help="run a parameter sweep")
    s.add_argument("--theorem", required=True, choices=THEOREMS)
    s.add_argument("--dist", default=None, help="fading law")
    s.add_argument("--P-grid", default=None, help="comma-separated P values")
    s.add_argument("--c2-grid", default=None,
                   help="comma-separated c^2 values (state powers Q for the phase theorem)")
    s.add_argument("--delta", type=float, default=None,
                   help="phase half-angle in radians (default pi/2)")
    add_output(s)

    v = sub.add_parser("verify", help="check the gap claims on canonical grids")
    v.add_argument("--preset", default="all", choices=["all", *CLAIMED],
                   help="which claim family to verify")
    # one grid; the flag stays only because the benchmark's workloads pass it
    v.add_argument("--grid", default="full", choices=["full"], help="claim grid")
    add_output(v)

    m = sub.add_parser("mi", help="Monte Carlo mutual information estimate")
    m.add_argument("--P", type=float, required=True)
    m.add_argument("--c", type=float, default=1.0)
    m.add_argument("--dist", default="two-point")
    m.add_argument("--a-target", type=float, default=None,
                   help="fading value the Costa codeword precodes against (default 0)")
    m.add_argument("--k", type=float, default=None, help="inflation override")
    m.add_argument("--split", type=float, default=1.0,
                   help="fraction of P on the Costa codeword")
    m.add_argument("--no-rcsi", action="store_true", default=None,
                   help="fading unknown at the receiver (mixture MI)")
    m.add_argument("--n", type=int, default=100000, help="sample count (>= 1e4)")
    m.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("gp", help="solve a finite-alphabet instance")
    source = g.add_mutually_exclusive_group()
    source.add_argument("--instance", default=None, metavar="PATH",
                        help="GPInstance JSON file")
    source.add_argument("--example", default=None, choices=["binary-nonoise"],
                        help="build a canonical instance instead of loading one")
    g.add_argument("--atoms", default=None,
                   help="fading atoms JSON for --example (default [[-1,0.5],[1,0.5]])")
    g.add_argument("--no-rcsi", action="store_true", default=None,
                   help="average the fading into the kernel for --example")
    g.add_argument("--aux-size", type=int, default=None,
                   help="auxiliary alphabet size for --example (default 4)")
    g.add_argument("--restarts", type=int, default=32)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tol", type=float, default=1e-10)
    return p


def _grid(text, default):
    if text is None:
        return default
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise SpecInvalid(f"bad grid {text!r}") from exc


def _write(data: bytes, out):
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise FileInaccessible(f"cannot write --out {out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _print_json(obj):
    sys.stdout.write(json.dumps(obj, indent=1) + "\n")


def _cmd_bounds(args):
    inner, outer = point_bounds(args.theorem, args.P, args.c, dist=args.dist,
                                Delta=args.delta, interval=args.interval)
    _print_json({"inner": inner.to_json(), "outer": outer.to_json()})
    return 0


def _cmd_sweep(args):
    spec = SweepSpec(args.theorem, dist=args.dist, Delta=args.delta,
                     P_list=_grid(args.P_grid, SweepSpec.P_list),
                     c2_list=_grid(args.c2_grid, SweepSpec.c2_list))
    _write(emit(run_sweep(spec), args.format), args.out)
    return 0


def _cmd_verify(args):
    summary, rows = verify_claims(args.preset)
    _write(emit(rows, args.format), args.out)
    sys.stderr.write(
        "verify %s/%s: %d points, %d checked, %d satisfied, %d violated, "
        "worst gap %.6g bits, worst excess %.6g bits\n"
        % (args.preset, args.grid, summary["points"], summary["checked"],
           summary["satisfied"], summary["violated"], summary["worst_gap"],
           summary["worst_excess"]))
    return 0


def _cmd_mi(args):
    dist = parse_distribution(args.dist)
    params = bn.ChannelParams(P=args.P, c=args.c)
    asg = CostaAssignment(a_target=args.a_target, inflation_k=args.k,
                          split_delta=args.split, rcsi=not args.no_rcsi)
    est, se = mi_monte_carlo(params, dist, asg, args.n, args.seed)
    _print_json({"estimate_bits": est, "stderr_bits": se, "n": args.n,
                 "seed": args.seed})
    return 0


def _cmd_gp(args):
    if args.example == "binary-nonoise":
        with malformed("--atoms"):
            inst = binary_nonoise_instance(json.loads(args.atoms), rcsi=not args.no_rcsi,
                                           aux_size=args.aux_size)
    elif args.instance:
        try:
            with open(args.instance, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise FileInaccessible(
                f"cannot read --instance {args.instance!r}: {exc.strerror}") from exc
        inst = GPInstance.from_json(data)
    else:
        raise SpecInvalid("gp needs --instance or --example")
    value, (p, x) = optimize_alternating(inst, restarts=args.restarts,
                                         seed=args.seed, tol=args.tol)
    _print_json({
        "value_bits": value,
        "p_u_given_s": [["%.12g" % v for v in row] for row in p.tolist()],
        "x_of_us": x.tolist(),
    })
    return 0


_COMMANDS = {
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "mi": _cmd_mi,
    "gp": _cmd_gp,
}

# flags that a mode does not read, with their values when omitted; a mode is
# a flag that is given (values None) or that takes one of the listed values
_UNREAD_BY = {
    ("bounds", "theorem", not_reading("delta")): {"delta": math.pi / 2},
    ("bounds", "theorem", not_reading("dist")): {"dist": "gaussian"},
    ("bounds", "theorem", not_reading("interval")): {"interval": None},
    ("sweep", "theorem", not_reading("delta")): {"delta": math.pi / 2},
    ("sweep", "theorem", not_reading("dist")): {"dist": None},
    ("mi", "no_rcsi", None): {"a_target": 0.0},
    ("mi", "k", None): {"a_target": 0.0},
    ("gp", "instance", None): {"atoms": "[[-1,0.5],[1,0.5]]", "no_rcsi": False, "aux_size": 4},
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _parse(argv):
    """Parsed flags; a flag that the chosen mode would ignore is a parse
    error (exit 2), and an omitted one takes its default."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    given = {dest for dest, value in vars(args).items() if value is not None}
    for (command, mode, values), defaults in _UNREAD_BY.items():
        if command != args.command:
            continue
        chosen = getattr(args, mode)
        named = _flag(mode) if values is None else f"{_flag(mode)} {chosen}"
        for dest, default in defaults.items():
            if dest not in given:
                setattr(args, dest, default)
            elif mode in given and (values is None or chosen in values):
                parser.error(f"argument {_flag(dest)}: not allowed with argument {named}")
    return args


def _format_warning(message, category, filename, lineno, line=None):
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    args = _parse(argv)
    # one line per warning, like the error line; the warning itself still
    # goes through showwarning, so filters and catch_warnings see it
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return _COMMANDS[args.command](args)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return _EXIT_PRECONDITION
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
