"""Command-line front end: bound evaluation, sweeps, claim verification,
Monte Carlo mutual information, and the finite-alphabet solver.

Exit codes: 0 on success (including when claim violations are found — those
are results, not errors), 2 on flag parse errors, 3 when a theorem
precondition or other domain contract is violated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds_norcsi as bn
from . import bounds_rcsi as br
from .errors import FileInaccessible, SpecInvalid, ToolkitError, malformed
from .fading import entropy_power_alpha, parse_distribution
from .gauss_mi import CostaAssignment, mi_monte_carlo
from .gp import GPInstance, binary_nonoise_instance, optimize_alternating
from .harness import CLAIMED, THEOREMS, SweepSpec, _preset_specs, emit, run_sweep, verify_claims

_EXIT_PRECONDITION = 3


def _build_parser():
    p = argparse.ArgumentParser(
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
    b.add_argument("--c", type=float, default=1.0, help="interference gain")
    b.add_argument("--mu-A", type=float, default=0.0, help="fading mean")
    b.add_argument("--Q", type=float, default=1.0, help="state variance (phase theorem)")
    b.add_argument("--delta", type=float, default=math.pi / 2,
                   help="phase half-angle in radians (phase theorem)")
    b.add_argument("--dist", default="gaussian",
                   help="fading law: shorthand name or JSON literal")
    b.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"),
                   help="interval I for the continuous theorem")

    s = sub.add_parser("sweep", help="run a parameter sweep")
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--preset", default=None,
                      help="named sweep preset (e.g. gaussian-smoke, mass-half)")
    mode.add_argument("--theorem", default=None, choices=THEOREMS)
    s.add_argument("--dist", default=None, help="fading law for --theorem sweeps")
    s.add_argument("--P-grid", default=None, help="comma-separated P values")
    s.add_argument("--c2-grid", default=None, help="comma-separated c^2 values")
    s.add_argument("--Q-grid", default=None, help="comma-separated Q values")
    s.add_argument("--delta", type=float, default=None,
                   help="phase half-angle in radians (default pi/2)")
    add_output(s)

    v = sub.add_parser("verify", help="check the gap claims on canonical grids")
    v.add_argument("--preset", default="all", choices=["all", *CLAIMED, "gaussian-smoke"],
                   help="which claim family to verify")
    v.add_argument("--grid", default="smoke", choices=["smoke", "full"],
                   help="grid density")
    add_output(v)

    m = sub.add_parser("mi", help="Monte Carlo mutual information estimate")
    m.add_argument("--P", type=float, required=True)
    m.add_argument("--c", type=float, default=1.0)
    m.add_argument("--mu-A", type=float, default=0.0)
    m.add_argument("--dist", default="two-point")
    m.add_argument("--a-target", type=float, default=0.0,
                   help="fading value the Costa codeword precodes against")
    m.add_argument("--k", type=float, default=None, help="inflation override")
    m.add_argument("--split", type=float, default=1.0,
                   help="fraction of P on the Costa codeword")
    m.add_argument("--no-rcsi", action="store_true",
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
    dist = parse_distribution(args.dist)
    params = bn.ChannelParams(P=args.P, c=args.c, mu_A=args.mu_A, Q=args.Q)
    if args.theorem == "no-rcsi":
        alpha = entropy_power_alpha(dist)
        inner, outer = bn.inner_no_rcsi(params), bn.outer_no_rcsi(params, alpha)
    elif args.theorem == "mass-half":
        mp = br.mass_half_params(dist)
        inner = br.inner_mass_half(params, dist, mp)
        outer = br.outer_mass_half(params, mp)
    elif args.theorem == "strong":
        alpha_sf = args.c ** 2 / (args.c ** 2 + 1.0)
        ok = br.strong_condition_check(dist, args.c, alpha_sf)
        sp = br.strong_params(dist, alpha_sf)
        inner = br.inner_strong(params, dist)
        outer = br.outer_strong(params, sp, condition_ok=ok)
    elif args.theorem == "phase-binomial":
        outer = br.outer_phase_binomial(params, args.delta)
        inner = br.inner_phase_binomial(params)
    else:
        interval = tuple(args.interval) if args.interval else dist.support()
        cp = br.continuous_interval_params(dist, interval)
        inner = br.inner_continuous(params, dist, cp.a_prime)
        outer = br.outer_continuous(params, cp)
    _print_json({"inner": inner.to_json(), "outer": outer.to_json()})
    return 0


def _cmd_sweep(args):
    if args.preset:
        specs = _preset_specs(args.preset, "full")
    else:
        if not args.theorem:
            raise SpecInvalid("sweep needs --preset or --theorem")
        specs = [SweepSpec(
            theorem=args.theorem,
            dist=args.dist,
            P_list=_grid(args.P_grid, SweepSpec.P_list),
            c2_list=_grid(args.c2_grid, SweepSpec.c2_list),
            Q_list=_grid(args.Q_grid, (1.0,)),
            Delta=args.delta,
        )]
    rows = []
    for spec in specs:
        rows.extend(run_sweep(spec))
    _write(emit(rows, args.format), args.out)
    return 0


def _cmd_verify(args):
    summary, rows = verify_claims(args.preset, args.grid)
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
    params = bn.ChannelParams(P=args.P, c=args.c, mu_A=args.mu_A)
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


# flags that a mode does not read, with their values when omitted
_UNREAD_BY = {
    ("sweep", "preset"): {"dist": None, "P_grid": None, "c2_grid": None, "Q_grid": None,
                          "delta": math.pi / 2},
    ("gp", "instance"): {"atoms": "[[-1,0.5],[1,0.5]]", "no_rcsi": False, "aux_size": 4},
}


def _parse(argv):
    """Parsed flags; a flag that the chosen mode would ignore is a parse
    error (exit 2), and an omitted one takes its default."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    for (command, mode), defaults in _UNREAD_BY.items():
        if args.command != command:
            continue
        for dest, default in defaults.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif getattr(args, mode) is not None:
                parser.error(f"argument --{dest.replace('_', '-')}: "
                             f"not allowed with argument --{mode}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return _COMMANDS[args.command](args)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return _EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
