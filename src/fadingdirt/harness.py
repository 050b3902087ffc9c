"""Parameter sweeps over the bound evaluators, gap-claim checks, and report
emission.

Each grid point yields one GapReport row: inner and outer bound, measured
gap, the claimed gap constant of the relevant theorem, and whether the
claim held.  Claim violations are data, not errors — the point of the sweep
is to surface where the printed constants fail numerically.  Rows are
produced in deterministic grid order.

Each theorem is declared once, in `_TABLE`: its evaluator, the inputs it
reads besides P and c, and its claim grids; `THEOREMS`, `CLAIMED`, `verify`
and the CLI's flag rules read it.  `point_bounds` runs the sweep's evaluator
at one point and raises where a sweep keeps the row: ZeroGain for no-rcsi at
c = 0 (a sweep takes the AWGN outer bound), ConditionNotVerified for strong
(a sweep flags the row) and NoDominantAtom for mass-half on a discrete law
with no atom of mass >= 1/2 (a sweep takes the largest atom).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from . import bounds_norcsi as bn
from . import bounds_rcsi as br
from .errors import ConditionNotVerified, SpecInvalid, UnsupportedFormat, ZeroGain
from .fading import (
    binomial_fading,
    entropy_power_alpha,
    geometric_fading,
    parse_distribution,
    strong_support,
)

CANONICAL_P = (0.1, 1.0, 10.0, 100.0, 1000.0)
CANONICAL_C2 = (0.25, 1.0, 3.0, 10.0, 100.0, 1e4)


@dataclass(frozen=True)
class SweepSpec:
    theorem: str
    dist: object = None          # FadingDistribution, JSON literal, or shorthand
    P_list: tuple = CANONICAL_P
    c2_list: tuple = CANONICAL_C2  # the state power Q for the phase-fading theorem
    Delta: float = math.pi / 2     # phase-fading theorem only
    dist_id: str = None

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise SpecInvalid(f"unknown theorem {self.theorem!r}; choose from {THEOREMS}")
        for name, grid in (("P_list", self.P_list), ("c2_list", self.c2_list)):
            if len(grid) == 0:
                raise SpecInvalid(f"{name} is empty")
            if any(not math.isfinite(v) for v in grid):
                raise SpecInvalid(f"{name} contains a non-finite value")
        if any(p < 0 for p in self.P_list):
            raise SpecInvalid("P values must be >= 0")
        if any(c2 < 0 for c2 in self.c2_list):
            raise SpecInvalid("c2 values must be >= 0")


@dataclass(frozen=True)
class GapReport:
    theorem: str
    branch_inner: str
    branch_outer: str
    P: float
    c2: float
    mu_A: float
    dist_id: str
    inner_bits: float
    outer_bits: float
    measured_gap: float
    claimed_gap: float
    satisfied: bool
    assumptions_ok: bool


CSV_COLUMNS = tuple(f.name for f in fields(GapReport))


class _Points(NamedTuple):  # one theorem's evaluator and the columns its rows share
    point: Callable   # (params, c2=None) -> (inner, outer, claimed gap, assumptions ok)
    mu_A: float
    dist_id: str
    c2_scale: float = 1.0  # the row's c2 column per grid c2


def _square(params, c2):  # the grid's c^2, or c squared at a `bounds` point
    return bn.finite_square(params.c, "c") if c2 is None else c2


def _no_rcsi_points(dist, strict=False, **_):
    alpha = entropy_power_alpha(dist)
    claimed = bn.gap_no_rcsi(alpha)

    def point(params, c2=None):
        inner = bn.inner_no_rcsi(params)
        try:
            outer = bn.outer_no_rcsi(params, alpha)
            # the paper's partial-approximate-capacity regime (c * c at a `bounds` point)
            ok = (params.c * params.c if c2 is None else c2) >= 3.0
        except ZeroGain:
            if strict:
                raise
            outer = bn.pick("no-rcsi-outer",
                            [(0.5 * math.log2(1 + params.P), "awgn-fallback", True)], {})
            ok = False
        return inner, outer, claimed, ok
    return _Points(point, dist.mean, dist.label())


def _mass_half_points(dist, strict=False, **_):
    try:
        mp = br.mass_half_params(dist)
    except br.NoDominantAtom:
        if strict or not dist.is_discrete:
            raise
        # evaluate anyway against the largest atom; its bounds flag it out of scope
        mp = br.gap_params_at(dist)
    claimed = mp.G_prime - mp.G + 3.0

    def point(params, c2=None):
        inner = br.inner_mass_half(params, dist, mp)
        outer = br.outer_mass_half(params, mp)
        return inner, outer, claimed, outer.assumptions_ok["dominant_mass"]
    return _Points(point, dist.mean, dist.label())


def _strong_points(dist, strict=False, **_):
    by_c2 = {}  # alpha_sf and the spacing condition depend on c, not on P

    def point(params, c2=None):
        c2 = _square(params, c2)
        if c2 not in by_c2:
            by_c2[c2] = br.strong_params(dist, c2)
        sp = by_c2[c2]
        if strict and not sp.condition_ok:
            raise ConditionNotVerified("spacing condition not verified for this support")
        inner = br.inner_strong(params, dist)
        # ZeroGain at c = 0 before the claim's log2(alpha_sf) can fail
        outer = br.outer_strong(params, sp)
        claimed = max(math.log2(sp.alpha_sf) / 2.0 - sp.G_tilde + 3.0, 1.0)
        return inner, outer, claimed, sp.condition_ok
    return _Points(point, dist.mean, dist.label())


def _continuous_points(dist, interval=None, **_):
    cp = br.continuous_interval_params(dist, interval or dist.support())

    def point(params, c2=None):
        outer = br.outer_continuous(params, cp)
        inner = br.inner_continuous(params, dist, cp.a_prime)
        return inner, outer, float("nan"), outer.assumptions_ok["prob_I_half"]
    return _Points(point, dist.mean, dist.label())


def _phase_points(Delta, **_):  # phase fading exp(+-j Delta) on a state of power Q = c^2
    br.check_delta(Delta)  # before sin, which raises a bare ValueError on +-inf

    def point(params, c2=None):
        Q = _square(params, c2)
        outer = br.outer_phase_binomial(params.P, Q, Delta)
        inner = br.inner_phase_binomial(params.P, Q)
        return inner, outer, 3.0, True
    # the row's c2 column is the effective gain sin^2(Delta) Q
    return _Points(point, 0.0, f"phase{Delta:.4g}", math.sin(Delta) ** 2)


class _Theorem(NamedTuple):
    # factory(dist=, Delta=, interval=, strict=) -> _Points, with the law's
    # constants computed once.  Only `point_bounds` sets interval (the continuous
    # theorem's I, default the support) and strict, which raises where a sweep keeps the row.
    points: Callable
    reads: tuple            # its inputs besides P and c: "dist", "delta", "interval"
    claims: Callable = None  # () -> the SweepSpec fields of each claim grid, unset grids canonical


_TABLE = {
    "no-rcsi": _Theorem(_no_rcsi_points, ("dist",), lambda: [
        {"dist": d} for d in ("gaussian", "uniform", "rayleigh")]),
    "mass-half": _Theorem(_mass_half_points, ("dist",), lambda: [
        {"dist": "two-point", "dist_id": "two-point"},
        # p = 0.55 keeps the dominant mass >= 1/2 while avoiding the lattice point
        # at exactly 0 that p = 0.5 produces (rejected by the G' divergence contract)
        {"dist": geometric_fading(0.55), "dist_id": "geometric0.55"},
        {"dist": binomial_fading(1, 0.5), "dist_id": "binomial1"},
        {"dist": binomial_fading(2, 0.5), "dist_id": "binomial2"}]),
    "strong": _Theorem(_strong_points, ("dist",), lambda: [
        {"dist": strong_support(M, c), "c2_list": (c * c,), "dist_id": f"strongM{M}"}
        for M in (3, 4, 5) for c in (2.0, 4.0, 8.0)]),
    "phase-binomial": _Theorem(_phase_points, ("delta",), lambda: [
        {"c2_list": (0.25, 1.0, 4.0, 16.0), "Delta": d} for d in (math.pi / 4, math.pi / 2)]),
    "continuous": _Theorem(_continuous_points, ("dist", "interval")),
}
THEOREMS = tuple(_TABLE)
CLAIMED = tuple(t for t in THEOREMS if _TABLE[t].claims)  # the theorems with a verify preset


def not_reading(name):
    """The theorems that do not read the input `name`: "dist", "delta" or "interval"."""
    return tuple(t for t in THEOREMS if name not in _TABLE[t].reads)


def _law(theorem, dist):
    """The parsed law of a theorem that reads one, else None."""
    if "dist" not in _TABLE[theorem].reads:
        return None
    if dist is None:
        raise SpecInvalid(f"theorem {theorem!r} needs a distribution")
    return parse_distribution(dist)


def point_bounds(theorem, P, c, *, dist, Delta, interval):
    """(inner, outer) of one theorem at one (P, c) point by the sweep's
    evaluator, raising where a sweep keeps the row."""
    law = _law(theorem, dist)  # the law, then P and c, then the law's constants
    params = bn.ChannelParams(P=P, c=c)
    points = _TABLE[theorem].points(dist=law, Delta=Delta, interval=interval, strict=True)
    return points.point(params)[:2]


def run_sweep(spec: SweepSpec):
    """Evaluate the theorem's bounds over the grid; one GapReport per point,
    in grid order.  Points violating the theorem's preconditions are kept
    and flagged with assumptions_ok=False rather than dropped.

    The constants that depend only on the law are computed once per sweep.
    """
    points = _TABLE[spec.theorem].points(dist=_law(spec.theorem, spec.dist), Delta=spec.Delta)
    dist_id = spec.dist_id or points.dist_id
    rows = []
    for P in spec.P_list:
        for c2 in spec.c2_list:
            params = bn.ChannelParams(P=P, c=math.sqrt(c2))
            inner, outer, claimed, ok = points.point(params, c2)
            measured = outer.bits - inner.bits
            rows.append(GapReport(
                theorem=spec.theorem, branch_inner=inner.branch, branch_outer=outer.branch,
                P=float(P), c2=float(points.c2_scale * c2), mu_A=float(points.mu_A),
                dist_id=dist_id, inner_bits=float(inner.bits), outer_bits=float(outer.bits),
                measured_gap=float(measured), claimed_gap=float(claimed),
                satisfied=bool(measured <= claimed + 1e-9), assumptions_ok=bool(ok)))
    return rows


def verify_claims(theorem: str = "all"):
    """Run the claim grids for one theorem (or 'all') and summarize.

    Returns (summary, rows).  Never asserts: violated claims are counted and
    reported, with the worst measured gap and worst excess over the claim.
    """
    if theorem != "all" and theorem not in CLAIMED:
        raise SpecInvalid(f"unknown preset {theorem!r}")
    rows = [row for name in (CLAIMED if theorem == "all" else (theorem,))
            for grid in _TABLE[name].claims() for row in run_sweep(SweepSpec(name, **grid))]
    checked = [r for r in rows if r.assumptions_ok]
    summary = {
        "points": len(rows),
        "checked": len(checked),
        "satisfied": sum(r.satisfied for r in checked),
        "violated": sum(not r.satisfied for r in checked),
        "worst_gap": max((r.measured_gap for r in rows), default=float("nan")),
        "worst_excess": max((r.measured_gap - r.claimed_gap for r in checked),
                            default=float("nan")),
    }
    return summary, rows


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


# text table formats: column separator and header-line prefix
_TABLES = {"csv": (",", ""), "plotdata": (" ", "# ")}


def emit(rows, fmt: str) -> bytes:
    """Serialize GapReport rows to deterministic bytes."""
    if not rows:
        raise UnsupportedFormat("empty report table")
    if fmt in _TABLES:
        sep, prefix = _TABLES[fmt]
        lines = [prefix + sep.join(CSV_COLUMNS)]
        lines += [sep.join(_fmt(getattr(r, c)) for c in CSV_COLUMNS) for r in rows]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = [{c: (("%.12g" % v) if isinstance(v, float) else v)
                    for c in CSV_COLUMNS for v in (getattr(r, c),)} for r in rows]
        return (json.dumps(payload, indent=1, sort_keys=False) + "\n").encode()
    if fmt == "svg":
        return _emit_svg(rows)
    raise UnsupportedFormat(f"unknown format {fmt!r}")


_SVG_W, _SVG_H, _SVG_PAD = 640, 420, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2",
           "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e")


def _emit_svg(rows) -> bytes:
    series = {}
    for r in rows:
        series.setdefault((r.theorem, r.dist_id, r.P), []).append(r)
    xs = [math.log10(r.c2) for r in rows if r.c2 > 0] or [0.0]
    ys = [v for r in rows for v in (r.inner_bits, r.outer_bits) if math.isfinite(v)]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys + [1.0])
    if x1 - x0 < 1e-12:
        x1 = x0 + 1.0

    def px(x):
        return _SVG_PAD + (x - x0) / (x1 - x0) * (_SVG_W - 2 * _SVG_PAD)

    def py(y):
        return _SVG_H - _SVG_PAD - (y - y0) / (y1 - y0) * (_SVG_H - 2 * _SVG_PAD)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_SVG_PAD}" y1="{_SVG_H - _SVG_PAD}" x2="{_SVG_W - _SVG_PAD}" '
        f'y2="{_SVG_H - _SVG_PAD}" stroke="black"/>',
        f'<line x1="{_SVG_PAD}" y1="{_SVG_PAD}" x2="{_SVG_PAD}" '
        f'y2="{_SVG_H - _SVG_PAD}" stroke="black"/>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 10}" text-anchor="middle" '
        f'font-size="12">log10(c^2)</text>',
        f'<text x="15" y="{_SVG_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {_SVG_H // 2})">bits/channel-use</text>',
    ]
    for i, key in enumerate(sorted(series, key=str)):
        pts = sorted(series[key], key=lambda r: r.c2)
        color = _COLORS[i % len(_COLORS)]
        for attr, dash in (("inner_bits", ""), ("outer_bits", ' stroke-dasharray="5,3"')):
            coords = " ".join(
                "%.6g,%.6g" % (px(math.log10(max(r.c2, 1e-12))), py(getattr(r, attr)))
                for r in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}"{dash}/>')
        label = "%s %s P=%.6g" % key
        parts.append(f'<text x="{_SVG_W - _SVG_PAD + 2}" y="{_SVG_PAD + 14 * i}" '
                     f'font-size="9" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()
