"""Parameter sweeps over the bound evaluators, gap-claim checks, and report
emission.

Each grid point yields one GapReport row: inner and outer bound, measured
gap, the claimed gap constant of the relevant theorem, and whether the
claim held.  Claim violations are data, not errors — the point of the sweep
is to surface where the printed constants fail numerically.  Rows are
produced in deterministic grid order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import bounds_norcsi as bn
from . import bounds_rcsi as br
from .errors import SpecInvalid, UnsupportedFormat, ZeroGain
from .fading import (
    FadingDistribution,
    binomial_fading,
    entropy_power_alpha,
    geometric_fading,
    parse_distribution,
    strong_support,
)

THEOREMS = ("no-rcsi", "mass-half", "strong", "phase-binomial", "continuous")
CLAIMED = THEOREMS[:-1]  # the theorems with a claimed gap and a verify preset

CANONICAL_P = (0.1, 1.0, 10.0, 100.0, 1000.0)
CANONICAL_C2 = (0.25, 1.0, 3.0, 10.0, 100.0, 1e4)
SMOKE_P = (1.0, 100.0)
SMOKE_C2 = (1.0, 10.0, 100.0)

CSV_COLUMNS = (
    "theorem", "branch_inner", "branch_outer", "P", "c2", "mu_A", "dist_id",
    "inner_bits", "outer_bits", "measured_gap", "claimed_gap", "satisfied",
    "assumptions_ok",
)


@dataclass(frozen=True)
class SweepSpec:
    theorem: str
    dist: object = None          # FadingDistribution, JSON literal, or shorthand
    P_list: tuple = CANONICAL_P
    c2_list: tuple = CANONICAL_C2
    Q_list: tuple = (1.0,)       # phase-fading theorem only
    Delta: float = math.pi / 2   # phase-fading theorem only
    dist_id: str = None

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise SpecInvalid(f"unknown theorem {self.theorem!r}; choose from {THEOREMS}")
        for name, grid in (("P_list", self.P_list), ("c2_list", self.c2_list),
                           ("Q_list", self.Q_list)):
            if len(grid) == 0:
                raise SpecInvalid(f"{name} is empty")
            if any(not math.isfinite(v) for v in grid):
                raise SpecInvalid(f"{name} contains a non-finite value")
        if any(p < 0 for p in self.P_list):
            raise SpecInvalid("P values must be >= 0")
        if any(c2 < 0 for c2 in self.c2_list):
            raise SpecInvalid("c2 values must be >= 0")

    def resolved_dist(self) -> FadingDistribution:
        if self.dist is None:
            raise SpecInvalid(f"theorem {self.theorem!r} needs a distribution")
        return parse_distribution(self.dist)


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

    def to_row(self):
        return [getattr(self, c) for c in CSV_COLUMNS]

    def to_json(self):
        return {c: getattr(self, c) for c in CSV_COLUMNS}


def _report(theorem, inner, outer, P, c2, mu_A, dist_id, claimed, assumptions_ok):
    measured = outer.bits - inner.bits
    return GapReport(
        theorem=theorem, branch_inner=inner.branch, branch_outer=outer.branch,
        P=float(P), c2=float(c2), mu_A=float(mu_A), dist_id=dist_id,
        inner_bits=float(inner.bits), outer_bits=float(outer.bits),
        measured_gap=float(measured), claimed_gap=float(claimed),
        satisfied=bool(measured <= claimed + 1e-9),
        assumptions_ok=bool(assumptions_ok),
    )


def _no_rcsi_points(dist):
    alpha = entropy_power_alpha(dist)
    claimed = bn.gap_no_rcsi(alpha)

    def point(params, c2):
        inner = bn.inner_no_rcsi(params)
        try:
            outer = bn.outer_no_rcsi(params, alpha)
            ok = c2 >= 3.0  # paper's partial-approximate-capacity regime
        except ZeroGain:
            outer = bn.RateBound(bits=0.5 * math.log2(1 + params.P), theorem="no-rcsi-outer",
                                 branch="awgn-fallback", assumptions_ok={})
            ok = False
        return inner, outer, claimed, ok
    return point


def _mass_half_points(dist):
    try:
        mp = br.mass_half_params(dist)
        ok = True
    except br.NoDominantAtom:
        if not dist.is_discrete:
            raise
        # evaluate anyway against the largest atom; flagged as out of scope
        mp = br.gap_params_at(dist, int(np.argmax(dist.probs)))
        ok = False
    claimed = mp.G_prime - mp.G + 3.0

    def point(params, c2):
        return br.inner_mass_half(params, dist, mp), br.outer_mass_half(params, mp), claimed, ok
    return point


def _strong_points(dist):
    by_c2 = {}  # the spacing condition and G-tilde depend on c, not on P

    def point(params, c2):
        if c2 not in by_c2:
            alpha_sf = c2 / (c2 + 1.0)
            by_c2[c2] = (br.strong_condition_check(dist, params.c, alpha_sf),
                         br.strong_params(dist, alpha_sf))
        ok, sp = by_c2[c2]
        inner = br.inner_strong(params, dist)
        # ZeroGain at c = 0 before the claim's log2(alpha_sf) can fail
        outer = br.outer_strong(params, sp, condition_ok=True)
        claimed = max(math.log2(sp.alpha_sf) / 2.0 - sp.G_tilde + 3.0, 1.0)
        return inner, outer, claimed, ok
    return point


def _continuous_points(dist):
    cp = br.continuous_interval_params(dist, dist.support())

    def point(params, c2):
        outer = br.outer_continuous(params, cp)
        inner = br.inner_continuous(params, dist, cp.a_prime)
        return inner, outer, float("nan"), cp.prob_I >= 0.5
    return point


def _point_phase(spec, P, Q):
    c_eff2 = math.sin(spec.Delta) ** 2 * Q
    params = bn.ChannelParams(P=P, c=0.0, Q=Q)
    outer = br.outer_phase_binomial(params, spec.Delta)
    inner = br.inner_phase_binomial(params)
    return _report("phase-binomial", inner, outer, P, c_eff2, 0.0,
                   f"phase{spec.Delta:.4g}", 3.0, True)


# theorem -> factory(dist) that computes the law's constants once and
# returns point(params, c2) -> (inner, outer, claimed gap, assumptions ok)
_LAW_POINTS = {
    "no-rcsi": _no_rcsi_points,
    "mass-half": _mass_half_points,
    "strong": _strong_points,
    "continuous": _continuous_points,
}


def run_sweep(spec: SweepSpec):
    """Evaluate the theorem's bounds over the grid; one GapReport per point,
    in grid order.  Points violating the theorem's preconditions are kept
    and flagged with assumptions_ok=False rather than dropped.

    The constants that depend only on the law are computed once per sweep.
    """
    if spec.theorem == "phase-binomial":
        return [_point_phase(spec, P, Q) for P in spec.P_list for Q in spec.Q_list]
    dist = spec.resolved_dist()
    dist_id, mu = spec.dist_id or dist.label(), dist.mean
    point = _LAW_POINTS[spec.theorem](dist)
    rows = []
    for P in spec.P_list:
        for c2 in spec.c2_list:
            params = bn.ChannelParams(P=P, c=math.sqrt(c2), mu_A=mu)
            inner, outer, claimed, ok = point(params, c2)
            rows.append(_report(spec.theorem, inner, outer, P, c2, mu, dist_id, claimed, ok))
    return rows


# ---------------------------------------------------------------------------
# claim presets
# ---------------------------------------------------------------------------

def _preset_specs(theorem: str, preset: str):
    P = SMOKE_P if preset == "smoke" else CANONICAL_P
    c2 = SMOKE_C2 if preset == "smoke" else CANONICAL_C2
    if theorem == "gaussian-smoke":
        return [SweepSpec("no-rcsi", dist="gaussian", P_list=(1.0, 10.0, 100.0),
                          c2_list=(4.0, 16.0, 64.0))]
    if theorem == "no-rcsi":
        dists = ["gaussian", "uniform"] if preset == "smoke" else ["gaussian", "uniform", "rayleigh"]
        return [SweepSpec("no-rcsi", dist=d, P_list=P, c2_list=c2) for d in dists]
    if theorem == "mass-half":
        specs = [
            SweepSpec("mass-half", dist="two-point", P_list=P, c2_list=c2, dist_id="two-point"),
            # p = 0.55 keeps the dominant mass >= 1/2 while avoiding the
            # lattice point at exactly 0 that p = 0.5 produces (rejected by
            # the G' divergence contract)
            SweepSpec("mass-half", dist=geometric_fading(0.55), P_list=P, c2_list=c2,
                      dist_id="geometric0.55"),
            SweepSpec("mass-half", dist=binomial_fading(1, 0.5), P_list=P, c2_list=c2,
                      dist_id="binomial1"),
        ]
        if preset != "smoke":
            specs.append(SweepSpec("mass-half", dist=binomial_fading(2, 0.5), P_list=P,
                                   c2_list=c2, dist_id="binomial2"))
        return specs
    if theorem == "strong":
        Ms = (3, 4) if preset == "smoke" else (3, 4, 5)
        return [SweepSpec("strong", dist=strong_support(M, c), P_list=P,
                          c2_list=(c * c,), dist_id=f"strongM{M}")
                for M in Ms for c in (2.0, 4.0, 8.0)]
    if theorem == "phase-binomial":
        return [SweepSpec("phase-binomial", P_list=P, Q_list=(0.25, 1.0, 4.0, 16.0),
                          Delta=d) for d in ((math.pi / 2,) if preset == "smoke"
                                             else (math.pi / 4, math.pi / 2))]
    raise SpecInvalid(f"unknown preset {theorem!r}")


def verify_claims(theorem: str = "all", preset: str = "smoke"):
    """Run the canonical grids for one theorem (or 'all') and summarize.

    Returns (summary, rows).  Never asserts: violated claims are counted and
    reported, with the worst measured gap and worst excess over the claim.
    """
    names = CLAIMED if theorem == "all" else (theorem,)
    rows = []
    for name in names:
        for spec in _preset_specs(name, preset):
            rows.extend(run_sweep(spec))
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
        lines += [sep.join(_fmt(v) for v in r.to_row()) for r in rows]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = [{k: (("%.12g" % v) if isinstance(v, float) else v)
                    for k, v in r.to_json().items()} for r in rows]
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
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0

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
