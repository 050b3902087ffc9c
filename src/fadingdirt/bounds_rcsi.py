"""Capacity bounds when the receiver observes the fading sequence.

Covers the circular-binomial phase-fading recap, the dominant-atom
(mass >= 1/2) discrete theorem, the strong-fading uniform-support theorem,
and the continuous-fading outer bound.  The discrete inner strategies are
one closed-form power split at three powers abar: abar = 0 treats the
fading-times-state as noise, abar = P is Costa precoding against one fading
realization, and the split point lies between.  Each outer bound lists its
branches by name, and `pick` takes the minimum over those whose stated
condition holds: a minimum of valid outer bounds is still an outer bound,
which sidesteps ambiguous branch precedence.  Each inner bound lists the
strategies at each precoding target in turn, and `pick` takes the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds_norcsi import _C_MIN, ChannelParams, RateBound, _zero_mean, finite_square, pick
from .errors import (
    DeltaOutOfRange,
    IntervalMassTooSmall,
    NoDominantAtom,
    NonFinite,
    NotUniform,
    RootNotFound,
    ZeroAtomCollision,
    ZeroGain,
)
from .fading import Discrete, FadingDistribution, check_mass, integrate


@dataclass(frozen=True)
class MassHalfParams:
    a_prime: float
    P_prime: float  # mass of a', the largest atom
    G: float        # bits
    G_prime: float  # bits
    mu_A: float     # mean of the law


@dataclass(frozen=True)
class StrongFadingParams:
    M: int
    alpha_sf: float
    G_tilde: float       # bits
    mu_A: float          # mean of the support
    condition_ok: bool   # the spacing condition at this gain


@dataclass(frozen=True)
class ContinuousOuterParams:
    prob_I: float
    a_prime: float
    G_tilde_cont: float  # bits


def _dominant(mass) -> bool:  # the dominant-atom rule: mass >= 1/2 within 1e-12
    return mass >= 0.5 - 1e-12


def _half_interval(prob_i) -> bool:  # the interval rule: P(I) >= 1/2 within 1e-8
    return prob_i >= 0.5 - 1e-8


# ---------------------------------------------------------------------------
# phase fading (circularly binomial) recap
# ---------------------------------------------------------------------------

def check_delta(Delta: float) -> None:  # the phase theorem's range; NaN and +-inf fail it
    if not (math.pi / 4 <= Delta <= math.pi / 2):
        raise DeltaOutOfRange(f"Delta must be in [pi/4, pi/2], got {Delta!r}")


def outer_phase_binomial(P: float, Q: float, Delta: float) -> RateBound:
    """Piecewise outer bound for phase fading exp(+-j Delta) on a state of
    power Q = c^2, with effective gain c_eff = sin(Delta) sqrt(Q)."""
    check_delta(Delta)
    if Q <= 0:
        raise ZeroGain("Q must be positive")
    c2 = math.sin(Delta) ** 2 * Q
    # the conditions split the c2 axis at 1 and P + 1; only the moderate value can overflow
    moderate = 1.0 < c2 < P + 1.0
    branches = [
        (0.5 * math.log2(P + 1)
         + 0.5 * math.log2(1.0 + finite_square(math.sqrt(P) + math.sqrt(c2), "sqrt(P) + sqrt(c2)"))
         - 0.25 * math.log2(2.0 * c2) + 2.0 if moderate else math.inf,
         "moderate-interference", moderate),
        (0.75 * math.log2(P + 1) + 2.0, "strong-interference", 1.0 < c2 and c2 >= P + 1.0),
        (math.log2(P + 1) + 2.0, "weak-interference", c2 <= 1.0),
    ]
    return pick("phase-binomial-outer", branches, {"delta_in_range": True})


def inner_phase_binomial(P: float, Q: float) -> RateBound:
    """Treat the faded dirt, of power Q = c^2, as noise on the phase-fading channel."""
    return pick("phase-binomial-inner", [(0.5 * math.log2(1.0 + P / (1.0 + Q)),
                                          "treat-as-noise", True)], {})


# ---------------------------------------------------------------------------
# discrete fading with a dominant atom
# ---------------------------------------------------------------------------

def mass_half_params(dist: FadingDistribution) -> MassHalfParams:
    """Dominant atom and the two gap constants G, G' (bits)."""
    if not dist.is_discrete:
        raise NoDominantAtom("mass-half theorem needs a discrete law")
    pmax = dist.probs.max()
    if not _dominant(pmax):
        raise NoDominantAtom(f"largest atom mass {float(pmax)!r} < 1/2")
    return gap_params_at(dist)


def _spread_terms(others, a_prime, name):
    """log2((v - a')^2/v^2 + 1) for each atom v other than a': the terms of
    G' (weighted by the atom masses) and of G-tilde (summed as they are)."""
    if any(abs(v) < 1e-12 for v in others):
        raise ZeroAtomCollision(f"atom at a = 0 makes {name} diverge")
    # checked in Python floats, which overflow to inf without a numpy warning
    scales = [a_prime, *(float(v) for v in others), *(float(v) - a_prime for v in others)]
    if not all(math.isfinite(x * x) for x in scales):
        raise NonFinite(f"the squares of the atoms and their gaps overflow in {name}")
    return [math.log2((v - a_prime) ** 2 / (v * v) + 1.0) for v in others]


def gap_params_at(dist: Discrete) -> MassHalfParams:
    """The mass-half constants with the largest atom as a', whatever its
    mass; ties go to the smaller |a|, then the smaller a."""
    vals, probs = dist.values, dist.probs
    pmax = probs.max()
    i = min((j for j in range(len(vals)) if probs[j] >= pmax - 1e-12),
            key=lambda j: (abs(vals[j]), vals[j]))
    a_p = float(vals[i])
    P_p = float(probs[i])
    rest = [(v, p) for j, (v, p) in enumerate(zip(vals, probs)) if j != i]
    terms = _spread_terms([v for v, _ in rest], a_p, "the G' term")
    G = float(sum(p * math.log2((v - a_p) ** 2) for v, p in rest))
    G_prime = float(sum(p * t for (_, p), t in zip(rest, terms)))
    return MassHalfParams(a_prime=a_p, P_prime=P_p, G=G, G_prime=G_prime, mu_A=dist.mean)


def outer_mass_half(params: ChannelParams, mp: MassHalfParams) -> RateBound:
    P, c = params.P, params.c
    c2 = c * c
    Pp, Pb, G = mp.P_prime, 1.0 - mp.P_prime, mp.G
    branches = [
        (Pp / 2 * math.log2(1 + P) + 1.5 - G / 2,
         "large-gain", Pp * c2 > Pb * (P + 1)),
        (0.5 * math.log2(P + c2 + 1) - Pb / 2 * math.log2(c2) - G / 2 + 1 if c2 > 0 else math.inf,
         "pre-optimized", c2 > 0 and Pp * c2 <= Pb * (P + 1)),
    ]
    return pick("mass-half-outer", branches,
                {"dominant_mass": _dominant(Pp), "mu_A_zero": _zero_mean(mp.mu_A)})


def _split_rate(values, probs, ea2, c, P, a_prime, i_p, abar):
    """Rate of decoding a codeword of power P - abar first, everything else
    as noise, then one of power abar Costa-precoded against c*a'*S, exact
    per fading atom; values and probs are the law's atoms as lists of Python
    floats, ea2 its E[A^2] and i_p the mass of a'."""
    c2 = c * c
    # at full power the first stage carries no rate: log2(1 + 0) = 0
    first = 0.5 * math.log2(1 + (P - abar) / (1 + c2 * ea2 + abar)) if abar < P else 0.0
    if abar <= 0:
        return max(first, 0.0)
    r = i_p / 2 * math.log2(1 + abar)
    pc2, p1 = abar * c * c, 1 + abar
    for v, p in zip(values, probs):
        if v == a_prime:
            continue
        c2v2 = c2 * v * v
        den = pc2 * (v - a_prime) ** 2 + abar + c2v2 + 1
        r += p / 2 * math.log2((1 + c2v2 + abar) * p1 / den)
    # the first stage joins the finished sum, not each of its terms
    return max(first + r, 0.0)


def _strategies(params: ChannelParams, dist: Discrete, targets=None):
    """The (bits, strategy, True) candidates of treat-as-noise, full-power
    Costa and the power split at each precoding target in turn, every atom
    when targets is None, so that the first target, then the first strategy,
    wins ties."""
    P, c = params.P, params.c
    c2 = c * c
    ea2 = float(np.dot(dist.values ** 2, dist.probs))
    values, probs = dist.values.tolist(), dist.probs.tolist()
    lo, hi = values[0], values[-1]
    candidates = []
    for a_prime in (values if targets is None else targets):
        # at P > 0 every numerator and denominator of _split_rate is at most
        # (1 + P)(1 + P + c^2 s^2), s the largest |a| or |a - a'| over the sorted
        # atoms; checked in Python floats, which overflow without a numpy warning
        s = max(-lo, hi, hi - a_prime, a_prime - lo)
        if P > 0 and not math.isfinite((1 + P) * (1 + P + c2 * s * s)):
            raise NonFinite(f"the Costa rates at P = {P!r}, c = {c!r} overflow on this law")
        i_p = probs[values.index(a_prime)]
        split = P if i_p >= 1.0 else max(min(i_p / (1.0 - i_p) * c2 - 1.0, P), 0.0)
        for abar, name in ((0.0, "treat-as-noise"), (P, "costa"), (split, "power-split")):
            candidates.append((_split_rate(values, probs, ea2, c, P, a_prime, i_p, abar),
                               name, True))
    return candidates


def inner_mass_half(params: ChannelParams, dist: Discrete, mp: MassHalfParams) -> RateBound:
    return pick("mass-half-inner", _strategies(params, dist, [mp.a_prime]),
                {"dominant_mass": _dominant(mp.P_prime)}, best=max)


# ---------------------------------------------------------------------------
# strong fading (uniform, exponentially spaced support)
# ---------------------------------------------------------------------------

def _check_equiprobable(probs):
    if probs.max() - probs.min() > 1e-12:
        raise NotUniform("support must be equiprobable")


def strong_condition_check(support: Discrete, c2: float) -> bool:
    """Spacing condition of the strong-fading theorem at gain c, c2 = c^2,
    with alpha = c^2/(c^2+1).

    Checks the homogeneous part of the printed condition: for every gap
    beyond the second, gap_{i+1}^2 >= (alpha c^2 - 1) * sum of the squared
    gaps up to i-1.  The printed additive constant (and the Delta_1 > alpha
    clause) cannot hold for any unit-variance support with M >= 4 and is
    dropped; the worked construction then satisfies the condition as claimed.
    """
    if not support.is_discrete:
        raise NotUniform("strong-fading support must be discrete")
    _check_equiprobable(support.probs)
    if len(support.values) < 2:
        raise NotUniform("strong-fading support needs at least 2 atoms")
    gaps = np.diff(support.values)
    k = c2 / (c2 + 1.0) * c2 - 1.0
    for m in range(2, len(gaps)):
        if gaps[m] ** 2 < k * float(np.sum(gaps[:m - 1] ** 2)):
            return False
    return True


def strong_params(support: Discrete, c2: float) -> StrongFadingParams:
    """The strong-fading constants at gain c, c2 = c^2 as the caller holds it
    (a sweep's grid value, not sqrt(c2)**2): alpha_sf = c2/(c2 + 1), the
    spacing condition, the support size and mean, and G-tilde with a' the
    atom nearest 0."""
    ok = strong_condition_check(support, c2)
    vals = support.values
    a_prime = float(min(vals, key=abs))
    rest = [v for v in vals if v != a_prime]
    g_tilde = float(sum(_spread_terms(rest, a_prime, "G-tilde")))
    return StrongFadingParams(M=len(vals), alpha_sf=c2 / (c2 + 1.0), G_tilde=g_tilde,
                              mu_A=support.mean, condition_ok=ok)


def outer_strong(params: ChannelParams, sp: StrongFadingParams) -> RateBound:
    """Pre-optimized and large-gain branches with k^2 = c^2 (1 + E[A]^2)."""
    if abs(params.c) < _C_MIN:
        raise ZeroGain("strong-fading outer bound needs c != 0")
    P, M, al = params.P, sp.M, sp.alpha_sf
    k2 = finite_square(params.c, "c") * (1.0 + sp.mu_A ** 2)
    w = (M - 1) / (2.0 * M)
    branches = [
        (1 / (2.0 * M) * math.log2(1 + P) - w * math.log2(al) + 1.5,
         "large-gain", k2 / M > (M - 1) / M * (P + 1)),
        (0.5 * math.log2(P + k2 + 1) - w * math.log2(k2) - w * math.log2(al) + 0.5,
         "pre-optimized", k2 / M <= (M - 1) / M * (P + 1)),
    ]
    return pick("strong-outer", branches, {"condition": sp.condition_ok, "uniform": True})


def inner_strong(params: ChannelParams, support: Discrete) -> RateBound:
    """Best of the three strategies, maximized over the precoding target."""
    _check_equiprobable(support.probs)
    return pick("strong-inner", _strategies(params, support), {"uniform": True}, best=max)


# ---------------------------------------------------------------------------
# continuous fading
# ---------------------------------------------------------------------------

def continuous_interval_params(dist: FadingDistribution, interval) -> ContinuousOuterParams:
    """Mean-value point a' with pdf(a')(b-a) = P(I), and the log-distance
    integral over the complement of I; P(I) is integrated over I and the
    support's intersection, where the law's mass lies."""
    if dist.is_discrete:
        raise NotUniform("continuous outer bound needs a density")
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFinite(f"interval ends must be finite, got {[a, b]!r}")
    if not math.isfinite(b - a):  # the a' grid's spacing would overflow
        raise NonFinite(f"the width of the interval {[a, b]!r} overflows")
    if not b > a:
        raise IntervalMassTooSmall("empty interval")
    lo_s, hi_s = dist.support()
    lo_i, hi_i = max(a, lo_s), min(b, hi_s)
    prob_i = integrate(dist, lambda x, p: p, lo_i, hi_i, 1e-10)[0] if lo_i < hi_i else 0.0
    # over the support, P(I) is the mass itself
    check_mass(prob_i if (lo_i, hi_i) == (lo_s, hi_s)
               else integrate(dist, lambda x, p: p, lo_s, hi_s, 1e-10)[0])
    if not _half_interval(prob_i):
        raise IntervalMassTooSmall(f"P(I) = {prob_i!r} < 1/2")

    target = prob_i / (b - a)
    xs = np.linspace(a, b, 2001)  # xs[-1] is b exactly
    # far past the support a density's square may overflow; a root found
    # there lies past the support and is rejected below
    with np.errstate(over="ignore"):
        fs = np.asarray(dist.pdf(xs), dtype=float) - target
        # grid points that solve the equation or open a sign change; the first wins
        hits = np.flatnonzero((fs == 0.0) | np.append(fs[:-1] * fs[1:] < 0, False))
        if np.max(np.abs(fs)) < 1e-12:
            a_prime = a  # constant density: every point solves the equation
        elif len(hits) == 0:
            raise RootNotFound("density never crosses P(I)/(b-a) on [a,b]")
        elif fs[hits[0]] == 0.0:
            a_prime = float(xs[hits[0]])
        else:
            # bisect until the midpoint meets an end: one ulp, however wide the cell
            i = hits[0]
            lo, hi = xs[i], xs[i + 1]
            while lo < (a_prime := 0.5 * (lo + hi)) < hi:
                if fs[i] * (dist.density(a_prime) - target) <= 0:
                    hi = a_prime
                else:
                    lo = a_prime
            a_prime = float(a_prime)
            # a density that jumps across the level has no root there: the
            # bisection ends on the jump, off the level
            level = dist.density(a_prime) / target
            if not abs(level - 1.0) <= 1e-6:
                raise RootNotFound(f"the density jumps across P(I)/(b-a) at a' = {a_prime!r}, "
                                   f"where pdf(a')(b-a)/P(I) = {level!r}")
    if not lo_s <= a_prime <= hi_s:
        # P(I) and G-tilde read the law on its support only, where its mass lies
        raise RootNotFound(f"the density meets P(I)/(b-a) at a' = {a_prime!r}, "
                           f"past the support [{lo_s!r}, {hi_s!r}]")

    g = 0.0
    for lo, hi in ((lo_s, a), (b, hi_s)):  # the complement of I, left side first
        if lo < hi:
            g += integrate(dist, lambda x, p: p * math.log2((x - a_prime) ** 2), lo, hi, 1e-7)[0]
    return ContinuousOuterParams(prob_I=prob_i, a_prime=a_prime, G_tilde_cont=g)


def outer_continuous(params: ChannelParams, cp: ContinuousOuterParams) -> RateBound:
    """Treat-as-noise, moderate- and large-gain branches for the interval
    mass P(I) and its constant G-tilde."""
    if abs(params.c) < _C_MIN:
        raise ZeroGain("continuous outer bound needs c != 0")
    P, c2 = params.P, finite_square(params.c, "c")
    mass, rest, G = cp.prob_I, 1.0 - cp.prob_I, cp.G_tilde_cont
    branches = [
        (mass / 2 * math.log2(1 + P) + 1.0 - G / 2, "large-gain", mass * c2 > rest * (P + 1)),
        (mass / 2 * math.log2(1 + P) + rest / 2 * math.log2(P * c2) + 1 - G / 2
         if P * c2 > 0 else math.inf,
         "moderate-gain", P * c2 > 0 and mass * c2 <= rest * (P + 1)),
        (0.5 * math.log2(1 + P) + 1.0, "treat-as-noise", rest <= mass * c2),
    ]
    return pick("continuous-outer", branches, {"prob_I_half": _half_interval(cp.prob_I)})


def inner_continuous(params: ChannelParams, dist: FadingDistribution, a_prime: float) -> RateBound:
    """Costa precoding against c*a'*S under continuous fading, by quadrature."""
    P, c2 = params.P, finite_square(params.c, "c")
    gain, log2 = P * c2, math.log2  # bound once for the integrand's many calls
    lo, hi = dist.support()
    # checked in Python floats before quad, which would turn an inf into nan
    s = max(abs(lo), abs(hi))
    if not (math.isfinite(gain) and math.isfinite(c2 * s * s)):
        raise NonFinite(f"the Costa loss at P = {P!r}, c^2 = {c2!r} overflows on this law")
    loss = integrate(dist, lambda x, p: p * log2(
        gain / (P + c2 * x * x + 1) * (x - a_prime) ** 2 + 1.0), lo, hi, 1e-8)[0]
    bits = max(0.0, 0.5 * math.log2(1 + P) - 0.5 * loss)
    return pick("continuous-inner", [(bits, "costa", True)], {})
