"""Capacity bounds when the receiver observes the fading sequence.

Covers the circular-binomial phase-fading recap, the dominant-atom
(mass >= 1/2) discrete theorem, the strong-fading uniform-support theorem,
and the continuous-fading outer bound.  Inner bounds are built from three
closed-form strategies: treat the fading-times-state as noise, Costa
precoding against one fading realization, and a power split combining the
two.  Every piecewise outer bound returns the minimum over all branches
whose stated condition holds: a minimum of valid outer bounds is still an
outer bound, which sidesteps ambiguous branch precedence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds_norcsi import _C_MIN, ChannelParams, RateBound
from .errors import (
    ConditionNotVerified,
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
    P_prime: float  # mass of the dominant atom, >= 1/2
    G: float        # bits
    G_prime: float  # bits


@dataclass(frozen=True)
class StrongFadingParams:
    M: int
    alpha_sf: float
    G_tilde: float  # bits


@dataclass(frozen=True)
class ContinuousOuterParams:
    prob_I: float
    a_prime: float
    G_tilde_cont: float  # bits


# ---------------------------------------------------------------------------
# phase fading (circularly binomial) recap
# ---------------------------------------------------------------------------

def outer_phase_binomial(params: ChannelParams, Delta: float) -> RateBound:
    """Piecewise outer bound for phase fading exp(+-j Delta) on a state of
    variance Q, with effective gain c_eff = sin(Delta) sqrt(Q)."""
    if not (math.pi / 4 <= Delta <= math.pi / 2):
        raise DeltaOutOfRange(f"Delta must be in [pi/4, pi/2], got {Delta!r}")
    if params.Q <= 0:
        raise ZeroGain("Q must be positive")
    P = params.P
    c2 = math.sin(Delta) ** 2 * params.Q
    if c2 <= 1.0:
        bits = math.log2(P + 1) + 2.0
        branch = "weak-interference"
    elif c2 >= P + 1.0:
        bits = 0.75 * math.log2(P + 1) + 2.0
        branch = "strong-interference"
    else:
        bits = (
            0.5 * math.log2(P + 1)
            + 0.5 * math.log2(1.0 + (math.sqrt(P) + math.sqrt(c2)) ** 2)
            - 0.25 * math.log2(2.0 * c2)
            + 2.0
        )
        branch = "moderate-interference"
    return RateBound(bits=bits, theorem="phase-binomial-outer", branch=branch,
                     assumptions_ok={"delta_in_range": True})


def inner_phase_binomial(params: ChannelParams) -> RateBound:
    """Treat the faded dirt, of variance Q, as noise on the phase-fading channel."""
    return RateBound(bits=0.5 * math.log2(1.0 + params.P / (1.0 + params.Q)),
                     theorem="phase-binomial-inner", branch="treat-as-noise")


# ---------------------------------------------------------------------------
# discrete fading with a dominant atom
# ---------------------------------------------------------------------------

def mass_half_params(dist: FadingDistribution) -> MassHalfParams:
    """Dominant atom and the two gap constants G, G' (bits)."""
    if not dist.is_discrete:
        raise NoDominantAtom("mass-half theorem needs a discrete law")
    vals = dist.values
    probs = dist.probs
    pmax = probs.max()
    if pmax < 0.5 - 1e-12:
        raise NoDominantAtom(f"largest atom mass {pmax!r} < 1/2")
    # ties broken toward smaller |a|, then smaller a (deterministic)
    cand = [i for i in range(len(vals)) if probs[i] >= pmax - 1e-12]
    i_star = min(cand, key=lambda i: (abs(vals[i]), vals[i]))
    return gap_params_at(dist, i_star)


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


def gap_params_at(dist: Discrete, i: int) -> MassHalfParams:
    """The mass-half constants with atom i as a', whatever its mass."""
    vals, probs = dist.values, dist.probs
    a_p = float(vals[i])
    P_p = float(probs[i])
    rest = [(v, p) for j, (v, p) in enumerate(zip(vals, probs)) if j != i]
    terms = _spread_terms([v for v, _ in rest], a_p, "the G' term")
    G = float(sum(p * math.log2((v - a_p) ** 2) for v, p in rest))
    G_prime = float(sum(p * t for (_, p), t in zip(rest, terms)))
    return MassHalfParams(a_prime=a_p, P_prime=P_p, G=G, G_prime=G_prime)


def _min_branch(theorem, branches, assumptions):
    valid = [(v, tag) for v, tag, ok in branches if ok]
    if not valid:
        raise ZeroGain(f"{theorem}: no branch condition holds (c too small?)")
    bits, tag = min(valid)
    return RateBound(bits=float(bits), theorem=theorem, branch=tag, assumptions_ok=assumptions)


def outer_mass_half(params: ChannelParams, mp: MassHalfParams) -> RateBound:
    P, c = params.P, params.c
    c2 = c * c
    Pp, Pb, G = mp.P_prime, 1.0 - mp.P_prime, mp.G
    branches = [
        (0.5 * math.log2(P + c2 + 1) - Pb / 2 * math.log2(c2) - G / 2 + 1 if c2 > 0 else math.inf,
         "pre-optimized", c2 > 0 and Pp * c2 <= Pb * (P + 1)),
        (Pp / 2 * math.log2(1 + P) + 1.5 - G / 2,
         "large-gain", Pp * c2 > Pb * (P + 1)),
    ]
    return _min_branch("mass-half-outer", branches,
                       {"dominant_mass": Pp >= 0.5, "mu_A_zero": params.mu_A == 0.0})


def _costa_atom_sum(values, probs, a_prime, p_prime_mass, c, power):
    """Per-atom Costa rate: precoding against c*a_prime*S with the given
    codeword power, exact Gaussian-MI closed form for each fading atom."""
    if power <= 0:
        return 0.0
    r = p_prime_mass / 2 * math.log2(1 + power)
    for v, p in zip(values, probs):
        if v == a_prime:
            continue
        num = (1 + c * c * v * v + power) * (1 + power)
        den = power * c * c * (v - a_prime) ** 2 + power + c * c * v * v + 1
        r += p / 2 * math.log2(num / den)
    return r


def _inner_strategies(params: ChannelParams, values, probs, a_prime):
    """(treat-as-noise, full-power Costa, power-split) rates in bits."""
    P, c = params.P, params.c
    c2 = c * c
    ea2 = float(np.dot(values ** 2, probs))
    i_p = probs[np.nonzero(values == a_prime)[0][0]]
    treat = 0.5 * math.log2(1 + P / (1 + c2 * ea2))
    costa = _costa_atom_sum(values, probs, a_prime, i_p, c, P)
    # power split: abar*P on the Costa codeword, rest treated as noise
    P_bar = 1.0 - i_p
    if P_bar <= 0:
        abar_p = P
    else:
        abar_p = max(min(i_p / P_bar * c2 - 1.0, P), 0.0)
    a_p = P - abar_p
    split = 0.5 * math.log2(1 + a_p / (1 + c2 * ea2 + abar_p)) + _costa_atom_sum(
        values, probs, a_prime, i_p, c, abar_p)
    return max(treat, 0.0), max(costa, 0.0), max(split, 0.0)


def _best_strategy(params: ChannelParams, values, probs, a_prime):
    """(rate, tag) of the best strategy at a', the first one on ties."""
    rates = _inner_strategies(params, values, probs, a_prime)
    i = int(np.argmax(rates))
    return rates[i], ("treat-as-noise", "costa", "power-split")[i]


def inner_mass_half(params: ChannelParams, dist: Discrete, mp: MassHalfParams) -> RateBound:
    bits, tag = _best_strategy(params, dist.values, dist.probs, mp.a_prime)
    return RateBound(bits=float(bits), theorem="mass-half-inner", branch=tag,
                     assumptions_ok={"dominant_mass": mp.P_prime >= 0.5})


# ---------------------------------------------------------------------------
# strong fading (uniform, exponentially spaced support)
# ---------------------------------------------------------------------------

def _check_equiprobable(probs):
    if probs.max() - probs.min() > 1e-12:
        raise NotUniform("support must be equiprobable")


def strong_condition_check(support: Discrete, c: float, alpha_sf: float) -> bool:
    """Spacing condition of the strong-fading theorem.

    Checks the homogeneous part of the printed condition: for every gap
    beyond the second, gap_{i+1}^2 >= (alpha c^2 - 1) * sum of the squared
    gaps up to i-1.  The printed additive constant (and the Delta_1 > alpha
    clause) cannot hold for any unit-variance support with M >= 4 and is
    dropped; the worked construction then satisfies the condition for
    alpha = c^2/(c^2+1) as claimed.
    """
    if not support.is_discrete:
        raise NotUniform("strong-fading support must be discrete")
    _check_equiprobable(support.probs)
    if len(support.values) < 2:
        raise NotUniform("strong-fading support needs at least 2 atoms")
    if alpha_sf < 0:
        return False
    gaps = np.diff(support.values)
    k = alpha_sf * c * c - 1.0
    for m in range(2, len(gaps)):
        if gaps[m] ** 2 < k * float(np.sum(gaps[:m - 1] ** 2)):
            return False
    return True


def strong_params(support: Discrete, alpha_sf: float) -> StrongFadingParams:
    """The support size and the G-tilde constant, with a' the atom nearest 0."""
    vals = support.values
    a_prime = float(min(vals, key=abs))
    rest = [v for v in vals if v != a_prime]
    g_tilde = float(sum(_spread_terms(rest, a_prime, "G-tilde")))
    return StrongFadingParams(M=len(vals), alpha_sf=alpha_sf, G_tilde=g_tilde)


def outer_strong(params: ChannelParams, sp: StrongFadingParams, condition_ok: bool) -> RateBound:
    if not condition_ok:
        raise ConditionNotVerified("spacing condition not verified for this support")
    if abs(params.c) < _C_MIN:
        raise ZeroGain("strong-fading outer bound needs c != 0")
    P, M, al = params.P, sp.M, sp.alpha_sf
    k2 = params.c ** 2 * (1.0 + params.mu_A ** 2)
    w = (M - 1) / (2.0 * M)
    branches = [
        (0.5 * math.log2(P + k2 + 1) - w * math.log2(k2) - w * math.log2(al) + 0.5,
         "pre-optimized", k2 / M <= (M - 1) / M * (P + 1)),
        (1 / (2.0 * M) * math.log2(1 + P) - w * math.log2(al) + 1.5,
         "large-gain", k2 / M > (M - 1) / M * (P + 1)),
    ]
    return _min_branch("strong-outer", branches,
                       {"condition": condition_ok, "uniform": True})


def inner_strong(params: ChannelParams, support: Discrete) -> RateBound:
    """Best of the three strategies, maximized over the precoding target."""
    vals, probs = support.values, support.probs
    _check_equiprobable(probs)
    best = (-math.inf, "treat-as-noise")
    for a_p in vals:
        rate_tag = _best_strategy(params, vals, probs, float(a_p))
        if rate_tag[0] > best[0]:
            best = rate_tag
    return RateBound(bits=float(best[0]), theorem="strong-inner", branch=best[1],
                     assumptions_ok={"uniform": True})


# ---------------------------------------------------------------------------
# continuous fading
# ---------------------------------------------------------------------------

def continuous_interval_params(dist: FadingDistribution, interval) -> ContinuousOuterParams:
    """Mean-value point a' with pdf(a')(b-a) = P(I), and the log-distance
    integral over the complement of I."""
    if dist.is_discrete:
        raise NotUniform("continuous outer bound needs a density")
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise IntervalMassTooSmall("empty interval")
    prob_i = integrate(dist, lambda x, p: p, a, b, 1e-10)[0]
    lo_s, hi_s = dist.support()
    # over the support, P(I) is the mass itself
    check_mass(prob_i if (a, b) == (lo_s, hi_s)
               else integrate(dist, lambda x, p: p, lo_s, hi_s, 1e-10)[0])
    if prob_i < 0.5 - 1e-8:
        raise IntervalMassTooSmall(f"P(I) = {prob_i!r} < 1/2")

    target = prob_i / (b - a)
    xs = np.linspace(a, b, 2001)  # xs[-1] is b exactly
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
        i = hits[0]
        lo, hi = xs[i], xs[i + 1]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = float(dist.pdf(mid)) - target
            if fs[i] * fm <= 0:
                hi = mid
            else:
                lo = mid
        a_prime = 0.5 * (lo + hi)

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
    P, c2 = params.P, params.c ** 2
    mass, rest, G = cp.prob_I, 1.0 - cp.prob_I, cp.G_tilde_cont
    branches = [
        (0.5 * math.log2(1 + P) + 1.0, "treat-as-noise", rest <= mass * c2),
        (mass / 2 * math.log2(1 + P) + rest / 2 * math.log2(P * c2) + 1 - G / 2
         if P * c2 > 0 else math.inf,
         "moderate-gain", P * c2 > 0 and mass * c2 <= rest * (P + 1)),
        (mass / 2 * math.log2(1 + P) + 1.0 - G / 2, "large-gain", mass * c2 > rest * (P + 1)),
    ]
    return _min_branch("continuous-outer", branches, {"prob_I_half": cp.prob_I >= 0.5})


def inner_continuous(params: ChannelParams, dist: FadingDistribution, a_prime: float) -> RateBound:
    """Costa precoding against c*a'*S under continuous fading, by quadrature."""
    P, c2 = params.P, params.c ** 2
    lo, hi = dist.support()
    loss = integrate(dist, lambda x, p: p * math.log2(
        P * c2 / (P + c2 * x * x + 1) * (x - a_prime) ** 2 + 1.0), lo, hi, 1e-8)[0]
    bits = max(0.0, 0.5 * math.log2(1 + P) - 0.5 * loss)
    return RateBound(bits=bits, theorem="continuous-inner", branch="costa",
                     assumptions_ok={})
