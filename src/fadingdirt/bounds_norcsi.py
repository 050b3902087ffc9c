"""Closed-form capacity bounds for fading dirt with no receiver side info.

The channel is Y = X + c*A*S + Z with unit-variance Gaussian state S and
noise Z, input power P, and a unit-variance fading coefficient A of mean
mu_A known at neither end.  The outer bound depends on the fading only
through its entropy power alpha_ep; the inner bound is Costa precoding
against the mean realization of the fading times the state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .errors import DegenerateDenominator, IdentityViolated, InvalidAlpha, NonFinite, ZeroGain
from .fading import LN2

_C_MIN = 1e-9


@dataclass(frozen=True)
class ChannelParams:
    """Scalar channel configuration (P, c); the state mean is 0.  The fading
    mean is the law's own, and the phase theorem's state power is c^2."""

    P: float
    c: float

    def __post_init__(self):
        if self.P < 0:
            raise DegenerateDenominator(f"P must be >= 0, got {self.P!r}")
        for name in ("P", "c"):
            if not math.isfinite(getattr(self, name)):
                raise DegenerateDenominator(f"{name} must be finite")


@dataclass(frozen=True)
class RateBound:
    bits: float  # bits/channel-use
    theorem: str
    branch: str
    assumptions_ok: dict = field(default_factory=dict)
    # every (bits, branch, holds) candidate the bound was picked from, in order
    candidates: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not math.isfinite(self.bits):
            raise NonFinite(f"{self.theorem} ({self.branch}) is {self.bits!r} bits, not finite")

    def to_json(self):
        return {
            "bits": self.bits,
            "theorem": self.theorem,
            "branch": self.branch,
            "assumptions_ok": dict(self.assumptions_ok),
        }


_BITS, _HOLDS = operator.itemgetter(0), operator.itemgetter(2)


def pick(theorem, candidates, assumptions_ok, best=min) -> RateBound:
    """The bound chosen from its (bits, branch, holds) candidates: by `best`
    over bits among those whose condition holds, the first listed winning
    ties, and ZeroGain when none holds.  A minimum of valid outer bounds is
    still an outer bound, and a maximum of achievable rates is achievable;
    the bound keeps every candidate."""
    candidates = tuple(candidates)
    chosen = best(filter(_HOLDS, candidates), key=_BITS, default=None)
    if chosen is None:
        raise ZeroGain(f"{theorem}: no branch condition holds (c too small?)")
    return RateBound(float(chosen[0]), theorem, chosen[1], assumptions_ok, candidates)


def finite_square(x: float, name: str) -> float:
    """x ** 2, or NonFinite where the square leaves the float range (a float
    power raises OverflowError there).  Not `x * x`, which rounds some
    squares differently."""
    try:
        return x ** 2
    except OverflowError:
        raise NonFinite(f"{name} = {x!r} squared overflows") from None


def _check_alpha(alpha_ep):
    if not (0.0 < alpha_ep <= 1.0) or not math.isfinite(alpha_ep):
        raise InvalidAlpha(f"alpha_ep must be in (0,1], got {alpha_ep!r}")


def _log_add(x, y):
    """log(e^x + e^y) without forming either exponential."""
    hi, lo = max(x, y), min(x, y)
    return hi + math.log1p(math.exp(lo - hi))


def outer_no_rcsi(params: ChannelParams, alpha_ep: float) -> RateBound:
    """Outer bound 1/2 log2((P+1)/(c^2 a) + 1/a) + 1/2."""
    _check_alpha(alpha_ep)
    P, c = params.P, params.c
    if abs(c) < _C_MIN:
        raise ZeroGain("bound diverges as c -> 0; use the AWGN bound 1/2 log2(1+P)")
    bits = 0.5 * math.log2((P + 1) / (c * c * alpha_ep) + 1.0 / alpha_ep) + 0.5
    alt = 0.5 * math.log2((P + 1 + c * c) / (c * c * alpha_ep)) + 0.5
    if not (math.isfinite(bits) and math.isfinite(alt)):
        # (P + 1)/(c^2 a) overflowed: the same two forms, summed in the log domain
        log_c2, log_a = 2.0 * math.log(abs(c)), math.log(alpha_ep)
        bits = 0.5 * _log_add(math.log1p(P) - log_c2 - log_a, -log_a) / LN2 + 0.5
        alt = 0.5 * (_log_add(math.log1p(P), log_c2) - log_c2 - log_a) / LN2 + 0.5
    if not abs(bits - alt) < 1e-12:  # a nan fails too
        raise IdentityViolated(f"the two forms of the outer bound differ: {bits!r} vs {alt!r}")
    return pick("no-rcsi-outer", [(bits, "half", True)],
                {"mu_S_zero": True, "alpha_in_range": True})  # the model fixes E[S] = 0


def inner_no_rcsi(params: ChannelParams) -> RateBound:
    """Costa precoding against the mean fading: 1/2 log2(1 + P/(c^2+1))."""
    P, c = params.P, params.c
    bits = 0.5 * math.log2(1.0 + P / (c * c + 1.0))
    return pick("no-rcsi-inner", [(bits, "costa-mean", True)], {})


def _zero_mean(mu_A: float) -> bool:
    """The mean-zero rule: |mu_A| <= 1e-12, so that a truncated tail, such as
    geometric_fading(0.55)'s with its mean of -9.6e-13, counts as zero."""
    return abs(mu_A) <= 1e-12


def k_star(params: ChannelParams, mu_A: float) -> float:
    """Optimal inflation coefficient P c mu_A / (P + 1 + c^2) for a fading
    law of mean mu_A; 0 where the mean is zero by `_zero_mean`."""
    den = params.P + 1.0 + finite_square(params.c, "c")
    return 0.0 if _zero_mean(mu_A) else params.P * params.c * mu_A / den


def gap_no_rcsi(alpha_ep: float) -> float:
    """Claimed gap -log2(alpha)/2 + 1/2 between outer and inner bound."""
    _check_alpha(alpha_ep)
    return -0.5 * math.log2(alpha_ep) + 0.5

