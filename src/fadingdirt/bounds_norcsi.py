"""Closed-form capacity bounds for fading dirt with no receiver side info.

The channel is Y = X + c*A*S + Z with unit-variance Gaussian state S and
noise Z, input power P, and a unit-variance fading coefficient A of mean
mu_A known at neither end.  The outer bound depends on the fading only
through its entropy power alpha_ep; the inner bound is Costa precoding
against the mean realization of the fading times the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (DegenerateDenominator, IdentityViolated, InvalidAlpha, NonFinite,
                     UnknownFamily, ZeroGain)
from .fading import EULER_GAMMA, LN2, TWO_PI_E

_C_MIN = 1e-9


@dataclass(frozen=True)
class ChannelParams:
    """Scalar channel configuration (P, c, mu_A, Q); the state mean is 0."""

    P: float
    c: float
    mu_A: float = 0.0
    Q: float = 1.0  # state variance; used by the phase-fading theorem only

    def __post_init__(self):
        if self.P < 0:
            raise DegenerateDenominator(f"P must be >= 0, got {self.P!r}")
        if self.Q < 0:
            raise DegenerateDenominator(f"Q must be >= 0, got {self.Q!r}")
        for name in ("P", "c", "mu_A", "Q"):
            if not math.isfinite(getattr(self, name)):
                raise DegenerateDenominator(f"{name} must be finite")


@dataclass(frozen=True)
class RateBound:
    bits: float  # bits/channel-use
    theorem: str
    branch: str
    assumptions_ok: dict = field(default_factory=dict)

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
    return RateBound(
        bits=bits,
        theorem="no-rcsi-outer",
        branch="half",
        assumptions_ok={"mu_S_zero": True, "alpha_in_range": True},  # the model fixes E[S] = 0
    )


def inner_no_rcsi(params: ChannelParams) -> RateBound:
    """Costa precoding against the mean fading: 1/2 log2(1 + P/(c^2+1))."""
    P, c = params.P, params.c
    bits = 0.5 * math.log2(1.0 + P / (c * c + 1.0))
    return RateBound(bits=bits, theorem="no-rcsi-inner", branch="costa-mean", assumptions_ok={})


def k_star(params: ChannelParams) -> float:
    """Optimal inflation coefficient P c mu_A / (P + 1 + c^2)."""
    return params.P * params.c * params.mu_A / (params.P + 1.0 + params.c ** 2)


def inner_no_rcsi_with_k(params: ChannelParams, k: float) -> RateBound:
    """Achievable rate of the U = X + kS assignment at arbitrary inflation k."""
    P, c, mu = params.P, params.c, params.mu_A
    big = P + c * c * (1.0 + mu * mu) + 1.0
    denom = P + k * k - (P + k * c * mu) ** 2 / big
    if denom <= 0:
        raise DegenerateDenominator(f"denominator {denom!r} not positive")
    bits = max(0.0, 0.5 * math.log2(P / denom)) if P > 0 else 0.0
    return RateBound(bits=bits, theorem="no-rcsi-inner", branch="costa-k", assumptions_ok={})


def gap_no_rcsi(alpha_ep: float) -> float:
    """Claimed gap -log2(alpha)/2 + 1/2 between outer and inner bound."""
    _check_alpha(alpha_ep)
    return -0.5 * math.log2(alpha_ep) + 0.5


def lemma_gap_catalog(family: str, mu: float = 0.0, sigma2: float = 1.0) -> float:
    """Printed gap constants for the canonical fading families.

    Values are quoted as printed (the Rayleigh and log-normal lines mix log
    bases in the source; the quoted numbers are the ones the <= claims refer
    to).
    """
    fam = family.lower()
    if fam == "gaussian":
        return 0.5
    if fam == "uniform":
        return 0.5 * math.log2(TWO_PI_E / 12.0) + 0.5
    if fam == "rayleigh":
        return EULER_GAMMA + 1.0 + 0.5  # the "-1/2 log(1)" term is 0
    if fam == "lognormal":
        return math.log(math.exp(sigma2) - 1.0) + mu + sigma2 + 0.5
    raise UnknownFamily(f"unknown family {family!r}")
