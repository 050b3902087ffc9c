"""The scoreboard: counts over the claim grids, the default continuous
sweeps and two scans of the outer branches, read through the public API and
pinned exactly, so that a change in how many rows a theorem checks, violates
or crosses shows as a diff here."""

import math

import numpy as np
import pytest

from fadingdirt import (
    ChannelParams,
    SweepSpec,
    continuous_interval_params,
    inner_continuous,
    inner_strong,
    outer_continuous,
    outer_strong,
    parse_distribution,
    run_sweep,
    strong_params,
    strong_support,
    verify_claims,
)


def _ceiling(theorem, P):
    """The rate no inner bound may pass: the clean channel's, ½ log2(1 + P),
    or log2(1 + P) on the complex phase-fading channel."""
    return math.log2(1 + P) if theorem == "phase-binomial" else 0.5 * math.log2(1 + P)


# per claimed theorem: rows / checked / violated / inner > outer / of those,
# rows that print satisfied=true / inner above the ceiling
CLAIMS = {
    "no-rcsi": (90, 60, 60, 0, 0, 0),
    "mass-half": (120, 90, 0, 0, 0, 0),
    "strong": (45, 45, 15, 6, 6, 0),
    "phase-binomial": (40, 40, 25, 0, 0, 0),
}
# per law of the default continuous sweep: rows / zero inner bounds /
# negative outer bounds / outer = ½ log2(1 + P) + 1, the treat-as-noise branch
CONTINUOUS = {
    "gaussian": (30, 17, 0, 30),
    "uniform": (30, 16, 0, 30),
    "rayleigh": (30, 16, 0, 30),
}


def test_scoreboard():
    _, rows = verify_claims("all")
    got = {}
    for theorem in CLAIMS:
        own = [r for r in rows if r.theorem == theorem]
        crossed = [r for r in own if r.inner_bits > r.outer_bits]
        got[theorem] = (len(own), sum(r.assumptions_ok for r in own),
                        sum(r.assumptions_ok and not r.satisfied for r in own),
                        len(crossed), sum(r.satisfied for r in crossed),
                        sum(r.inner_bits > _ceiling(theorem, r.P) for r in own))
    for law in CONTINUOUS:
        own = run_sweep(SweepSpec("continuous", dist=law))
        got[law] = (len(own), sum(r.inner_bits == 0 for r in own),
                    sum(r.outer_bits < 0 for r in own),
                    sum(r.outer_bits == 0.5 * math.log2(1 + r.P) + 1 for r in own))
    assert got == {**CLAIMS, **CONTINUOUS}


# the grid of both scans: P at 13 log-spaced values in 1e-2..1e4, c at 13 in
# 1e-2..1e2 and 30
_SCAN_P = np.logspace(-2, 4, 13).tolist()
_SCAN_C = [*np.logspace(-2, 2, 13).tolist(), 30.0]

# per strong outer branch, over strong_support(M, r) for M in 2..6 and r in
# (1.5, 2, 3, 4, 6, 8), at the points where the spacing condition and the
# branch's own hold: points / outer below the inner bound / outer < 0
STRONG = {
    "pre-optimized": (3426, 165, 0),
    "large-gain": (1059, 4, 0),
}
STRONG_WORST = 2.0586  # bits the pre-optimized branch falls below the inner bound, at most
# per (continuous outer branch, law) on I = [-1, 1], at the points where the
# branch's condition holds: points / outer below the inner bound / outer < 0
INTERVAL = {
    ("moderate-gain", "gaussian"): (108, 59, 25),
    ("moderate-gain", "uniform"): (111, 59, 27),
    ("moderate-gain", "rayleigh"): (108, 51, 25),
    ("large-gain", "gaussian"): (74, 0, 0),
    ("large-gain", "uniform"): (71, 0, 0),
    ("large-gain", "rayleigh"): (74, 0, 0),
    ("treat-as-noise", "gaussian"): (104, 0, 0),
    ("treat-as-noise", "uniform"): (104, 0, 0),
    ("treat-as-noise", "rayleigh"): (104, 0, 0),
}


def _tally(got, key, bits, inner):
    points, below, negative = got.get(key, (0, 0, 0))
    got[key] = (points + 1, below + (bits < inner), negative + (bits < 0))


def test_strong_scan():
    got, worst = {}, 0.0
    for M in range(2, 7):
        for r in (1.5, 2.0, 3.0, 4.0, 6.0, 8.0):
            support = strong_support(M, r)
            for c in _SCAN_C:
                sp = strong_params(support, c ** 2)
                if not sp.condition_ok:
                    continue
                for P in _SCAN_P:
                    params = ChannelParams(P=P, c=c)
                    inner = inner_strong(params, support).bits
                    for bits, branch, holds in outer_strong(params, sp).candidates:
                        if holds:
                            _tally(got, branch, bits, inner)
                            worst = max(worst, inner - bits)
    assert got == STRONG
    assert worst == pytest.approx(STRONG_WORST, abs=1e-4)


def test_interval_scan():
    # the law's constants once per law, so that its density memo serves every point
    got = {}
    for law in ("gaussian", "uniform", "rayleigh"):
        dist = parse_distribution(law)
        cp = continuous_interval_params(dist, (-1.0, 1.0))
        for c in _SCAN_C:
            for P in _SCAN_P:
                params = ChannelParams(P=P, c=c)
                inner = inner_continuous(params, dist, cp.a_prime).bits
                for bits, branch, holds in outer_continuous(params, cp).candidates:
                    if holds:
                        _tally(got, (branch, law), bits, inner)
    assert got == INTERVAL
