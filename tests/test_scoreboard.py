"""The scoreboard: counts over the claim grids and the default continuous
sweeps, read through the public API and pinned exactly, so that a change in
how many rows a theorem checks, violates or crosses shows as a diff here."""

import math

from fadingdirt import SweepSpec, run_sweep, verify_claims


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
