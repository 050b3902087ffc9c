"""End-to-end checks of the paper's claims that no module test makes.

Each check here has no other home: a module test checks the same evaluator
only on a narrower law or grid, or through a closed form where this test
goes through the oracle.
"""

import math

import numpy as np

from fadingdirt.bounds_norcsi import ChannelParams, inner_no_rcsi, outer_no_rcsi
from fadingdirt.bounds_rcsi import (
    continuous_interval_params,
    inner_mass_half,
    mass_half_params,
    outer_continuous,
    outer_mass_half,
    outer_phase_binomial,
)
from fadingdirt.fading import (
    TWO_PI_E,
    Discrete,
    Gaussian,
    Uniform,
    entropy_bits_quadrature,
    strong_support,
)
from fadingdirt.gauss_mi import CostaAssignment, costa_rate_exact, mi_monte_carlo

from laws import TWO_POINT


def _random_dominant(rng):
    """A law of 2 to 4 atoms at normal draws, not of unit variance, none
    within 0.1 of 0 or 0.05 of another, one with mass in [0.5, 0.8)."""
    m = int(rng.integers(2, 5))
    vals = np.sort(rng.normal(size=m))
    while np.min(np.abs(vals)) < 0.1 or np.min(np.diff(vals)) < 0.05:
        vals = np.sort(rng.normal(size=m))
    pi = 0.5 + 0.3 * rng.random()
    rest = rng.dirichlet(np.ones(m - 1)) * (1.0 - pi)
    probs = np.insert(rest, int(rng.integers(m)), pi)
    return Discrete(tuple(zip(vals.tolist(), probs.tolist())))


def _nondecreasing(vals):
    return all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))


def test_acceptance_1_gap_identity():
    """The measured no-RCSI gap of Gaussian fading (alpha = 1) stays under
    the caps of its closed form: 1/2 log2(4/3) + 1/2 for c^2 >= 3, and
    near 1/2 bit at c^2 = 1e4."""
    cap = 0.5 * math.log2(4.0 / 3.0) + 0.5
    for P in (0.1, 1.0, 10.0, 100.0, 1000.0):
        for c2 in (3.0, 1e4):
            params = ChannelParams(P=P, c=math.sqrt(c2))
            measured = outer_no_rcsi(params, 1.0).bits - inner_no_rcsi(params).bits
            assert measured <= cap + 1e-12
            if c2 == 1e4:
                assert measured <= 0.5 + 1e-3


def test_acceptance_3_entropy_power():
    """The uniform law's entropy power, read from the quadrature entropy,
    is 12/(2 pi e)."""
    r3 = math.sqrt(3.0)
    alpha = 2.0 ** (2.0 * entropy_bits_quadrature(Uniform(-r3, r3))) / TWO_PI_E
    assert abs(alpha - 12.0 / TWO_PI_E) < 1e-9


def test_acceptance_4_oracle_equivalence():
    """The mass-half inner bound's Costa strategy equals the covariance
    oracle on seeded dominant-atom laws, and Monte Carlo agrees with it."""
    rng = np.random.default_rng(2024)
    laws = [_random_dominant(rng) for _ in range(20)]
    for law in laws:
        mp = mass_half_params(law)
        for P in (1.0, 15.0, 100.0):
            for c in (1.0, 4.0, 8.0):
                params = ChannelParams(P=P, c=c)
                got = inner_mass_half(params, law, mp)
                costa = {branch: bits for bits, branch, _ in got.candidates}["costa"]
                oracle = costa_rate_exact(params, law, CostaAssignment(a_target=mp.a_prime))
                assert abs(costa - oracle) <= 1e-9
                # the published inner bound can never beat its best strategy
                assert got.bits >= costa - 1e-12
    params = ChannelParams(P=15.0, c=4.0)
    for seed, law in enumerate(laws[:5], start=1000):
        asg = CostaAssignment(a_target=mass_half_params(law).a_prime)
        est, se = mi_monte_carlo(params, law, asg, 10 ** 6, seed=seed)
        assert abs(est - costa_rate_exact(params, law, asg)) <= 3.0 * se


def test_acceptance_6_strong_fading_construction():
    """Every geometric strong-fading support is of unit variance."""
    for M in (3, 4, 5):
        for c in (2.0, 4.0, 8.0):
            assert abs(strong_support(M, c).var - 1.0) <= 1e-9


def test_acceptance_7_piecewise_evaluators():
    """Outer bounds grow with transmit power on the cases no module test
    sweeps."""
    grid = np.logspace(-1, 3, 10).tolist()
    mp = mass_half_params(TWO_POINT)
    gauss_cp = continuous_interval_params(Gaussian(0.0, 1.0), (-1.5, 1.5))
    families = {
        "no-rcsi": [outer_no_rcsi(ChannelParams(P=P, c=2.0), 1.0).bits for P in grid],
        "mass-half": [outer_mass_half(ChannelParams(P=P, c=4.0), mp).bits for P in grid],
        # at Q = 1 the weak branch holds at every P
        "phase-binomial": [outer_phase_binomial(P, 1.0, math.pi / 2).bits for P in grid],
        "continuous": [outer_continuous(ChannelParams(P=P, c=2.0), gauss_cp).bits
                       for P in grid],
    }
    assert [name for name, vals in families.items() if not _nondecreasing(vals)] == []
