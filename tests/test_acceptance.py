"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line so the suite output
doubles as a checklist.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines inline.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from fadingdirt.bounds_norcsi import (
    ChannelParams,
    gap_no_rcsi,
    inner_no_rcsi,
    outer_no_rcsi,
)
from fadingdirt.bounds_rcsi import (
    _inner_strategies,
    continuous_interval_params,
    inner_mass_half,
    mass_half_params,
    outer_continuous,
    outer_mass_half,
    outer_phase_binomial,
    outer_strong,
    strong_condition_check,
    strong_params,
)
from fadingdirt.cli import main
from fadingdirt.fading import (
    TWO_PI_E,
    Discrete,
    Gaussian,
    LogNormal,
    Uniform,
    entropy_bits_quadrature,
    entropy_power_alpha,
    normalize_unit_variance,
    strong_support,
    unit_rayleigh,
)
from fadingdirt.gauss_mi import CostaAssignment, costa_rate_exact, mi_monte_carlo
from fadingdirt.gp import (
    GPInstance,
    binary_nonoise_instance,
    evaluate_assignment,
    optimize_alternating,
)

mpmath.mp.dps = 50

TWO_POINT = Discrete(((-1.0, 0.5), (1.0, 0.5)))


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num}: {status} - {label}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {label}{suffix}"


def test_acceptance_1_gap_identity():
    """Outer minus inner equals the closed-form gap; asymptote is 1/2 bit."""
    alpha_u = 12.0 / TWO_PI_E
    worst = 0.0
    ok = True
    for P in (0.1, 1.0, 10.0, 100.0, 1000.0):
        for c2 in (0.5, 3.0, 1e4):
            for alpha in (1.0, alpha_u):
                params = ChannelParams(P=P, c=math.sqrt(c2))
                measured = outer_no_rcsi(params, alpha).bits - inner_no_rcsi(params).bits
                want = float(mpmath.log((mpmath.mpf(c2) + 1) / (c2 * mpmath.mpf(alpha)), 2) / 2
                             + mpmath.mpf("0.5"))
                worst = max(worst, abs(measured - want))
                ok &= abs(measured - want) <= 1e-9
                if c2 >= 3.0 and alpha == 1.0:
                    ok &= measured <= 0.5 * math.log2(4.0 / 3.0) + 0.5 + 1e-12
                if c2 == 1e4 and alpha == 1.0:
                    ok &= measured <= 0.5 + 1e-3
    _report(1, "no-side-info gap identity on 30-point grid", ok,
            f"worst identity error {worst:.2e}")


def test_acceptance_2_gap_catalog():
    """The gaps of the canonical families honor the printed ceilings;
    log-normal diverges."""
    def gap(dist):
        return gap_no_rcsi(entropy_power_alpha(normalize_unit_variance(dist)))

    g_uniform = gap(Uniform(0.0, 1.0))
    g_rayleigh = gap(unit_rayleigh())
    lns = [gap(LogNormal(0.0, s2)) for s2 in (1.0, 4.0, 9.0)]
    ok = (abs(g_uniform - (0.5 * math.log2(TWO_PI_E / 12.0) + 0.5)) < 1e-12
          and g_uniform <= 1.0
          and g_rayleigh <= 2.08
          and lns[0] < lns[1] < lns[2]
          and lns[2] > 3.0)
    _report(2, "gap catalog ceilings (uniform <= 1, Rayleigh <= 2.08, "
               "log-normal unbounded)", ok,
            f"uniform {g_uniform:.4f}, rayleigh {g_rayleigh:.4f}, "
            f"lognormal(9) {lns[2]:.2f}")


def test_acceptance_3_entropy_power():
    """Entropy-power values agree between quadrature and closed forms."""
    a_gauss = entropy_power_alpha(Gaussian(0.0, 1.0))
    r3 = math.sqrt(3.0)
    uni = Uniform(-r3, r3)
    a_uni_quad = 2.0 ** (2.0 * entropy_bits_quadrature(uni)) / TWO_PI_E
    ray = unit_rayleigh()
    h_quad = entropy_bits_quadrature(ray)
    h_closed = ray.entropy_bits()
    ok = (abs(a_gauss - 1.0) < 1e-12
          and abs(a_uni_quad - 12.0 / TWO_PI_E) < 1e-9
          and abs(h_quad - h_closed) < 1e-6)
    _report(3, "entropy power: Gaussian 1, uniform 12/(2*pi*e), Rayleigh "
               "quadrature vs closed form", ok,
            f"|quad-closed| Rayleigh {abs(h_quad - h_closed):.2e}")


def _random_dominant(rng):
    m = int(rng.integers(2, 5))
    vals = np.sort(rng.normal(size=m))
    while np.min(np.abs(vals)) < 0.1 or np.min(np.diff(vals)) < 0.05:
        vals = np.sort(rng.normal(size=m))
    pi = 0.5 + 0.3 * rng.random()
    rest = rng.dirichlet(np.ones(m - 1)) * (1.0 - pi)
    i = int(rng.integers(m))
    probs = np.insert(rest, i, pi)
    return Discrete(tuple(zip(vals.tolist(), probs.tolist())))


def test_acceptance_4_oracle_equivalence():
    """Closed-form per-atom precoding rate matches the covariance oracle and
    the Monte Carlo estimator."""
    rng = np.random.default_rng(2024)
    dists = [_random_dominant(rng) for _ in range(20)]
    worst = 0.0
    ok = True
    for d in dists:
        mp = mass_half_params(d)
        for P in (1.0, 15.0, 100.0):
            for c in (1.0, 4.0, 8.0):
                params = ChannelParams(P=P, c=c)
                strategy_ii = _inner_strategies(params, d.values.tolist(), d.probs.tolist(),
                                                float(np.dot(d.values ** 2, d.probs)),
                                                mp.a_prime)[1][0]
                oracle = costa_rate_exact(params, d,
                                          CostaAssignment(a_target=mp.a_prime))
                worst = max(worst, abs(strategy_ii - oracle))
                ok &= abs(strategy_ii - oracle) <= 1e-9
                # the published inner bound can never beat its best strategy
                ok &= inner_mass_half(params, d, mp).bits >= strategy_ii - 1e-12
    worst_sigma = 0.0
    for j, d in enumerate(dists[:5]):
        mp = mass_half_params(d)
        params = ChannelParams(P=15.0, c=4.0)
        asg = CostaAssignment(a_target=mp.a_prime)
        exact = costa_rate_exact(params, d, asg)
        est, se = mi_monte_carlo(params, d, asg, 10 ** 6, seed=1000 + j)
        worst_sigma = max(worst_sigma, abs(est - exact) / se)
        ok &= abs(est - exact) <= 3.0 * se
    _report(4, "per-atom precoding rate: closed form == covariance oracle == "
               "Monte Carlo", ok,
            f"worst closed-form diff {worst:.2e}, worst MC deviation "
            f"{worst_sigma:.2f} sigma")


def test_acceptance_5_gp_solver():
    """Finite-alphabet solver recovers the known optima."""
    ok = True
    p = np.zeros((4, 2))
    p[0, :] = 0.5
    p[1, :] = 0.5
    x = np.zeros((4, 2), dtype=int)
    x[0, 0], x[0, 1] = 1, 0
    x[1, 0], x[1, 1] = 0, 1
    vals = []
    for atoms in ([(-1.0, 0.5), (1.0, 0.5)],
                  [(1.0, 1 / 3), (2.0, 1 / 3), (3.0, 1 / 3)]):
        inst = binary_nonoise_instance(atoms)
        ok &= evaluate_assignment(inst, p, x) == 1.0
        best, _ = optimize_alternating(inst, restarts=32, seed=0)
        vals.append(best)
        ok &= best >= 1.0 - 1e-3
    bsc = GPInstance(states=(0,), prior=(1.0,), inputs=(0, 1), aux_size=2,
                     outputs=(0, 1), kernel=(((0.9, 0.1),), ((0.1, 0.9),)))
    bsc_val, _ = optimize_alternating(bsc, restarts=8, seed=2)
    h2 = -0.1 * math.log2(0.1) - 0.9 * math.log2(0.9)
    ok &= abs(bsc_val - (1.0 - h2)) <= 2e-2
    _report(5, "auxiliary-channel solver: product strategy exact, alternating "
               "ascent near-optimal, BSC capacity recovered", ok,
            f"alternating {min(vals):.6f} bits, BSC err "
            f"{abs(bsc_val - (1.0 - h2)):.1e}")


def test_acceptance_6_strong_fading_construction():
    """Geometric supports are unit variance, satisfy the spacing condition,
    and the two-atom case degenerates to the dominant-mass bounds."""
    ok = True
    worst_var = 0.0
    for M in (3, 4, 5):
        for c in (2.0, 4.0, 8.0):
            d = strong_support(M, c)
            worst_var = max(worst_var, abs(d.var - 1.0))
            ok &= abs(d.var - 1.0) <= 1e-9
            ok &= strong_condition_check(d, c * c)
    # M = 2: both theorems describe the same two-point channel; with matching
    # slack terms (alpha = 1 pre-optimized, alpha = gap^2 large-gain) the
    # piecewise outer bounds agree branch by branch
    mp = mass_half_params(TWO_POINT)
    for P, c, alpha in ((15.0, 2.0, 1.0), (1.0, 8.0, 4.0)):
        sp = replace(strong_params(TWO_POINT, c * c), alpha_sf=alpha)
        a = outer_strong(ChannelParams(P=P, c=c), sp).bits
        b = outer_mass_half(ChannelParams(P=P, c=c), mp).bits
        ok &= abs(a - b) <= 1e-9
    _report(6, "strong-fading support construction and two-atom degeneration",
            ok, f"worst |var-1| {worst_var:.2e}")


def test_acceptance_7_piecewise_evaluators():
    """Hand-computed branch values and monotonicity in transmit power."""
    ok = True
    weak = outer_phase_binomial(3.0, 0.25, math.pi / 2)
    strong = outer_phase_binomial(3.0, 16.0, math.pi / 2)
    ok &= weak.bits == 4.0 and strong.bits == 3.5

    def grid(lo, hi):
        return np.logspace(math.log10(lo), math.log10(hi), 10)

    def nondecreasing(vals):
        return all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))

    mp = mass_half_params(TWO_POINT)
    sp = strong_params(strong_support(3, 2.0), 4.0)
    gauss_cp = continuous_interval_params(Gaussian(0.0, 1.0), (-1.5, 1.5))
    families = {
        "no-rcsi": [outer_no_rcsi(ChannelParams(P=P, c=2.0), 1.0).bits
                    for P in grid(0.1, 1000.0)],
        "mass-half-appendix": [outer_mass_half(ChannelParams(P=P, c=4.0), mp).bits
                               for P in grid(0.1, 1000.0)],
        # stay inside the pre-optimized branch regime; the piecewise strong
        # bound is discontinuous (hence non-monotone) across the branch switch
        "strong": [outer_strong(ChannelParams(P=P, c=2.0), sp).bits
                   for P in grid(2.0, 1000.0)],
        "phase-binomial": [
            outer_phase_binomial(P, 1.0, math.pi / 2).bits
            for P in grid(0.1, 1000.0)],
        "continuous": [
            outer_continuous(ChannelParams(P=P, c=2.0), gauss_cp).bits
            for P in grid(0.1, 1000.0)],
    }
    bad = [name for name, vals in families.items() if not nondecreasing(vals)]
    ok &= not bad
    _report(7, "piecewise outer bounds: hand-computed branch values and "
               "monotone growth in P", ok,
            "non-monotone: " + ",".join(bad) if bad else
            f"weak {weak.bits}, strong {strong.bits}, {len(families)} families monotone")


def test_acceptance_8_claim_surface_report(tmp_path, capsys):
    """Full claim-verification sweep: deterministic bytes, violations kept."""
    outs = []
    for tag in ("a", "b", "c"):
        target = tmp_path / f"report_{tag}.csv"
        code = main(["verify", "--preset", "all", "--format", "csv",
                     "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        outs.append(target.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    lines = outs[0].decode().strip().split("\n")
    header = lines[0].split(",")
    ok &= header[0] == "theorem" and "satisfied" in header
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    ok &= len(rows) > 30
    flagged = [r for r in rows if r["satisfied"] == "false"]
    # printed gap constants are asymptotic or inconsistent; finite grid points
    # must surface as flagged rows rather than disappear
    ok &= len(flagged) > 0
    ok &= all(r["measured_gap"] for r in rows)
    ok &= {"no-rcsi", "mass-half", "strong", "phase-binomial"} <= {
        r["theorem"] for r in rows}
    _report(8, "claim-surface report deterministic and violation-preserving",
            ok, f"{len(rows)} rows, {len(flagged)} flagged, byte-identical "
                f"across three runs")
