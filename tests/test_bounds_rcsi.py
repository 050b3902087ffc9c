import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fadingdirt.bounds_norcsi import ChannelParams
from fadingdirt.bounds_rcsi import (
    continuous_interval_params,
    inner_continuous,
    inner_mass_half,
    inner_strong,
    mass_half_params,
    outer_continuous,
    outer_mass_half,
    outer_phase_binomial,
    outer_strong,
    strong_condition_check,
    strong_params,
)
from fadingdirt.errors import (
    ConditionNotVerified,
    DeltaOutOfRange,
    IntervalMassTooSmall,
    NoDominantAtom,
    NotUniform,
    QuadratureFailure,
    ZeroAtomCollision,
    ZeroGain,
)
from fadingdirt.fading import (
    Discrete,
    Gaussian,
    LogNormal,
    TabulatedDensity,
    Uniform,
    geometric_fading,
    normalize_unit_variance,
    parse_distribution,
    strong_support,
)
from fadingdirt.gauss_mi import CostaAssignment, costa_rate_exact

mpmath.mp.dps = 50

TWO_POINT = Discrete(((-1.0, 0.5), (1.0, 0.5)))


class TestPhaseBinomial:
    def test_branch_weak(self):
        got = outer_phase_binomial(ChannelParams(P=3, c=0, Q=0.25), math.pi / 2)
        assert got.bits == 4.0
        assert got.branch == "weak-interference"

    def test_branch_strong(self):
        got = outer_phase_binomial(ChannelParams(P=3, c=0, Q=16.0), math.pi / 2)
        assert got.bits == 3.5
        assert got.branch == "strong-interference"

    def test_branch_middle_high_precision(self):
        got = outer_phase_binomial(ChannelParams(P=8, c=0, Q=4.0), math.pi / 2)
        P, c2 = mpmath.mpf(8), mpmath.mpf(4)
        want = float(
            mpmath.log(P + 1, 2) / 2
            + mpmath.log(1 + (mpmath.sqrt(P) + mpmath.sqrt(c2)) ** 2, 2) / 2
            - mpmath.log(2 * c2, 2) / 4 + 2)
        assert got.bits == pytest.approx(want, abs=1e-12)
        assert got.branch == "moderate-interference"

    def test_delta_out_of_range(self):
        for d in (0.0, math.pi / 8, math.pi):
            with pytest.raises(DeltaOutOfRange):
                outer_phase_binomial(ChannelParams(P=1, c=0, Q=1), d)


class TestMassHalfParams:
    def test_two_point(self):
        mp_ = mass_half_params(TWO_POINT)
        assert mp_.a_prime == -1.0
        assert mp_.P_prime == 0.5
        assert mp_.G == pytest.approx(1.0, abs=1e-12)
        assert mp_.G_prime == pytest.approx(0.5 * math.log2(5.0), abs=1e-12)

    def test_zero_dominant_atom_ok(self):
        mp_ = mass_half_params(Discrete(((0.0, 0.6), (2.0, 0.4))))
        assert mp_.a_prime == 0.0
        assert mp_.G == pytest.approx(0.4 * math.log2(4.0), abs=1e-12)
        assert mp_.G_prime == pytest.approx(0.4 * math.log2(2.0), abs=1e-12)

    def test_no_dominant_atom(self):
        with pytest.raises(NoDominantAtom):
            mass_half_params(Discrete(((-1.0, 0.4), (0.5, 0.3), (1.0, 0.3))))

    def test_zero_atom_collision(self):
        # the lattice law at p = 1/2 puts an atom exactly at zero, where the
        # G' summand diverges
        with pytest.raises(ZeroAtomCollision):
            mass_half_params(geometric_fading(0.5))

    def test_tie_break_smaller_abs(self):
        mp_ = mass_half_params(Discrete(((-2.0, 0.5), (1.0, 0.5))))
        assert mp_.a_prime == 1.0

    def test_rejects_continuous(self):
        with pytest.raises(NoDominantAtom):
            mass_half_params(Gaussian(0.0, 1.0))


class TestOuterMassHalf:
    def test_single_atom_large_gain_branch(self):
        mp_ = mass_half_params(Discrete(((1.0, 1.0),)))
        got = outer_mass_half(ChannelParams(P=15, c=8), mp_)
        assert got.bits == pytest.approx(0.5 * math.log2(16) + 1.5, abs=1e-12)

    def test_frozen_two_point_value(self):
        # branch 3 arithmetic: (1/2)(1/2)log2(16) + 3/2 - G/2 with G = 1
        mp_ = mass_half_params(TWO_POINT)
        got = outer_mass_half(ChannelParams(P=15, c=8), mp_)
        assert got.bits == pytest.approx(2.0, abs=1e-12)
        assert got.branch == "large-gain"

    def test_branch2_high_precision(self):
        mp_ = mass_half_params(TWO_POINT)
        got = outer_mass_half(ChannelParams(P=15, c=1), mp_)
        P, c2, G = mpmath.mpf(15), mpmath.mpf(1), mpmath.mpf(1)
        want = float(mpmath.log(P + c2 + 1, 2) / 2
                     - mpmath.log(c2, 2) / 4 - G / 2 + 1)
        assert got.bits == pytest.approx(want, abs=1e-12)

    def test_zero_gain(self):
        mp_ = mass_half_params(TWO_POINT)
        with pytest.raises(ZeroGain):
            outer_mass_half(ChannelParams(P=15, c=0), mp_)

    def test_nondecreasing_in_p(self):
        mp_ = mass_half_params(TWO_POINT)
        vals = [outer_mass_half(ChannelParams(P=float(P), c=2), mp_).bits
                for P in np.logspace(-1, 3, 10)]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))


class TestInnerMassHalf:
    def test_no_dirt_is_awgn(self):
        mp_ = mass_half_params(TWO_POINT)
        got = inner_mass_half(ChannelParams(P=15, c=0), TWO_POINT, mp_)
        assert got.bits == pytest.approx(0.5 * math.log2(16), abs=1e-12)

    def test_single_atom_perfect_precancellation(self):
        d = Discrete(((1.0, 1.0),))
        mp_ = mass_half_params(d)
        got = inner_mass_half(ChannelParams(P=15, c=8), d, mp_)
        assert got.bits == pytest.approx(0.5 * math.log2(16), abs=1e-9)

    def test_at_least_treat_as_noise(self):
        for P in (0.1, 1.0, 100.0):
            for c in (0.5, 2.0, 10.0):
                mp_ = mass_half_params(TWO_POINT)
                got = inner_mass_half(ChannelParams(P=P, c=c), TWO_POINT, mp_)
                treat = 0.5 * math.log2(1 + P / (1 + c * c))
                assert got.bits >= max(treat, 0.0) - 1e-12

    def test_matches_covariance_oracle(self):
        mp_ = mass_half_params(TWO_POINT)
        params = ChannelParams(P=15, c=8)
        got = inner_mass_half(params, TWO_POINT, mp_)
        candidates = []
        for delta in (0.0, 1.0, max(min((0.5 / 0.5) * 64 - 1, 15.0), 0.0) / 15.0):
            candidates.append(costa_rate_exact(
                params, TWO_POINT,
                CostaAssignment(a_target=mp_.a_prime, split_delta=delta)))
        assert got.bits == pytest.approx(max(candidates), abs=1e-9)


@st.composite
def dominant_atom_laws(draw):
    """Unit-variance discrete laws of 2 to 6 atoms, none at 0, with one atom
    of mass in [1/2, 0.99)."""
    ivals = draw(st.lists(st.integers(-500, 500), min_size=2, max_size=6, unique=True))
    top = draw(st.floats(0.5, 0.99, exclude_max=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(ivals) - 1,
                            max_size=len(ivals) - 1))
    i = draw(st.integers(0, len(ivals) - 1))
    rest = [(1.0 - top) * w / sum(weights) for w in weights]
    probs = rest[:i] + [top] + rest[i:]
    law = normalize_unit_variance(Discrete(tuple(sorted(zip(ivals, probs)))))
    assume(np.min(np.abs(law.values)) > 1e-6)
    return law


@settings(max_examples=300, deadline=None)
@given(dominant_atom_laws(), st.floats(-3.0, 6.0), st.floats(-2.0, 3.0))
def test_mass_half_inner_below_ceiling_and_outer(law, log_p, log_c):
    params = ChannelParams(P=10.0 ** log_p, c=10.0 ** log_c)
    mp_ = mass_half_params(law)
    inner = inner_mass_half(params, law, mp_).bits
    assert 0.0 <= inner <= 0.5 * math.log2(1.0 + params.P)
    assert inner <= outer_mass_half(params, mp_).bits


class TestStrongCondition:
    @pytest.mark.parametrize("M", [3, 4, 5])
    @pytest.mark.parametrize("c", [2.0, 4.0, 8.0])
    def test_construction_passes(self, M, c):
        d = strong_support(M, c)
        assert strong_condition_check(d, c, c * c / (c * c + 1.0))

    def test_equally_spaced_fails_at_large_gain(self):
        vals = np.linspace(-1, 1, 5)
        vals = (vals - vals.mean()) / vals.std()
        d = Discrete(tuple((float(v), 0.2) for v in vals))
        assert not strong_condition_check(d, 20.0, 400.0 / 401.0)

    def test_m2_vacuous(self):
        assert strong_condition_check(TWO_POINT, 100.0, 0.99)

    def test_not_uniform(self):
        with pytest.raises(NotUniform):
            strong_condition_check(Discrete(((-1.0, 0.7), (1.0, 0.3))), 2.0, 0.8)


class TestOuterStrong:
    def test_requires_condition(self):
        d = strong_support(3, 2.0)
        sp = strong_params(d, 0.8)
        with pytest.raises(ConditionNotVerified):
            outer_strong(ChannelParams(P=10, c=2), sp, condition_ok=False)

    def test_large_gain_branch_arithmetic(self):
        # k2/M > (M-1)/M (P+1): M=3, c=30, P=1
        d = strong_support(3, 30.0)
        al = 0.9
        sp = strong_params(d, al)
        got = outer_strong(ChannelParams(P=1, c=30), sp, condition_ok=True)
        want = (1 / 6) * math.log2(2.0) - (2 / 6) * math.log2(al) + 1.5
        assert got.bits == pytest.approx(want, abs=1e-12)
        assert got.branch == "large-gain"

    def test_high_precision_appendix(self):
        c = 10.0
        al = c * c / (c * c + 1.0)
        d = strong_support(4, c)
        sp = strong_params(d, al)
        got = outer_strong(ChannelParams(P=100, c=c), sp, condition_ok=True)
        P, k2, alm = mpmath.mpf(100), mpmath.mpf(100), mpmath.mpf(100) / 101
        w = mpmath.mpf(3) / 8
        want = float(mpmath.log(P + k2 + 1, 2) / 2 - w * mpmath.log(k2, 2)
                     - w * mpmath.log(alm, 2) + mpmath.mpf("0.5"))
        assert got.bits == pytest.approx(want, abs=1e-12)

    def test_m2_coincides_with_mass_half_preoptimized_branch(self):
        # equivalent slack alpha = 1 makes the M=2 pre-optimized branches equal
        mp_ = mass_half_params(TWO_POINT)
        sp = strong_params(TWO_POINT, 1.0)
        a = outer_strong(ChannelParams(P=15, c=2), sp, condition_ok=True)
        b = outer_mass_half(ChannelParams(P=15, c=2), mp_)
        assert a.bits == pytest.approx(b.bits, abs=1e-9)

    def test_m2_coincides_with_mass_half_large_gain_branch(self):
        # equivalent slack alpha = Delta_1^2 = 4 for the large-gain branch
        mp_ = mass_half_params(TWO_POINT)
        sp = strong_params(TWO_POINT, 4.0)
        a = outer_strong(ChannelParams(P=1, c=8), sp, condition_ok=True)
        b = outer_mass_half(ChannelParams(P=1, c=8), mp_)
        assert a.bits == pytest.approx(b.bits, abs=1e-9)

    def test_nondecreasing_in_p(self):
        c = 2.0
        d = strong_support(3, c)
        sp = strong_params(d, c * c / (c * c + 1.0))
        # stay inside the pre-optimized branch regime (P >= k2/(M-1) - 1);
        # across the regime switch the piecewise theorem is not monotone
        vals = [outer_strong(ChannelParams(P=float(P), c=c), sp, condition_ok=True).bits
                for P in np.logspace(math.log10(2.0), 3, 10)]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))


class TestInnerStrong:
    def test_no_dirt_is_awgn(self):
        d = strong_support(3, 2.0)
        got = inner_strong(ChannelParams(P=15, c=0), d)
        assert got.bits == pytest.approx(0.5 * math.log2(16), abs=1e-12)

    def test_m2_equals_inner_mass_half(self):
        mp_ = mass_half_params(TWO_POINT)
        for P, c in ((1.0, 2.0), (15.0, 8.0), (100.0, 1.0)):
            a = inner_strong(ChannelParams(P=P, c=c), TWO_POINT)
            b = inner_mass_half(ChannelParams(P=P, c=c), TWO_POINT, mp_)
            assert a.bits == pytest.approx(b.bits, abs=1e-12)

    def test_matches_covariance_oracle(self):
        d = strong_support(3, 2.0)
        params = ChannelParams(P=15, c=2)
        got = inner_strong(params, d)
        best = -1.0
        for a_t in d.values:
            for delta in np.linspace(0.0, 1.0, 41):
                best = max(best, costa_rate_exact(
                    params, d, CostaAssignment(a_target=float(a_t),
                                               split_delta=float(delta))))
        # strategies are a subset of (a_target, split) choices
        assert got.bits <= best + 1e-9
        oracle_full = max(costa_rate_exact(
            params, d, CostaAssignment(a_target=float(a_t))) for a_t in d.values)
        assert got.bits >= oracle_full - 1e-9

    def test_not_uniform(self):
        with pytest.raises(NotUniform):
            inner_strong(ChannelParams(P=1, c=1), Discrete(((-1.0, 0.7), (1.0, 0.3))))


class TestContinuous:
    def test_gaussian_interval(self):
        g = Gaussian(0.0, 1.0)
        cp = continuous_interval_params(g, (-1.0, 1.0))
        assert cp.prob_I == pytest.approx(0.6826894921, abs=1e-6)
        assert -1.0 <= cp.a_prime <= 1.0
        # mean-value equation holds at the root
        assert float(g.pdf(cp.a_prime)) * 2.0 == pytest.approx(cp.prob_I, abs=1e-8)

    def test_uniform_full_support_degenerate(self):
        u = Uniform(-math.sqrt(3), math.sqrt(3))
        cp = continuous_interval_params(u, u.support())
        assert cp.prob_I == pytest.approx(1.0, abs=1e-9)
        assert cp.a_prime == u.lo
        assert cp.G_tilde_cont == 0.0

    @pytest.mark.parametrize("law,interval", [
        ("gaussian", (-1.0, 1.0)), ("gaussian", (-0.8, 1.3)), ("rayleigh", (-1.0, 1.5)),
        ("rayleigh", None), ("uniform", (-1.5, 1.5)), ("uniform", (-1.8, 1.8)),
        # a triangle whose density meets P(I)/(b-a) = 1/2 on the grid, at x = -1/2
        (TabulatedDensity(((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0))), (-1.0, 1.0)),
    ])
    def test_a_prime_matches_grid_scan(self, law, interval):
        # the first grid point on the level, else bisection of the first
        # sign change, found by a plain scan over the 2001-point grid
        dist = parse_distribution(law)
        a, b = interval or dist.support()
        cp = continuous_interval_params(dist, (a, b))
        target = cp.prob_I / (b - a)
        xs = np.linspace(a, b, 2001)
        fs = dist.pdf(xs) - target
        if np.max(np.abs(fs)) < 1e-12:
            assert cp.a_prime == a
            return
        i = next(i for i in range(len(xs)) if fs[i] == 0.0 or fs[i] * fs[i + 1] < 0)
        if fs[i] == 0.0:
            assert cp.a_prime == xs[i]
            return
        lo, hi = xs[i], xs[i + 1]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if fs[i] * (float(dist.pdf(mid)) - target) <= 0 else (mid, hi)
        assert cp.a_prime == 0.5 * (lo + hi)

    @pytest.mark.parametrize("interval", [None, (0.5, 2.0)], ids=["support", "interval"])
    def test_quadrature_that_misses_the_mass_fails(self, interval):
        # quad sees 7e-12 of this law's mass over its support: the P(I) check
        # alone read that as IntervalMassTooSmall, and over (0.5, 2), where
        # P(I) = 0.51 is right, the complement integral G-tilde came out wrong
        law = LogNormal(0.0, 1.0)
        with pytest.raises(QuadratureFailure, match="mass"):
            continuous_interval_params(law, interval or law.support())

    def test_interval_mass_too_small(self):
        with pytest.raises(IntervalMassTooSmall):
            continuous_interval_params(Gaussian(0.0, 1.0), (0.0, 0.1))

    def test_outer_zero_gain(self):
        with pytest.raises(ZeroGain):
            cp = continuous_interval_params(Gaussian(0.0, 1.0), (-1, 1))
            outer_continuous(ChannelParams(P=1, c=0), cp)

    def test_outer_finite_and_above_inner(self):
        g = Gaussian(0.0, 1.0)
        for P in (1.0, 10.0, 100.0):
            for c in (1.0, 3.0):
                params = ChannelParams(P=P, c=c)
                cp = continuous_interval_params(g, (-1.0, 1.0))
                o = outer_continuous(params, cp)
                i = inner_continuous(params, g, cp.a_prime)
                assert math.isfinite(o.bits)
                assert 0.0 <= i.bits <= 0.5 * math.log2(1 + P) + 1e-9
                assert o.bits >= i.bits - 1e-9

    def test_inner_quadrature_against_trapezoid(self):
        g = Gaussian(0.0, 1.0)
        params = ChannelParams(P=15, c=2)
        cp = continuous_interval_params(g, (-1.0, 1.0))
        got = inner_continuous(params, g, cp.a_prime)
        xs = np.linspace(-12, 12, 200001)
        f = g.pdf(xs) * np.log2(
            15 * 4 / (15 + 4 * xs ** 2 + 1) * (xs - cp.a_prime) ** 2 + 1.0)
        want = max(0.0, 0.5 * math.log2(16) - 0.5 * float(np.trapezoid(f, xs)))
        assert got.bits == pytest.approx(want, abs=1e-6)

    def test_outer_nondecreasing_in_p(self):
        cp = continuous_interval_params(Gaussian(0.0, 1.0), (-1.0, 1.0))
        vals = [outer_continuous(ChannelParams(P=float(P), c=2), cp).bits
                for P in np.logspace(-1, 3, 10)]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))
