import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdirt.bounds_norcsi import (
    ChannelParams,
    RateBound,
    gap_no_rcsi,
    inner_no_rcsi,
    k_star,
    outer_no_rcsi,
)
from fadingdirt.errors import (
    DegenerateDenominator,
    InvalidAlpha,
    NonFinite,
    ToolkitError,
    ZeroGain,
)
from fadingdirt.fading import (
    LN2,
    TWO_PI_E,
    Gaussian,
    LogNormal,
    Uniform,
    entropy_power_alpha,
    normalize_unit_variance,
    unit_rayleigh,
)
from fadingdirt.gauss_mi import CostaAssignment, costa_rate_exact

mpmath.mp.dps = 50

ALPHA_U = 12.0 / TWO_PI_E


def mp_outer(P, c2, alpha):
    """50-digit reference for the outer bound expression."""
    P, c2, alpha = mpmath.mpf(P), mpmath.mpf(c2), mpmath.mpf(alpha)
    return float(mpmath.log((P + 1) / (c2 * alpha) + 1 / alpha, 2) / 2 + mpmath.mpf("0.5"))


def mp_inner(P, c2):
    P, c2 = mpmath.mpf(P), mpmath.mpf(c2)
    return float(mpmath.log(1 + P / (c2 + 1), 2) / 2)


def _log_add(x, y):
    hi, lo = max(x, y), min(x, y)
    return hi + math.log1p(math.exp(lo - hi))


def _two_form_outer(params, alpha):
    """The outer bound as it was computed before it had one form, kept as its
    oracle: the direct form and (P + 1 + c^2)/(c^2 a), both summed in the log
    domain when either is not finite, and required to agree."""
    P, c = params.P, params.c
    bits = 0.5 * math.log2((P + 1) / (c * c * alpha) + 1.0 / alpha) + 0.5
    alt = 0.5 * math.log2((P + 1 + c * c) / (c * c * alpha)) + 0.5
    if not (math.isfinite(bits) and math.isfinite(alt)):
        log_c2, log_a = 2.0 * math.log(abs(c)), math.log(alpha)
        bits = 0.5 * _log_add(math.log1p(P) - log_c2 - log_a, -log_a) / LN2 + 0.5
        alt = 0.5 * (_log_add(math.log1p(P), log_c2) - log_c2 - log_a) / LN2 + 0.5
    assert abs(bits - alt) < 1e-12, (bits, alt)
    return bits


def _bits_or_error(bound, *args):
    try:
        return bound(*args)
    except (ToolkitError, ArithmeticError) as exc:
        return type(exc)


class TestOuter:
    def test_exact_arithmetic_p3_c2(self):
        assert outer_no_rcsi(ChannelParams(P=3, c=2), 1.0).bits == pytest.approx(
            1.0, abs=1e-12)

    def test_exact_arithmetic_p0_c1(self):
        assert outer_no_rcsi(ChannelParams(P=0, c=1), 1.0).bits == pytest.approx(
            1.0, abs=1e-12)

    def test_against_high_precision_oracle(self):
        got = outer_no_rcsi(ChannelParams(P=10, c=3), ALPHA_U).bits
        assert got == pytest.approx(mp_outer(10, 9, ALPHA_U), abs=1e-12)

    def test_rejects_zero_gain(self):
        with pytest.raises(ZeroGain):
            outer_no_rcsi(ChannelParams(P=1, c=0), 1.0)

    @pytest.mark.parametrize("P, c, alpha", [
        (1e308, 0.5, 1.0),
        (1e308, 0.5, ALPHA_U),
        (1.7976931348623157e308, 1e154, 0.3),
        (1e300, 1e-9, 1e-10),
        (1e308, 3.2e154, 0.5),
        (1.0, 1e-9, 1e-310),
        (1.0, 1e-9, 4e-320),
        (1.0, 1e-5, 1e-320),
    ], ids=["P1e308", "P1e308-uniform-alpha", "Pmax-c1e154", "tiny-c2-alpha",
            "c2-overflows", "c2-alpha-underflows", "alpha4e-320", "c1e-5-alpha1e-320"])
    def test_overflow_computed_in_log_domain(self, P, c, alpha):
        # (P+1)/(c^2 a) or P+1+c^2 overflows, or c^2 a underflows to 0; the
        # bound itself is finite.  At c = 3.2e154, c^2 alone overflows and the
        # direct form reads 1.0 bit
        got = outer_no_rcsi(ChannelParams(P=P, c=c), alpha).bits
        assert got == pytest.approx(mp_outer(P, mpmath.mpf(c) ** 2, alpha), abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, sys.float_info.max),
           st.floats(1e-9, 1e160) | st.floats(-1e160, -1e-9),
           st.floats(1e-300, 1.0))
    def test_equals_two_form_oracle(self, P, c, alpha):
        args = (ChannelParams(P=P, c=c), alpha)
        assert (_bits_or_error(lambda *a: outer_no_rcsi(*a).bits, *args)
                == _bits_or_error(_two_form_outer, *args))

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InvalidAlpha):
                outer_no_rcsi(ChannelParams(P=1, c=1), alpha)

    def test_monotone_in_alpha_and_p(self):
        alphas = np.linspace(0.05, 1.0, 10)
        vals = [outer_no_rcsi(ChannelParams(P=5, c=2), float(a)).bits for a in alphas]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
        Ps = np.logspace(-1, 3, 10)
        vals = [outer_no_rcsi(ChannelParams(P=float(p), c=2), 0.7).bits for p in Ps]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))


# unit-variance fading of mean 1, so that the inflation k matters
_MEAN_ONE = Gaussian(1.0, 1.0)


def _rate_at_k(params, k):
    """No-RCSI Costa rate of U = X + kS against the mean fading, at inflation k."""
    return costa_rate_exact(params, _MEAN_ONE, CostaAssignment(inflation_k=k, rcsi=False))


class TestInner:
    def test_awgn_degenerate(self):
        assert inner_no_rcsi(ChannelParams(P=3, c=0)).bits == pytest.approx(1.0, abs=1e-12)

    def test_high_precision(self):
        assert inner_no_rcsi(ChannelParams(P=3, c=1)).bits == pytest.approx(
            mp_inner(3, 1), abs=1e-12)

    def test_zero_power(self):
        assert inner_no_rcsi(ChannelParams(P=0, c=5)).bits == 0.0

    def test_k_star_zero_mean(self):
        assert k_star(ChannelParams(P=3, c=1), 0.0) == 0.0

    def test_k_star_zero_within_the_mean_zero_rule(self):
        # geometric_fading(0.55)'s truncated tail leaves a mean of -9.6e-13;
        # 1e-12 is the rule's edge
        p = ChannelParams(P=3, c=2)
        assert k_star(p, -9.6e-13) == 0.0
        assert k_star(p, 1e-12) == 0.0
        assert k_star(p, -2e-12) == pytest.approx(-3 * 2 * 2e-12 / 8, rel=1e-12)

    def test_with_k_zero_simplifies(self):
        got = _rate_at_k(ChannelParams(P=3, c=1), 0.0)
        want = 0.5 * math.log2(1 + 3 / (1 * (1 + 1) + 1))
        assert got == pytest.approx(want, abs=1e-12)

    def test_k_star_optimal_on_grid(self):
        p = ChannelParams(P=3, c=1)
        ks = k_star(p, _MEAN_ONE.mean)
        best = _rate_at_k(p, ks)
        for k in np.linspace(ks - 0.5, ks + 0.5, 21):
            assert best >= _rate_at_k(p, float(k)) - 1e-12

    def test_k_star_beats_plain_inner(self):
        p = ChannelParams(P=3, c=1)
        assert _rate_at_k(p, k_star(p, _MEAN_ONE.mean)) >= inner_no_rcsi(p).bits - 1e-12

    @pytest.mark.parametrize("bits", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_rejected(self, bits):
        with pytest.raises(NonFinite):
            RateBound(bits=bits, theorem="no-rcsi-inner", branch="costa-mean")

    def test_params_validation(self):
        with pytest.raises(DegenerateDenominator):
            ChannelParams(P=-1, c=1)
        with pytest.raises(DegenerateDenominator):
            ChannelParams(P=1, c=float("inf"))


class TestGap:
    def test_values(self):
        assert gap_no_rcsi(1.0) == 0.5
        assert gap_no_rcsi(ALPHA_U) == pytest.approx(
            0.5 * math.log2(TWO_PI_E / 12) + 0.5, abs=1e-12)
        assert gap_no_rcsi(1e-6) > 5.0  # diverges as alpha -> 0

    def test_exact_gap_identity_50_digits(self):
        for P in (0.1, 1.0, 10.0, 100.0, 1000.0):
            for c2 in (0.5, 3.0, 100.0, 1e4):
                for alpha in (1.0, ALPHA_U, 0.3):
                    c = math.sqrt(c2)
                    diff = (outer_no_rcsi(ChannelParams(P=P, c=c), alpha).bits
                            - inner_no_rcsi(ChannelParams(P=P, c=c)).bits)
                    want = float(mpmath.log(
                        (mpmath.mpf(c2) + 1) / (mpmath.mpf(c2) * mpmath.mpf(alpha)), 2)
                        / 2 + mpmath.mpf("0.5"))
                    assert diff == pytest.approx(want, abs=1e-12)

    def test_c2_ge_3_bound(self):
        cap = 0.5 * math.log2(4.0 / 3.0) + 0.5
        for c2 in (3.0, 10.0, 100.0, 1e4):
            got = 0.5 * math.log2((c2 + 1) / c2) + 0.5
            assert got <= cap + 1e-12

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            gap_no_rcsi(0.0)


def law_gap(dist):
    """The claimed no-RCSI gap of a law, as `verify` computes it."""
    return gap_no_rcsi(entropy_power_alpha(normalize_unit_variance(dist)))


class TestCatalog:
    """The gaps of the canonical fading families against the constants the
    source paper prints for them."""

    def test_gaussian(self):
        assert law_gap(Gaussian(0.0, 1.0)) == 0.5

    def test_uniform_le_one(self):
        g = law_gap(Uniform(0.0, 1.0))
        assert g == pytest.approx(0.5 * math.log2(TWO_PI_E / 12) + 0.5, abs=1e-12)
        assert g <= 1.0

    def test_rayleigh_le_printed_bound(self):
        # the printed constant, gamma + 3/2 = 2.077, mixes log bases
        assert law_gap(unit_rayleigh()) == pytest.approx(0.5779, abs=1e-4)
        assert law_gap(unit_rayleigh()) <= 2.08

    def test_lognormal_monotone(self):
        vals = [law_gap(LogNormal(0.0, s2)) for s2 in (1.0, 4.0, 9.0)]
        assert vals == pytest.approx([1.6118, 5.2574, 11.8992], abs=1e-4)
        assert vals[0] < vals[1] < vals[2]
