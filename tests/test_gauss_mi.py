import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdirt import fading, gauss_mi
from fadingdirt.bounds_norcsi import ChannelParams, k_star
from fadingdirt.bounds_rcsi import inner_continuous
from fadingdirt.errors import (
    DiscreteUnsupported,
    InsufficientSamples,
    NonFinite,
    SingularCovariance,
    ToolkitError,
)
from fadingdirt.fading import (
    LN2,
    Discrete,
    Gaussian,
    LogNormal,
    Rayleigh,
    Uniform,
    geometric_fading,
    normalize_unit_variance,
    parse_distribution,
    seeded_rng,
    strong_support,
)
from fadingdirt.gauss_mi import (
    CostaAssignment,
    costa_inflation,
    costa_rate_exact,
    mi_monte_carlo,
)

from laws import TABULATED_0, TWO_POINT, UNIT_LOGNORMAL


def _log_normal_pdf(x, mean, var):
    return -0.5 * np.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def reference_mi(params, dist, asg, n, seed):
    """The two-stage rate (X2 decoded first, then U from y - x2) scored
    sample by sample from whole-stream arrays: log p(y - x2 | u[, a]) -
    log p(y[, a]) - [log p(u | s) - log p(u)], four Gaussian log-densities
    per sample with RCSI, scipy's logsumexp over every (sample, atom) term of
    the two mixtures without.  Same streams, draws and moment merge as
    `mi_monte_carlo`; a test oracle only."""
    from scipy.special import logsumexp

    P1, P2, k = gauss_mi._resolve(params, dist, asg)
    c, P = params.c, params.P
    var_u = P1 + k * k

    def moments(a):
        """Mean coefficient and variance of Y - X2 given U at fading a."""
        coef = (P1 + c * a * k) / var_u
        return coef, P1 + c * c * a * a - (P1 + c * a * k) ** 2 / var_u + 1.0

    av, aw = gauss_mi._mixture_atoms(dist, c, lambda a: (moments(a)[1], P + c * c * a * a + 1.0))
    coef_g, v_g = moments(av)
    vy_g = P + c * c * av * av + 1.0
    counts = np.full(16, n // 16)
    counts[: n % 16] += 1
    means, m2s = np.zeros(16), np.zeros(16)
    for j in range(16):
        rng, nj = seeded_rng(seed, j), int(counts[j])
        a = dist._draw(rng, nj)
        s = rng.standard_normal(nj)
        x1 = math.sqrt(P1) * rng.standard_normal(nj)
        x2 = math.sqrt(P2) * rng.standard_normal(nj) if P2 > 0 else 0.0
        z = rng.standard_normal(nj)
        u = x1 + k * s
        y = x1 + x2 + c * a * s + z
        if asg.rcsi:
            coef, v = moments(a)
            lp_y_u = _log_normal_pdf(y - x2, coef * u, v)
            lp_y = _log_normal_pdf(y, 0.0, P + c * c * a * a + 1.0)
        else:
            lp_y_u = logsumexp(np.log(aw) + _log_normal_pdf(
                (y - x2)[:, None], coef_g * u[:, None], v_g), axis=1)
            lp_y = logsumexp(np.log(aw) + _log_normal_pdf(y[:, None], 0.0, vy_g), axis=1)
        contrib = (lp_y_u - lp_y - _log_normal_pdf(u, k * s, P1)
                   + _log_normal_pdf(u, 0.0, var_u)) / LN2
        means[j] = contrib.mean()
        m2s[j] = ((contrib - means[j]) ** 2).sum()
    mean, m2, cnt = 0.0, 0.0, 0.0
    for j in range(16):
        nj = float(counts[j])
        delta = means[j] - mean
        tot = cnt + nj
        mean += delta * nj / tot
        m2 += m2s[j] + delta * delta * cnt * nj / tot
        cnt = tot
    return float(mean), math.sqrt(m2 / (cnt - 1.0) / cnt)


class TestCostaExact:
    def test_clean_dirty_paper_limit(self):
        got = costa_rate_exact(ChannelParams(P=15, c=0), TWO_POINT,
                               CostaAssignment(a_target=0.0))
        assert got == pytest.approx(0.5 * math.log2(16), abs=1e-12)

    def test_point_mass_hand_formula(self):
        # single fading atom equal to the precoding target, half power split:
        # Costa stage is clean at power P1 against noise 1 + c^2 a^2 + P1 for
        # the first-decoded treat-as-noise stage
        a, P, c, delta = 2.0, 12.0, 3.0, 0.5
        d = Discrete(((a, 1.0),))
        P1, P2 = delta * P, (1 - delta) * P
        want = (0.5 * math.log2(1 + P2 / (1 + c * c * a * a + P1))
                + 0.5 * math.log2(1 + P1))
        got = costa_rate_exact(ChannelParams(P=P, c=c), d,
                               CostaAssignment(a_target=a, split_delta=delta))
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_point_mass_at_zero_is_clean_at_any_gain(self, delta):
        # c^2 overflows, but the dirt c A S is 0: c^2 var(A) read inf * 0
        got = costa_rate_exact(ChannelParams(P=15, c=1e160), Discrete(((0.0, 1.0),)),
                               CostaAssignment(inflation_k=0.0, split_delta=delta, rcsi=False))
        assert got == pytest.approx(0.5 * math.log2(16), abs=1e-12)

    def test_split_zero_is_treat_as_noise(self):
        params = ChannelParams(P=15, c=2)
        got = costa_rate_exact(params, TWO_POINT,
                               CostaAssignment(a_target=-1.0, split_delta=0.0))
        assert got == pytest.approx(0.5 * math.log2(1 + 15 / (1 + 4)), abs=1e-9)

    def test_gme_route_matches_closed_form(self):
        # 1/2 log2(P / (P + k^2 - (P + k c mu)^2 / (P + c^2 (1 + mu^2) + 1)))
        # for a unit-variance law of mean mu
        P, c, mu = 3.0, 1.0, 1.0
        params = ChannelParams(P=P, c=c)
        ks = k_star(params, mu)
        got = costa_rate_exact(params, Gaussian(mu, 1.0),
                               CostaAssignment(inflation_k=ks, rcsi=False))
        big = P + c * c * (1.0 + mu * mu) + 1.0
        want = 0.5 * math.log2(P / (P + ks * ks - (P + ks * c * mu) ** 2 / big))
        assert got == pytest.approx(want, abs=1e-12)

    def test_default_no_rcsi_inflation_takes_the_law_mean(self):
        params, law = ChannelParams(P=3, c=1), Gaussian(1.0, 1.0)
        got = costa_rate_exact(params, law, CostaAssignment(rcsi=False))
        assert k_star(params, law.mean) != 0.0
        assert got == costa_rate_exact(
            params, law, CostaAssignment(inflation_k=k_star(params, law.mean), rcsi=False))

    def test_default_inflation(self):
        assert costa_inflation(15.0, 8.0, -1.0) == pytest.approx(
            -15.0 / 16.0 * 8.0, abs=1e-12)

    def test_rejects_continuous_with_rcsi(self):
        with pytest.raises(DiscreteUnsupported):
            costa_rate_exact(ChannelParams(P=1, c=1), Gaussian(0.0, 1.0),
                             CostaAssignment(a_target=0.0, rcsi=True))

    def test_rejects_bad_split(self):
        with pytest.raises(SingularCovariance):
            CostaAssignment(a_target=0.0, split_delta=1.5)

    def test_large_gain_is_computed(self):
        # var(Y) var(U) overflows at c = 1e100, but var(Y - X2 | U) does not;
        # the rate by 800-digit determinants is 0.3903278081641277
        got = costa_rate_exact(ChannelParams(P=10, c=1e100), TWO_POINT,
                               CostaAssignment(a_target=1.0))
        assert got == pytest.approx(0.3903278081641277, rel=0, abs=1e-14)

    def test_overflowing_covariance_is_non_finite(self):
        # var(Y) overflows at k = 0, var(U) at k = 1e155, and (k - c a)^2 on
        # the atom a = -1 at k = c = 1e154; an inf - inf is a nan that the
        # clamp at 0 bits would hide
        for c, asg in ((1e160, CostaAssignment(a_target=0.0)),
                       (1.0, CostaAssignment(a_target=1.0, inflation_k=1e155)),
                       (1e154, CostaAssignment(a_target=1.0, inflation_k=1e154))):
            with pytest.raises(NonFinite, match="overflows"):
                costa_rate_exact(ChannelParams(P=10, c=c), TWO_POINT, asg)

    def test_rejects_singular_covariance(self):
        with pytest.raises(SingularCovariance, match="too small"):
            costa_rate_exact(ChannelParams(P=1e-15, c=1), TWO_POINT,
                             CostaAssignment(a_target=0.0))

    def test_det_equal_to_var_u_is_computed(self):
        # at P = 1e20 with k = 1 on the atom a = 1, det(U, Y) = var(U): the
        # product form rounded it to 0; the value is mpmath's
        got = costa_rate_exact(ChannelParams(P=1e20, c=1), TWO_POINT,
                               CostaAssignment(a_target=1.0, inflation_k=1.0))
        assert got == 32.63879892515178


def mp_rate_exact(params, dist, asg):
    """The exact rate by 50-digit covariance determinants, from the same
    float P1, k and gains c a as `costa_rate_exact`: with exact products,
    inputs near P1 = 1e16 are ill-conditioned in the last bit of k."""
    if asg.rcsi and not dist.is_discrete:
        raise DiscreteUnsupported("exact per-realization rate needs finite fading atoms")
    P1, P2, k = gauss_mi._resolve(params, dist, asg)
    c = params.c
    with mpmath.workdps(50):
        if asg.rcsi:
            atoms = [(mpmath.mpf(p), mpmath.mpf(c * a), 0)
                     for a, p in zip(dist.values, dist.probs)]
        else:
            atoms = [(1, mpmath.mpf(c * dist.mean), mpmath.mpf(c) ** 2 * dist.var)]
        P1, P2, k = mpmath.mpf(P1), mpmath.mpf(P2), mpmath.mpf(k)
        stage1 = sum(p * mpmath.log(1 + P2 / (1 + ca * ca + spread + P1), 2) / 2
                     for p, ca, spread in atoms)
        if P1 <= 0:
            return float(stage1)
        var_u = P1 + k * k
        if var_u < gauss_mi._VAR_MIN:
            raise SingularCovariance(f"var(U) = {var_u} too small")

        def i_yu(ca, spread):
            var_y = P1 + ca * ca + spread + 1
            cov = P1 + k * ca
            return mpmath.log(var_y * var_u / (var_y * var_u - cov * cov), 2) / 2

        stage2 = sum(p * i_yu(ca, spread) for p, ca, spread in atoms)
        return float(stage1 + max(0, stage2 - mpmath.log(var_u / P1, 2) / 2))


def _rate_or_error(rate, *args):
    try:
        return rate(*args)
    except ToolkitError as exc:
        return type(exc)


@st.composite
def discrete_laws(draw):
    """Discrete laws of 1 to 6 atoms in [-4, 4]; some atoms may be 0."""
    values = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
    return Discrete(tuple(sorted((v, w / sum(weights)) for v, w in zip(values, weights))))


_DENSITIES = st.one_of(
    st.builds(Gaussian, st.floats(-3.0, 3.0), st.floats(0.1, 4.0)),
    st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(-3.0, 3.0), st.floats(0.1, 4.0)),
    st.builds(Rayleigh, st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)
              .filter(bool)),
    st.builds(LogNormal, st.floats(-1.0, 1.0), st.floats(0.05, 2.0)))


def _assert_matches_mpmath(args, tol):
    want = _rate_or_error(mp_rate_exact, *args)
    got = _rate_or_error(costa_rate_exact, *args)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert got == pytest.approx(want, rel=0, abs=tol)


# (largest P, largest |c| and |k|, tolerance in bits): a moderate domain, and
# one where det(U, Y) formed as var(Y) var(U) - cov^2 loses every digit
_DOMAINS = [pytest.param(1e4, 10.0, 1e-12, id="moderate"),
            pytest.param(1e20, 1e12, 1e-9, id="large")]


@pytest.mark.parametrize("P_max, c_max, tol", _DOMAINS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_rate_with_rcsi_at_split_one_matches_mpmath(P_max, c_max, tol, data):
    law = data.draw(discrete_laws())
    P, c = data.draw(st.floats(0.0, P_max)), data.draw(st.floats(-c_max, c_max))
    asg = CostaAssignment(a_target=data.draw(st.floats(-4.0, 4.0)),
                          inflation_k=data.draw(st.none() | st.floats(-c_max, c_max)))
    _assert_matches_mpmath((ChannelParams(P=P, c=c), law, asg), tol)


@pytest.mark.parametrize("P_max, c_max, tol", _DOMAINS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_rate_without_rcsi_matches_mpmath(P_max, c_max, tol, data):
    law = data.draw(discrete_laws() | _DENSITIES)
    P, c = data.draw(st.floats(0.0, P_max)), data.draw(st.floats(-c_max, c_max))
    asg = CostaAssignment(inflation_k=data.draw(st.none() | st.floats(-c_max, c_max)),
                          split_delta=data.draw(st.floats(0.0, 1.0)), rcsi=False)
    _assert_matches_mpmath((ChannelParams(P=P, c=c), law, asg), tol)


def test_tabulated_estimate_is_the_declared_density_rate():
    # the triangle law on [-1.5, 1.5] with RCSI: the exact rate of its
    # density on 30,001 nodes as atoms is 1.12864 bits (the segment-uniform
    # law read 0.985)
    law = parse_distribution(
        '{"kind":"tabulated","grid":[[-1.5,0],[0,0.6666666666666666],[1.5,0]]}')
    nodes = np.linspace(-1.5, 1.5, 30001)[1:-1]
    w = 1.5 - np.abs(nodes)
    atoms = Discrete(tuple(zip(nodes.tolist(), (w / w.sum()).tolist())))
    params, asg = ChannelParams(P=10, c=2), CostaAssignment(a_target=0.5)
    est, se = mi_monte_carlo(params, law, asg, 2 * 10 ** 5, 0)
    assert abs(est - costa_rate_exact(params, atoms, asg)) < 5 * se


class TestMonteCarlo:
    def test_awgn_limit(self):
        est, se = mi_monte_carlo(ChannelParams(P=3, c=0), TWO_POINT,
                                 CostaAssignment(a_target=0.0), 50000, 3)
        assert abs(est - 1.0) < 3 * se

    def test_rcsi_matches_exact(self):
        params = ChannelParams(P=15, c=8)
        asg = CostaAssignment(a_target=-1.0)
        est, se = mi_monte_carlo(params, TWO_POINT, asg, 10 ** 5, 7)
        assert abs(est - costa_rate_exact(params, TWO_POINT, asg)) < 3 * se

    def test_no_rcsi_exceeds_gaussian_lower_bound(self):
        params, law = ChannelParams(P=3, c=1), Gaussian(1.0, 1.0)
        asg = CostaAssignment(rcsi=False)
        est, se = mi_monte_carlo(params, law, asg, 10 ** 5, 11)
        assert est >= costa_rate_exact(params, law, asg) - 3 * se

    def test_deterministic_given_seed(self):
        params = ChannelParams(P=15, c=8)
        asg = CostaAssignment(a_target=-1.0)
        assert mi_monte_carlo(params, TWO_POINT, asg, 20000, 5) == \
            mi_monte_carlo(params, TWO_POINT, asg, 20000, 5)

    def test_stderr_sqrt_n_scaling(self):
        params = ChannelParams(P=15, c=8)
        asg = CostaAssignment(a_target=-1.0)
        _, se1 = mi_monte_carlo(params, TWO_POINT, asg, 25000, 13)
        _, se4 = mi_monte_carlo(params, TWO_POINT, asg, 100000, 13)
        assert se4 <= 0.6 * se1

    def test_rejects_small_n(self):
        with pytest.raises(InsufficientSamples):
            mi_monte_carlo(ChannelParams(P=1, c=1), TWO_POINT,
                           CostaAssignment(a_target=1.0), 9999, 0)

    def test_rejects_zero_costa_power(self):
        with pytest.raises(SingularCovariance):
            mi_monte_carlo(ChannelParams(P=1, c=1), TWO_POINT,
                           CostaAssignment(a_target=1.0, split_delta=0.0), 10 ** 4, 0)

    def test_unit_lognormal_mixture_beats_the_gaussian_bound(self):
        # its support spans +-14 log-sigma, e^7 either side of its bulk: a
        # uniform 401-node grid over it carried 0.106 of the mass and raised
        # QuadratureFailure; the mapped grid finds the bulk
        params, law = ChannelParams(P=3, c=2), normalize_unit_variance(LogNormal(0.0, 0.25))
        asg = CostaAssignment(rcsi=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, se = mi_monte_carlo(params, law, asg, 10 ** 4, 0)
        assert est >= costa_rate_exact(params, law, asg) - 5 * se

    def test_norcsi_overflow_is_bounded_by_the_support(self, monkeypatch):
        # the scale-1e150 log-normal's support reaches 1.2e156: c^2 a^2
        # overflows, which is found before a grid is built or a value drawn
        law = LogNormal(0.0, 1.0, 0.0, 1e150)
        monkeypatch.setattr(gauss_mi, "_mixture_atoms", lambda *_: pytest.fail("grid built"))
        monkeypatch.setattr(LogNormal, "_draw", lambda *_: pytest.fail("sampled"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="overflows"):
                mi_monte_carlo(ChannelParams(P=3, c=2), law, CostaAssignment(rcsi=False),
                               10 ** 4, 0)

    @pytest.mark.parametrize("law", [parse_distribution(UNIT_LOGNORMAL),
                                     Gaussian(0.0, 1.0)], ids=["lognormal", "gaussian"])
    def test_rcsi_on_a_density_builds_no_grid(self, monkeypatch, law):
        # scoring with side information reads only the drawn fading: with
        # a_target = 0 (so k = 0) its rate is inner_continuous at a' = 0
        monkeypatch.setattr(gauss_mi, "_mixture_atoms", lambda *_: pytest.fail("grid built"))
        params = ChannelParams(P=3, c=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, se = mi_monte_carlo(params, law, CostaAssignment(a_target=0.0),
                                     2 * 10 ** 5, 0)
        assert abs(est - inner_continuous(params, law, 0.0).bits) < 5 * se

    def test_rcsi_overflow_is_bounded_by_the_support(self, monkeypatch):
        # the scale-1e150 log-normal's support reaches 1.2e156: c^2 a^2 overflows
        law = LogNormal(0.0, 1.0, 0.0, 1e150)
        monkeypatch.setattr(gauss_mi, "_mixture_atoms", lambda *_: pytest.fail("grid built"))
        monkeypatch.setattr(LogNormal, "_draw", lambda *_: pytest.fail("sampled"))
        with pytest.raises(NonFinite, match="overflows"):
            mi_monte_carlo(ChannelParams(P=3, c=2), law, CostaAssignment(), 10 ** 4, 0)

    def test_default_k_on_a_mean_zero_law_is_zero(self):
        # geometric_fading(0.55) has a mean of -9.6e-13, zero by the rule of
        # k_star, so its mixture takes the shared deviation y - coef u
        params, law = ChannelParams(P=3, c=2), geometric_fading(0.55)
        got = mi_monte_carlo(params, law, CostaAssignment(rcsi=False), 10 ** 4, 0)
        assert got == mi_monte_carlo(params, law, CostaAssignment(inflation_k=0.0, rcsi=False),
                                     10 ** 4, 0)

    @pytest.mark.parametrize("rcsi", [True, False], ids=["rcsi", "norcsi"])
    def test_overflowing_atoms_fail_before_sampling(self, monkeypatch, rcsi):
        # c^2 a^2 overflows at atoms of +-1e170: the moments would warn
        law = Discrete(((-1e170, 0.5), (1e170, 0.5)))
        for draw in ("_draw", "_draw_index"):
            monkeypatch.setattr(Discrete, draw, lambda *_: pytest.fail("sampled"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="overflows"):
                mi_monte_carlo(ChannelParams(P=3, c=2), law, CostaAssignment(rcsi=rcsi),
                               10 ** 4, 0)

    @pytest.mark.parametrize("params, asg", [
        (ChannelParams(P=3, c=2), CostaAssignment(inflation_k=1e200)),
        (ChannelParams(P=1e308, c=2), CostaAssignment()),
        (ChannelParams(P=3, c=1e154), CostaAssignment()),
        (ChannelParams(P=3, c=2), CostaAssignment(a_target=1e200)),
    ], ids=["k", "P", "c", "a-target"])
    def test_overflowing_moments_fail_before_sampling(self, monkeypatch, params, asg):
        # var(U) = P1 + k^2, the variance of Y or the (U, Y) covariance would
        # overflow once squared normal draws meet them
        for draw in ("_draw", "_draw_index"):
            monkeypatch.setattr(Discrete, draw, lambda *_: pytest.fail("sampled"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="overflows"):
                mi_monte_carlo(params, TWO_POINT, asg, 10 ** 4, 0)


# (estimate, stderr) at split 1, P=3, c=2, n=1e5, seed 0 on each scoring path,
# recorded before each receiver's scorer was built in one branch, the
# gaussian mixture's again on the mapped grid, and the discrete mixtures'
# again once rows were summed without their max shifted out (one ulp); three
# rows again once var(Y - X2 | U) was formed without a subtraction (at most
# 3e-16 relative); rcsi-two-point again once the deviation from the posterior
# mean given U was formed from its parts at k != 0 (one ulp)
_SPLIT_ONE_PINS = [
    pytest.param(TWO_POINT, CostaAssignment(a_target=1.0),
                 (0.2965010055328175, 0.004181150836468581), id="rcsi-two-point"),
    pytest.param(parse_distribution(UNIT_LOGNORMAL), CostaAssignment(a_target=1.0),
                 (0.7295151771053698, 0.003016446106142414), id="rcsi-lognormal"),
    pytest.param(Gaussian(0.0, 1.0), CostaAssignment(rcsi=False),
                 (0.4184897753186821, 0.0031917877839056493), id="norcsi-gaussian"),
    pytest.param(geometric_fading(0.55), CostaAssignment(rcsi=False),
                 (0.47425585337624926, 0.0033359144067347983), id="norcsi-geometric"),
    pytest.param(Discrete(((-1.0, 0.3), (1.0, 0.7))), CostaAssignment(rcsi=False),
                 (0.3776518953553998, 0.0030371947234862384), id="norcsi-per-atom"),
    # `mi` on the log-normal law at its default a' = 0: only the drawn fading
    # values are read
    pytest.param(parse_distribution(UNIT_LOGNORMAL), CostaAssignment(),
                 (0.1962446790257961, 0.002221144891952048), id="rcsi-lognormal-default"),
]


@pytest.mark.parametrize("law, asg, want", _SPLIT_ONE_PINS)
def test_split_one_estimates_are_pinned(law, asg, want):
    assert mi_monte_carlo(ChannelParams(P=3, c=2), law, asg, 10 ** 5, 0) == want


_STRONG4 = strong_support(4, 2.0)
# 286 atoms, more than fading._COMPARE_ATOMS: its atom indices come from a
# binary search of the cdf, not from one comparison pass per atom
_WIDE = geometric_fading(0.1)

# (estimate, stderr) at P=3, c=2, n=1e4+7, seed 4, recorded before a discrete
# law drew atom indices and scored from per-atom columns, and before the
# U-term was skipped at k = 0; norcsi-wide again once mixture rows were summed
# without their max shifted out (one ulp); the rows at k != 0 again once
# var(Y - X2 | U) was formed without a subtraction (at most 1.1e-15 relative),
# and rcsi-strong4-atom-k and rcsi-wide again once the deviation from the
# posterior mean given U was formed from its parts (at most 4.6e-15 relative)
_INDEX_DRAW_PINS = [
    pytest.param(TWO_POINT, CostaAssignment(split_delta=0.5),
                 (0.32832717560357866, 0.008854728082935942), id="rcsi-two-point-k0-split0.5"),
    pytest.param(_STRONG4, CostaAssignment(a_target=float(_STRONG4.values[0])),
                 (0.1667301584621066, 0.013587752278777402), id="rcsi-strong4-atom"),
    pytest.param(_STRONG4, CostaAssignment(a_target=float(_STRONG4.values[0]), inflation_k=0.75),
                 (0.33601967291054, 0.01086098627216242), id="rcsi-strong4-atom-k"),
    pytest.param(_WIDE, CostaAssignment(a_target=1.0),
                 (0.004118544659172165, 0.012747531191949444), id="rcsi-wide"),
    pytest.param(_WIDE, CostaAssignment(rcsi=False),
                 (0.46934164820210295, 0.010450899298616275), id="norcsi-wide"),
]


@pytest.mark.parametrize("law, asg, want", _INDEX_DRAW_PINS)
def test_index_draw_estimates_are_pinned(law, asg, want):
    assert len(_WIDE.values) > fading._COMPARE_ATOMS
    assert mi_monte_carlo(ChannelParams(P=3, c=2), law, asg, 10 ** 4 + 7, 4) == want


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("law, a_target", [(TWO_POINT, 1.0), (_STRONG4, float(_STRONG4.values[0]))],
                         ids=["two-point", "strong4"])
def test_two_stage_rate_with_rcsi_matches_exact(law, a_target, delta):
    # X2 decoded first, then U from y - x2: with the fading known, both
    # stages are exact per realization
    params, asg = ChannelParams(P=10, c=2), CostaAssignment(a_target=a_target, split_delta=delta)
    est, se = mi_monte_carlo(params, law, asg, 2 * 10 ** 5, 1)
    assert abs(est - costa_rate_exact(params, law, asg)) < 5 * se


@pytest.mark.parametrize("c", [1e8, 1e9, 1e16, 1e20, 1e100])
def test_rate_with_rcsi_at_large_gain_matches_exact(c):
    # var(Y - X2 | U) formed as a difference of squares read 29 sd low at
    # c = 1e8 and overflowed at c = 1e9; y1 - coef u, both terms about c a s,
    # read 45 sd low at c = 1e16 and -3e7 bits at c = 1e20
    params, asg = ChannelParams(P=10, c=c), CostaAssignment(a_target=1.0)
    est, se = mi_monte_carlo(params, TWO_POINT, asg, 10 ** 5, 0)
    assert abs(est - costa_rate_exact(params, TWO_POINT, asg)) < 5 * se


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("law", [Gaussian(0.0, 1.0), geometric_fading(0.55), TWO_POINT],
                         ids=["gaussian", "geometric", "two-point"])
def test_two_stage_rate_without_rcsi_is_above_gaussian_bound(law, delta):
    # each stage's Gaussian max-entropy rate is a lower bound on its mixture rate
    params, asg = ChannelParams(P=10, c=2), CostaAssignment(split_delta=delta, rcsi=False)
    est, se = mi_monte_carlo(params, law, asg, 10 ** 5, 1)
    assert est >= costa_rate_exact(params, law, asg) - 3 * se


# every kind of law the estimator draws: discrete atoms (exact mixtures) and
# densities on the mapped grid; RCSI runs on the discrete laws and gaussian
_REFERENCE_LAWS = {
    "two-point": TWO_POINT,
    "strong4": strong_support(4, 2.0),
    "geometric": geometric_fading(0.55),
    "gaussian": Gaussian(0.0, 1.0),
    "rayleigh": parse_distribution("rayleigh"),
    "uniform": parse_distribution("uniform"),
    "tabulated0": parse_distribution(TABULATED_0),
}
_REFERENCE_CASES = [
    pytest.param(name, rcsi, delta, id=f"{name}-{'rcsi' if rcsi else 'norcsi'}-split{delta}")
    for name in _REFERENCE_LAWS
    for rcsi in (True, False)
    if not rcsi or name in ("two-point", "strong4", "geometric", "gaussian")
    for delta in (1.0, 0.5)
]


@pytest.mark.parametrize("name, rcsi, delta", _REFERENCE_CASES)
def test_matches_reference_scoring(name, rcsi, delta):
    # n = 1e4 + 7 leaves the streams unequal and each one's last chunk short
    law = _REFERENCE_LAWS[name]
    asg = CostaAssignment(a_target=1.0 if rcsi else 0.0, split_delta=delta, rcsi=rcsi)
    args = (ChannelParams(P=3, c=2), law, asg, 10 ** 4 + 7, 4)
    est, se = mi_monte_carlo(*args)
    want_est, want_se = reference_mi(*args)
    assert est == pytest.approx(want_est, rel=0, abs=1e-12)
    assert se == pytest.approx(want_se, rel=1e-12, abs=0)


# (estimate, stderr) at P=3, c=2, half the power on the Costa codeword, no
# RCSI, n=1e4, seed 0, at the inflation k* of a fading mean of 0.5, recorded
# from reference_mi (scipy's logsumexp), the densities again on the mapped
# grid: each is within 1e-7 of the same rule on 16 times the nodes
RECORDED = {
    "gaussian": (0.39065339186488157, 0.010708974462357782),
    "rayleigh": (0.3749806843065979, 0.010464581026066639),
    "uniform": (0.34951608847928034, 0.010212394879401114),
    "geometric": (0.4032453728347848, 0.010760690194868182),
    "tabulated0": (0.3275520658688595, 0.009920807395455936),
}


def _law(name):
    if name == "geometric":
        return geometric_fading(0.55)
    return parse_distribution(TABULATED_0 if name == "tabulated0" else name)


def _mixture_inputs(n):
    """Mixture parameters of the Gaussian law at P=3, c=2 on 401 even nodes
    over +-12 and n fixed sample points, some of them so far out (|y| ~ 1e3)
    that every term underflows unless the row max is shifted out."""
    P, c, k = 3.0, 2.0, 1.0
    av = np.linspace(-12.0, 12.0, 401)
    aw = Gaussian(0.0, 1.0).pdf(av)
    aw /= aw.sum()
    var_u = P + k * k
    coef = (P + c * av * k) / var_u
    var = P + c * c * av * av - (P + c * av * k) ** 2 / var_u + 1.0
    rng = np.random.default_rng(1)
    y = rng.normal(0.0, 5.0, n)
    y[::50] = rng.choice([-1.0, 1.0], len(y[::50])) * rng.uniform(900.0, 1100.0, len(y[::50]))
    u = rng.normal(0.0, 2.0, n)
    return y, coef, u, var, np.log(aw)


class TestMixtureKernel:
    def test_matches_logsumexp(self):
        from scipy.special import logsumexp

        y, coef, u, var, log_w = _mixture_inputs(600)
        far = np.abs(y) > 800.0
        scale, offset = -0.5 / var, log_w - 0.5 * np.log(2.0 * math.pi * var)
        buf = np.empty((len(y) + 5, len(var)))  # a last chunk fills only part of it
        for kwargs, mean in [({"u": u, "mean_coef": coef}, coef * u[:, None]),
                             ({"u": u, "mean_coef": 0.0}, 0.0)]:
            terms = log_w + _log_normal_pdf(y[:, None], mean, var)
            with np.errstate(divide="ignore"):
                assert np.isneginf(np.log(np.exp(terms).sum(axis=1))[far]).all()
            got = gauss_mi._log_mixture(buf, y, scale, offset, **kwargs)
            np.testing.assert_allclose(got, logsumexp(terms, axis=1), rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 300), st.integers(1, 30), st.integers(0, 5),
           st.one_of(st.none(), st.floats(-10.0, 10.0)))
    def test_drawn_mixtures_match_logsumexp(self, seed, atoms, near, far, shared):
        # weights down to 1e-300, variances 1 to 1e12, a mean coefficient
        # per atom (shared=None) or one they share; the near samples sit in
        # a drawn component, the far ones so far out that every term underflows
        from scipy.special import logsumexp

        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-300.0, 0.0, atoms)
        w /= w.sum()
        var = 10.0 ** rng.uniform(0.0, 12.0, atoms)
        coef = rng.uniform(-10.0, 10.0, atoms) if shared is None else shared
        u = rng.uniform(-5.0, 5.0, near + far)
        at = rng.integers(0, atoms, near)
        y = np.concatenate((np.broadcast_to(coef, atoms)[at] * u[:near]
                            + np.sqrt(var[at]) * rng.standard_normal(near),
                            rng.choice([-1.0, 1.0], far)
                            * (100.0 + rng.uniform(40.0, 100.0, far) * math.sqrt(var.max()))))
        terms = np.log(w) + _log_normal_pdf(y[:, None], u[:, None] * coef, var)
        assert (terms[near:].max(axis=1) < -746.0).all()

        scale, offset = -0.5 / var, np.log(w) - 0.5 * np.log(2.0 * math.pi * var)
        buf = np.empty((len(y) + 3, atoms))
        with mock.patch.object(gauss_mi, "_exponents", wraps=gauss_mi._exponents) as spy:
            got = gauss_mi._log_mixture(buf, y, scale, offset, u, coef)
        np.testing.assert_allclose(got, logsumexp(terms, axis=1), rtol=1e-12, atol=1e-12)
        # the rows rescored with their max shifted out: every far row, and
        # only rows whose largest term is below the floor
        calls = spy.call_args_list
        rescored = np.isin(y, calls[1].args[1]) if len(calls) == 2 else np.zeros(len(y), bool)
        assert len(calls) <= 2 and rescored[near:].all()
        assert (terms.max(axis=1)[rescored] < math.log(gauss_mi._UNDERFLOW_FLOOR)).all()
        alone = [gauss_mi._log_mixture(buf, y[i:i + 1], scale, offset, u[i:i + 1], coef)[0]
                 for i in range(len(y))]
        np.testing.assert_array_equal(alone, got)

    def test_shared_coefficient_paths_are_bit_equal(self):
        # a coefficient every atom shares, given once (one deviation per
        # sample) and once per atom (one deviation per sample and atom)
        y, coef, u, var, log_w = _mixture_inputs(600)
        scale, offset = -0.5 / var, log_w - 0.5 * np.log(2.0 * math.pi * var)
        buf = np.empty((len(y), len(var)))
        cases = [({"u": u, "mean_coef": m}, {"u": u, "mean_coef": np.full(len(var), m)})
                 for m in (0.75, float(coef.mean()), 0.0)]
        for shared, per_atom in cases:
            want = gauss_mi._log_mixture(buf, y, scale, offset, **per_atom)
            np.testing.assert_array_equal(gauss_mi._log_mixture(buf, y, scale, offset, **shared),
                                          want)

    def test_scores_in_the_given_buffer(self):
        # a (samples x atoms) block of its own would be 1.8 MiB here
        y, coef, u, var, log_w = _mixture_inputs(600)
        scale, offset = -0.5 / var, log_w - 0.5 * np.log(2.0 * math.pi * var)
        buf = np.empty((len(y), len(var)))
        tracemalloc.start()
        try:
            for kwargs in ({"u": u, "mean_coef": coef}, {"u": u, "mean_coef": 0.75},
                           {"u": u, "mean_coef": 0.0}):
                gauss_mi._log_mixture(buf, y, scale, offset, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buf.nbytes / 8, peak / 2 ** 20

    def test_chunk_size_does_not_change_estimate(self, monkeypatch):
        # chunks of 1 and 7 samples, and one chunk per stream, both of the
        # scoring and of the z draws; the RCSI ratio budgets 16 doubles per
        # sample, a mixture one per atom and _MIXTURE_ROW_DOUBLES more
        params = ChannelParams(P=3, c=2)
        # at split 0.5 and k = 0 the variances are 1 + c^2 a^2 and P + 1 + c^2 a^2
        grid = gauss_mi._mixture_atoms(Gaussian(0.0, 1.0), 2.0,
                                       lambda a: (1.0 + 4.0 * a * a, 4.0 + 4.0 * a * a))
        row = gauss_mi._MIXTURE_ROW_DOUBLES
        cases = [(TWO_POINT, CostaAssignment(a_target=1.0, split_delta=0.5), 16),
                 (Gaussian(0.0, 1.0), CostaAssignment(split_delta=0.5, rcsi=False),
                  len(grid[0]) + row),
                 (_WIDE, CostaAssignment(a_target=1.0, split_delta=0.5), 16),
                 (_WIDE, CostaAssignment(split_delta=0.5, rcsi=False), len(_WIDE.values) + row)]
        for law, asg, width in cases:
            want = mi_monte_carlo(params, law, asg, 10 ** 4, 2)
            for rows in (1, 7, 10 ** 4 // 16 + 1):
                monkeypatch.setattr(gauss_mi, "_CHUNK_DOUBLES", rows * width)
                assert mi_monte_carlo(params, law, asg, 10 ** 4, 2) == want
            monkeypatch.undo()

    def test_memory_bounded_in_n(self):
        # the whole-stream draws of one stream (s, x1, x2 at split < 1 and the
        # fading draw: per sample / 16, 2 doubles and an index or 3 doubles)
        # plus one chunk of scoring and z, measured with numpy 2.4.  Two-point
        # and gaussian: 8.8 and 10.7 MiB when each stream scored whole, 4.07
        # and 4.43 MiB with whole-stream z and ratio buffers, 3.52 and 4.43 MiB
        # once a discrete law drew atom indices, and 1.47 and 2.90 MiB with z
        # drawn a chunk at a time.  Split 0.5, the log-normal law and the
        # 286-atom law (intp indices) went 3.34, 3.34 and 3.23 MiB -> 1.98,
        # 2.01 and 1.90 MiB.  Without RCSI, once a chunk counted each
        # sample's own doubles with its atoms (and the gaussian law took about
        # 96 mapped nodes for 401 even ones), the two-point law went 3.51 ->
        # 1.39 MiB and the gaussian 2.90 -> 2.85 MiB
        lognormal = parse_distribution(UNIT_LOGNORMAL)
        cases = [(TWO_POINT, CostaAssignment(), 10 ** 6, 1.57),
                 (Gaussian(0.0, 1.0), CostaAssignment(rcsi=False), 16 * 10 ** 5, 3.0),
                 (TWO_POINT, CostaAssignment(split_delta=0.5), 10 ** 6, 2.12),
                 (lognormal, CostaAssignment(), 10 ** 6, 2.15),
                 (_WIDE, CostaAssignment(a_target=1.0), 10 ** 6, 2.03),
                 (TWO_POINT, CostaAssignment(rcsi=False), 10 ** 6, 1.47)]
        for law, asg, n, mib in cases:
            tracemalloc.start()
            try:
                mi_monte_carlo(ChannelParams(P=3, c=2), law, asg, n, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= mib * 2 ** 20, (law, peak / 2 ** 20)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_z_drawn_in_chunks_equals_one_draw(self, chunk):
        # the kernel draws a stream's z a chunk at a time, into a chunk-sized
        # buffer, after the stream's other draws
        nj = 10 ** 4 + 7
        for seed, j in [(0, 0), (4, 15)]:
            whole, chunked = seeded_rng(seed, j), seeded_rng(seed, j)
            for rng in (whole, chunked):
                rng.random(3)
                rng.standard_normal(5)
            want = whole.standard_normal(nj)
            buf, got = np.empty(chunk), np.empty(nj)
            for lo in range(0, nj, chunk):
                got[lo:lo + chunk] = chunked.standard_normal(out=buf[:min(chunk, nj - lo)])
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_reproduces_recorded_estimates(self, name):
        k = k_star(ChannelParams(P=1.5, c=2), 0.5)  # P1 = 1.5 on the Costa codeword
        got = mi_monte_carlo(ChannelParams(P=3, c=2), _law(name),
                             CostaAssignment(inflation_k=k, split_delta=0.5, rcsi=False),
                             10 ** 4, 0)
        assert got == pytest.approx(RECORDED[name], rel=0, abs=1e-12)
