import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fadingdirt import gauss_mi
from fadingdirt.bounds_norcsi import ChannelParams, inner_no_rcsi_with_k, k_star
from fadingdirt.errors import (
    DiscreteUnsupported,
    InsufficientSamples,
    NonFinite,
    QuadratureFailure,
    SingularCovariance,
)
from fadingdirt.fading import (
    Discrete,
    Gaussian,
    LogNormal,
    geometric_fading,
    normalize_unit_variance,
    parse_distribution,
)
from fadingdirt.gauss_mi import (
    CostaAssignment,
    costa_inflation,
    costa_rate_exact,
    mi_monte_carlo,
)

TWO_POINT = Discrete(((-1.0, 0.5), (1.0, 0.5)))


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

    def test_split_zero_is_treat_as_noise(self):
        params = ChannelParams(P=15, c=2)
        got = costa_rate_exact(params, TWO_POINT,
                               CostaAssignment(a_target=-1.0, split_delta=0.0))
        assert got == pytest.approx(0.5 * math.log2(1 + 15 / (1 + 4)), abs=1e-9)

    def test_gme_route_matches_closed_form(self):
        params = ChannelParams(P=3, c=1, mu_A=1.0)
        ks = k_star(params)
        got = costa_rate_exact(params, Gaussian(1.0, 1.0),
                               CostaAssignment(inflation_k=ks, rcsi=False))
        assert got == pytest.approx(inner_no_rcsi_with_k(params, ks).bits, abs=1e-12)

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
        params = ChannelParams(P=3, c=1, mu_A=1.0)
        ks = k_star(params)
        asg = CostaAssignment(inflation_k=ks, rcsi=False)
        est, se = mi_monte_carlo(params, Gaussian(1.0, 1.0), asg, 10 ** 5, 11)
        assert est >= inner_no_rcsi_with_k(params, ks).bits - 3 * se

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

    @pytest.mark.parametrize("law", [normalize_unit_variance(LogNormal(0.0, 0.25)),
                                     LogNormal(0.0, 800.0)], ids=["unit", "sigma2-800"])
    def test_grid_that_misses_the_mass_fails_before_sampling(self, law):
        # 401 nodes spread over +-14 log-sigma carry 0.106 of the unit law's
        # mass (its estimate fell 150 stderr below the Gaussian lower bound);
        # at sigma2 = 800 the atoms near 1e170 overflowed the moments
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure, match="mass"):
                mi_monte_carlo(ChannelParams(P=3, c=2), law, CostaAssignment(rcsi=False),
                               10 ** 4, 0)

    @pytest.mark.parametrize("rcsi", [True, False], ids=["rcsi", "norcsi"])
    def test_overflowing_atoms_fail_before_sampling(self, monkeypatch, rcsi):
        # c^2 a^2 overflows at atoms of +-1e170: the moments would warn
        law = Discrete(((-1e170, 0.5), (1e170, 0.5)))
        monkeypatch.setattr(Discrete, "_draw", lambda *_: pytest.fail("sampled"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="overflows"):
                mi_monte_carlo(ChannelParams(P=3, c=2), law, CostaAssignment(rcsi=rcsi),
                               10 ** 4, 0)


# the seed-0 tabulated law of the benchmark: a two-hump density on 15 nodes
TABULATED_0 = json.dumps({"kind": "tabulated", "grid": [
    [-2.1055434690983366, 0.009209573742099623], [-1.8093578404641613, 0.038369915353129405],
    [-1.513172211829986, 0.16516843471921422], [-1.2169865831958104, 0.41605593572561383],
    [-0.9208009545616351, 0.5208097591623791], [-0.6246153259274596, 0.3496158959171474],
    [-0.3284296972932845, 0.11371733897452929], [-0.03224406865910903, 0.04255573500342634],
    [0.2639415599750662, 0.1241469664377311], [0.5601271886092419, 0.37692835969320015],
    [0.8563128172434171, 0.5605930410708775], [1.1524984458775922, 0.43313508484603896],
    [1.4486840745117675, 0.18471656464147257], [1.744869703145943, 0.0413566225530956],
    [2.041055331780118, 0.008973207748853072]]})

# (estimate, stderr) at P=3, c=2, mu_A=0.5, half the power on the Costa
# codeword, no RCSI, n=1e4, seed 0, recorded with scipy's logsumexp
RECORDED = {
    "gaussian": (0.13186002676665584, 0.007469686309860457),
    "rayleigh": (0.13668935568632606, 0.007282967380406324),
    "uniform": (0.13228461778644174, 0.0071799914187911295),
    "geometric": (0.14421521334240364, 0.00754520037398053),
    "tabulated0": (0.12735917626818347, 0.00712387233595945),
}


def _law(name):
    if name == "geometric":
        return geometric_fading(0.55)
    return parse_distribution(TABULATED_0 if name == "tabulated0" else name)


def _mixture_inputs(n):
    """Mixture parameters of the Gaussian law at P=3, c=2 and n fixed
    sample points, some of them so far out (|y| ~ 1e3) that every term
    underflows unless the row max is shifted out."""
    P, c, k = 3.0, 2.0, 1.0
    av, aw = gauss_mi._mixture_atoms(Gaussian(0.0, 1.0))
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

        y, coef, u, var, log_w = _mixture_inputs(600)  # two full chunks and a part
        far = np.abs(y) > 800.0
        for mean_coef in (coef, 0.0):
            terms = log_w + gauss_mi._log_normal_pdf(y[:, None], mean_coef * u[:, None], var)
            with np.errstate(divide="ignore"):
                assert np.isneginf(np.log(np.exp(terms).sum(axis=1))[far]).all()
            got = gauss_mi._log_mixture(y, mean_coef, u, var, log_w)
            np.testing.assert_allclose(got, logsumexp(terms, axis=1), rtol=1e-12, atol=1e-12)

    def test_chunk_size_does_not_change_estimate(self, monkeypatch):
        params = ChannelParams(P=3, c=2, mu_A=0.5)
        asg = CostaAssignment(split_delta=0.5, rcsi=False)
        want = mi_monte_carlo(params, Gaussian(0.0, 1.0), asg, 10 ** 4, 2)
        for chunk in (1, 7):
            monkeypatch.setattr(gauss_mi, "_CHUNK", chunk)
            assert mi_monte_carlo(params, Gaussian(0.0, 1.0), asg, 10 ** 4, 2) == want

    def test_memory_bounded_in_n(self):
        tracemalloc.start()
        try:
            mi_monte_carlo(ChannelParams(P=3, c=2), Gaussian(0.0, 1.0),
                           CostaAssignment(rcsi=False), 2 * 10 ** 5, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_reproduces_recorded_estimates(self, name):
        got = mi_monte_carlo(ChannelParams(P=3, c=2, mu_A=0.5), _law(name),
                             CostaAssignment(split_delta=0.5, rcsi=False), 10 ** 4, 0)
        assert got == pytest.approx(RECORDED[name], rel=0, abs=1e-12)
