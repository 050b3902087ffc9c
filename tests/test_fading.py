import importlib.machinery
import json
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdirt import fading
from fadingdirt.cli import main
from fadingdirt.errors import (
    DiscreteUnsupported,
    InvalidC,
    InvalidM,
    InvalidN,
    InvalidP,
    NonFinite,
    NotUnitVariance,
    QuadratureFailure,
    QuadratureWarning,
    SpecInvalid,
    ZeroVariance,
)
from fadingdirt.fading import (
    TWO_PI_E,
    Discrete,
    Gaussian,
    LogNormal,
    Rayleigh,
    TabulatedDensity,
    Uniform,
    _quadpack,
    binomial_fading,
    entropy_power_alpha,
    geometric_fading,
    integrate,
    normalize_unit_variance,
    parse_distribution,
    sample,
    seeded_rng,
    strong_support,
    unit_rayleigh,
)

from laws import (
    TABULATED_0,
    TABULATED_9,
    TWO_POINT,
    UNIT_LOGNORMAL,
    entropy_bits_quadrature,
    tabulated_laws,
)


class TestEntropy:
    def test_gaussian_closed_form(self):
        assert Gaussian(0.0, 1.0).entropy_bits() == pytest.approx(
            0.5 * math.log2(TWO_PI_E), abs=1e-12)

    def test_fair_coin(self):
        assert TWO_POINT.entropy_bits() == 1.0

    def test_uniform_closed_form(self):
        u = Uniform(-math.sqrt(3), math.sqrt(3))
        assert u.entropy_bits() == pytest.approx(0.5 * math.log2(12.0), abs=1e-12)

    @pytest.mark.parametrize("dist", [
        Gaussian(0.3, 2.0),
        Uniform(-1.0, 3.0),
        unit_rayleigh(),
        LogNormal(0.1, 0.5),
    ])
    def test_quadrature_matches_closed_forms(self, dist):
        assert entropy_bits_quadrature(dist) == pytest.approx(
            dist.entropy_bits(), abs=1e-6)

    def test_rayleigh_closed_form_expression(self):
        r = unit_rayleigh()
        h_nats = 1 + math.log(r.sigma / math.sqrt(2)) + np.euler_gamma / 2
        assert r.entropy_bits() == pytest.approx(h_nats / math.log(2), abs=1e-12)

    @pytest.mark.parametrize("sigma2", [1.0, 2.0])
    def test_quadrature_that_misses_the_mass_fails(self, sigma2):
        # the density sits on a sliver of its support near 0, so quad sees
        # almost none of it (h = 2.047 bits at sigma2 = 1) with a tiny error
        with pytest.raises(QuadratureFailure, match="mass"):
            entropy_bits_quadrature(LogNormal(0.0, sigma2))

    def test_quadrature_rejects_discrete(self):
        with pytest.raises(DiscreteUnsupported):
            entropy_bits_quadrature(TWO_POINT)


def two_hump_law(seed, nodes=15):
    """Seeded piecewise-linear two-hump density, zero mean, unit variance;
    its kinks fall off quad's bisection points."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(-1.0, 1.0, nodes)
    ds = (np.exp(-(xs - 0.45) ** 2 / 0.06)
          + rng.uniform(0.6, 1.0) * np.exp(-(xs + 0.45) ** 2 / 0.06) + 0.01)
    ds *= rng.uniform(0.95, 1.05, nodes)
    ds /= np.trapezoid(ds, xs)
    return normalize_unit_variance(TabulatedDensity(tuple(zip(xs.tolist(), ds.tolist()))))


def mp_entropy_bits(law):
    """-integral of p log2 p of the declared piecewise-linear density at 50
    digits, from its float nodes: a segment of width h and end densities
    d0 != d1 holds -h (F(d1) - F(d0)) / (d1 - d0) nats, F(p) = p^2 ln p / 2
    - p^2 / 4 the antiderivative of p ln p."""
    def antiderivative(p):
        return p * p / 2 * mpmath.log(p) - p * p / 4 if p > 0 else mpmath.mpf(0)

    with mpmath.workdps(50):
        h = mpmath.mpf(0)
        for (x0, d0), (x1, d1) in zip(law.grid[:-1], law.grid[1:]):
            x0, d0, x1, d1 = (mpmath.mpf(v) for v in (x0, d0, x1, d1))
            if d0 == d1:
                h -= (x1 - x0) * (d0 * mpmath.log(d0) if d0 > 0 else 0)
            else:
                h -= (x1 - x0) / (d1 - d0) * (antiderivative(d1) - antiderivative(d0))
        return float(h / mpmath.log(2))


_D = 0.25
# unit mass on five nodes: one segment with equal ends, one with ends an ulp
# apart, one with ends 1e-9 apart (relative) and one down to a zero end
_NEAR_FLAT = TabulatedDensity(((0.0, _D), (1.0, _D), (2.0, math.nextafter(_D, 1.0)),
                               (3.0, _D * (1.0 + 1e-9)), (5.0, 0.0)))
_CLOSED_FORM_LAWS = {
    "golden9": parse_distribution(TABULATED_9),
    "tabulated0": parse_distribution(TABULATED_0),
    "triangle": TabulatedDensity(((-1.5, 0.0), (0.0, 2.0 / 3.0), (1.5, 0.0))),
    "near-flat": _NEAR_FLAT,
}


class TestTabulatedEntropy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quadrature_matches_piecewise_linear_closed_form(self, seed):
        law = two_hump_law(seed)
        assert entropy_bits_quadrature(law) == pytest.approx(law.entropy_bits(), abs=1e-10)

    @pytest.mark.parametrize("name", list(_CLOSED_FORM_LAWS))
    def test_closed_form_matches_mpmath(self, name):
        law = _CLOSED_FORM_LAWS[name]
        assert abs(law.entropy_bits() - mp_entropy_bits(law)) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(tabulated_laws())
    def test_closed_form_matches_quadrature(self, law):
        assert law.entropy_bits() == pytest.approx(entropy_bits_quadrature(law), abs=1e-9)

    def test_entropy_power_in_range(self):
        assert 0.0 < entropy_power_alpha(two_hump_law(0)) < 1.0

    def test_no_rcsi_bounds_command(self, capsys):
        literal = json.dumps(two_hump_law(0).to_json())
        code = main(["bounds", "--theorem", "no-rcsi", "--P", "30", "--c", "4",
                     "--dist", literal])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        payload = json.loads(captured.out)
        assert payload["inner"]["bits"] <= payload["outer"]["bits"]


# laws for the quad oracle: the five continuous families, the tabulated one
# on few enough nodes that QUADPACK converges without breakpoints
_ORACLE_LAWS = {
    "gaussian": "gaussian",
    "uniform": "uniform",
    "rayleigh": "rayleigh",
    "lognormal": UNIT_LOGNORMAL,
    "tabulated": '{"kind":"tabulated","grid":[[-1.5,0],[-0.5,0.625],[0.5,0.375],[1.5,0]]}',
}

# the mass, the entropy and a Costa-like loss
_ORACLE_INTEGRANDS = (
    lambda x, p: p,
    lambda x, p: -p * math.log2(p),
    lambda x, p: p * math.log2(10.0 * x * x / (x * x + 1.0) + 1.0),
)


def _quad(law, f, lo, hi, epsabs):
    """The integral of f(x, p(x)) through `scipy.integrate.quad`, the oracle."""
    import scipy.integrate

    def integrand(x):
        p = law.density(x)
        return f(x, p) if p > 0 else 0.0

    return scipy.integrate.quad(integrand, lo, hi, limit=400, epsabs=epsabs)


class TestIntegrate:
    def test_density_weighted_integral(self):
        value, err = integrate(Gaussian(0.0, 1.0), lambda x, p: p * x * x, -12.0, 12.0, 1e-12)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= err < 1e-10

    def test_f_not_called_off_the_density(self):
        seen = []
        value, _ = integrate(Uniform(0.0, 1.0), lambda x, p: seen.append(x) or p,
                             -1.0, 2.0, 1e-10)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert seen and all(0.0 <= x <= 1.0 for x in seen)

    def test_quad_looked_up_at_each_call(self, monkeypatch):
        # a profiler counts quadratures by replacing the loaded QUADPACK routines
        qagse, calls = _quadpack()._qagse, []
        monkeypatch.setattr(_quadpack(), "_qagse",
                            lambda *a: calls.append(a[1:3]) or qagse(*a))
        law = Uniform(-1.0, 1.0)
        for lo, hi in ((-1.0, 1.0), (0.0, 0.5)):
            integrate(law, lambda x, p: p, lo, hi, 1e-10)
        assert calls == [(-1.0, 1.0), (0.0, 0.5)]

    @pytest.mark.parametrize("name", list(_ORACLE_LAWS))
    def test_bit_identical_to_quad(self, name):
        law = parse_distribution(_ORACLE_LAWS[name])
        lo, hi = law.support()
        for f in _ORACLE_INTEGRANDS:
            for epsabs in (1e-7, 1e-8, 1e-10):
                assert integrate(law, f, lo, hi, epsabs) == _quad(law, f, lo, hi, epsabs)

    def test_roundoff_code_warns_with_quads_result(self):
        # the seeded tabulated law: with no breakpoints at its kinks QUADPACK
        # stops at code 2
        law = parse_distribution(TABULATED_0)
        with pytest.warns(QuadratureWarning, match=r"code 2 \(roundoff error detected\)"
                                                  r".*error estimate 1\.0\d*e-06, epsabs 1e-10"):
            got = integrate(law, lambda x, p: p, *law.support(), 1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quad's own IntegrationWarning
            assert got == _quad(law, lambda x, p: p, *law.support(), 1e-10)

    def test_invalid_input_raises(self, monkeypatch):
        # the fixed tolerances and limit are valid input, so the routine is
        # stubbed to reject them as QUADPACK would
        monkeypatch.setattr(_quadpack(), "_qagse", lambda *args: (0.0, 0.0, 6))
        with pytest.raises(QuadratureFailure, match="code 6"):
            integrate(Gaussian(0.0, 1.0), lambda x, p: p, -1.0, 1.0, 1e-8)

    def test_missing_extension_exits_3(self, capsys, monkeypatch):
        monkeypatch.delitem(sys.modules, _quadpack().__name__)
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(lambda cls, *args, **kwargs: None))
        code = main(["bounds", "--theorem", "continuous", "--P", "10", "--c", "3"])
        assert code == 3
        assert "QuadratureFailure: QUADPACK extension" in capsys.readouterr().err

    def test_unloadable_extension_is_typed(self, monkeypatch):
        def broken(self, module):
            raise ImportError("undefined symbol")

        monkeypatch.delitem(sys.modules, _quadpack().__name__)
        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", broken)
        with pytest.raises(QuadratureFailure, match="cannot load .*undefined symbol"):
            integrate(Gaussian(0.0, 1.0), lambda x, p: p, -1.0, 1.0, 1e-8)


class TestEntropyPower:
    def test_gaussian_alpha_one(self):
        assert entropy_power_alpha(Gaussian(0.7, 1.0)) == pytest.approx(
            1.0, abs=1e-12)

    def test_uniform_alpha(self):
        u = Uniform(-math.sqrt(3), math.sqrt(3))
        assert entropy_power_alpha(u) == pytest.approx(
            12.0 / TWO_PI_E, abs=1e-9)

    def test_rayleigh_alpha_in_range(self):
        a = entropy_power_alpha(normalize_unit_variance(unit_rayleigh()))
        assert 0.85 < a < 1.0 - 1e-9

    def test_only_gaussian_attains_one(self):
        for d in (Uniform(-math.sqrt(3), math.sqrt(3)),
                  normalize_unit_variance(unit_rayleigh()),
                  normalize_unit_variance(LogNormal(0.0, 0.5))):
            assert entropy_power_alpha(d) < 1.0 - 1e-9

    def test_rejects_discrete(self):
        with pytest.raises(DiscreteUnsupported):
            entropy_power_alpha(TWO_POINT)

    def test_rejects_non_unit_variance(self):
        with pytest.raises(NotUnitVariance):
            entropy_power_alpha(Gaussian(0.0, 2.0))


class TestNormalize:
    def test_two_point_identity(self):
        d = normalize_unit_variance(TWO_POINT)
        assert np.allclose(d.values, [-1.0, 1.0])
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_uniform_example(self):
        u = normalize_unit_variance(Uniform(0.0, 1.0))
        assert u.lo == pytest.approx(-math.sqrt(3), abs=1e-12)
        assert u.hi == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_gaussian_standardization(self):
        g = normalize_unit_variance(Gaussian(5.0, 4.0))
        assert g.mu == pytest.approx(0.0, abs=1e-12)
        assert g.variance == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVariance):
            normalize_unit_variance(Discrete(((2.0, 1.0),)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-500, 500), min_size=2, max_size=6, unique=True),
           st.integers(1, 10 ** 6))
    def test_idempotent_on_discrete(self, ivals, pseed):
        vals = [v / 10.0 for v in ivals]
        rng = np.random.default_rng(pseed)
        probs = rng.dirichlet(np.ones(len(vals)))
        pairs = sorted(zip(vals, probs.tolist()))
        d = Discrete(tuple(pairs))
        if d.var <= 1e-6:
            return
        once = normalize_unit_variance(d)
        twice = normalize_unit_variance(once)
        assert once.var == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(once.values - twice.values)) < 1e-9


class TestConstructions:
    def test_geometric_half_dominant_atom(self):
        d = geometric_fading(0.5)
        i = int(np.argmax(d.probs))
        assert d.probs[i] == pytest.approx(0.5, abs=1e-9)
        delta = 0.5 / math.sqrt(0.5)
        assert d.values[i] == pytest.approx(-delta * 0.5 / 0.5, abs=1e-9)

    def test_geometric_max_mass(self):
        assert geometric_fading(0.9).probs.max() == pytest.approx(0.9, abs=1e-9)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_geometric_moments(self, p):
        d = geometric_fading(p)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.mean == pytest.approx(0.0, abs=1e-9)
        assert d.var == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.4])
    def test_geometric_rejects_bad_p(self, p):
        with pytest.raises(InvalidP):
            geometric_fading(p)

    def test_binomial_probability_vector(self):
        d = binomial_fading(1, 0.5)
        assert np.allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-12)

    def test_binomial_n2_never_dominant(self):
        # for extreme p the edge lattice atom (1-p)^{2N} itself exceeds 1/2,
        # so the no-dominant-mass property only holds on the central range
        for p in np.linspace(0.2, 0.8, 13):
            assert binomial_fading(2, float(p)).probs.max() < 0.5

    def test_binomial_moments(self):
        d = binomial_fading(1, 0.5)
        assert d.mean == pytest.approx(0.0, abs=1e-9)
        assert d.var == pytest.approx(1.0, abs=1e-9)

    def test_binomial_rejects_bad_args(self):
        with pytest.raises(InvalidN):
            binomial_fading(0, 0.5)
        with pytest.raises(InvalidP):
            binomial_fading(1, 1.0)

    def test_strong_support_m2(self):
        d = strong_support(2, 3.0)
        assert np.allclose(d.values, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_strong_support_geometric_offsets(self):
        # offsets from the smallest point are {0, d1, c*d1, ...}
        d = strong_support(3, 2.0)
        off = d.values - d.values[0]
        assert off[2] / off[1] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("M,c", [(3, 2.0), (4, 3.0), (5, 8.0)])
    def test_strong_support_moments(self, M, c):
        d = strong_support(M, c)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.mean == pytest.approx(0.0, abs=1e-9)
        assert d.var == pytest.approx(1.0, abs=1e-9)

    def test_strong_support_rejects_bad_args(self):
        with pytest.raises(InvalidM):
            strong_support(1, 2.0)
        with pytest.raises(InvalidC):
            strong_support(3, 1.0)


_CATALOG_LAWS = st.one_of(
    st.just(parse_distribution("two-point")),
    st.builds(geometric_fading, st.floats(0.05, 0.95)),
    st.builds(binomial_fading, st.integers(1, 160), st.floats(0.05, 0.95)),
    st.builds(strong_support, st.integers(2, 8), st.floats(1.5, 4.0)))


@st.composite
def literal_laws(draw):
    """Laws on 0, 1, 2, ... with random masses, some of them 0, of 2 atoms up
    to fading._COMPARE_ATOMS (counted by comparisons) or of up to 44 more
    (found by binary search)."""
    top = fading._COMPARE_ATOMS
    m = draw(st.one_of(st.integers(2, top), st.integers(top + 1, top + 44)))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    w = gen.random(m) * (gen.random(m) >= draw(st.floats(0.0, 0.9)))
    w[gen.integers(m)] += 1.0
    return Discrete(tuple(zip(np.arange(m, dtype=float).tolist(), (w / w.sum()).tolist())))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_CATALOG_LAWS, literal_laws()), st.integers(1, 3000),
       st.integers(0, 2 ** 32), st.booleans())
def test_index_draw_replays_generator_choice(law, n, seed, scratch):
    # the same indices and values as Generator.choice, leaving the generator
    # where choice leaves it
    draws = [(lambda g: law._draw_index(g, n, np.empty(n) if scratch else None),
              lambda g: g.choice(len(law.values), n, p=law.probs)),
             (lambda g: law._draw(g, n), lambda g: g.choice(law.values, n, p=law.probs))]
    for draw, choice in draws:
        a, b = seeded_rng(seed), seeded_rng(seed)
        assert np.array_equal(draw(a), choice(b))
        assert a.random() == b.random()


_TRIANGLE = TabulatedDensity(((-1.5, 0.0), (0.0, 2.0 / 3.0), (1.5, 0.0)))


class TestSampler:
    def test_deterministic(self):
        a = sample(Gaussian(0.0, 1.0), 42, 1000)
        b = sample(Gaussian(0.0, 1.0), 42, 1000)
        assert np.array_equal(a, b)

    def test_discrete_clt(self):
        xs = sample(TWO_POINT, 7, 10 ** 6)
        assert abs(xs.mean()) < 5e-3

    @pytest.mark.parametrize("dist", [
        Gaussian(0.5, 2.0), Uniform(-1, 2), unit_rayleigh(),
        LogNormal(0.0, 0.25), geometric_fading(0.5),
    ])
    def test_moments_within_five_stderr(self, dist):
        n = 10 ** 6
        xs = sample(dist, 11, n)
        se_mean = math.sqrt(dist.var / n)
        assert abs(xs.mean() - dist.mean) < 5 * se_mean

    def test_tabulated_draws_follow_declared_density(self):
        # the triangle law on [-1.5, 1.5]: a piecewise-linear density, whose
        # segment-uniform reading has variance 0.75; the declared one's is
        # 3/8, with fourth moment 1.5^4 / 15
        n = 10 ** 6
        xs = np.sort(sample(_TRIANGLE, 0, n))
        cdf = np.where(xs < 0.0, (xs + 1.5) ** 2 / 4.5, 1.0 - (1.5 - xs) ** 2 / 4.5)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks < 1.6276 / math.sqrt(n)  # Kolmogorov's 1% critical value
        se_var = math.sqrt((1.5 ** 4 / 15 - 0.375 ** 2) / n)
        assert abs(xs.var() - 0.375) < 5 * se_var

    def test_rejects_nonpositive_n(self):
        with pytest.raises(InvalidN):
            sample(TWO_POINT, 0, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(SpecInvalid):
            sample(Gaussian(), -1, 10)

    def test_root_stream_of_the_seed(self):
        want = np.random.default_rng(np.random.SeedSequence(42)).normal(0.0, 1.0, size=100)
        assert np.array_equal(sample(Gaussian(), 42, 100), want)


class TestParsing:
    def test_shorthands(self):
        assert isinstance(parse_distribution("gaussian"), Gaussian)
        assert parse_distribution("two-point") == TWO_POINT
        assert parse_distribution("uniform").var == pytest.approx(1.0, abs=1e-12)
        assert parse_distribution("rayleigh").var == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dist", [
        TWO_POINT, Gaussian(1.0, 2.0), Uniform(-1, 2), Rayleigh(1.5, 0.1, 2.0),
        LogNormal(0.2, 0.5, 0.0, 1.0),
        TabulatedDensity(((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0))),
    ])
    def test_json_round_trip(self, dist):
        assert parse_distribution(dist.to_json()) == dist

    @pytest.mark.parametrize("dist,text", [
        (TWO_POINT, '{"kind": "discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}'),
        (Gaussian(1.0, 2.0), '{"kind": "gaussian", "mean": 1.0, "var": 2.0}'),
        (Uniform(-1, 2), '{"kind": "uniform", "lo": -1, "hi": 2}'),
        (Rayleigh(1.5, 0.1, 2.0), '{"kind": "rayleigh", "sigma": 1.5, "loc": 0.1, "scale": 2.0}'),
        (LogNormal(0.2, 0.5, 0.0, 1.0),
         '{"kind": "lognormal", "mu": 0.2, "sigma2": 0.5, "loc": 0.0, "scale": 1.0}'),
        (TabulatedDensity(((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0))),
         '{"kind": "tabulated", "grid": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]}'),
    ], ids=lambda v: getattr(v, "kind", ""))
    def test_literal_text_of_each_kind(self, dist, text):
        assert json.dumps(dist.to_json()) == text

    @pytest.mark.parametrize("literal,dist", [
        ({"kind": "gaussian"}, Gaussian(0.0, 1.0)),
        ({"kind": "gaussian", "mean": 2}, Gaussian(2.0, 1.0)),
        ({"kind": "gaussian", "var": 3}, Gaussian(0.0, 3.0)),
        ({"kind": "rayleigh", "sigma": 2}, Rayleigh(2.0, 0.0, 1.0)),
        ({"kind": "rayleigh", "sigma": 2, "scale": -1}, Rayleigh(2.0, 0.0, -1.0)),
        ({"kind": "rayleigh", "sigma": 2, "loc": 1}, Rayleigh(2.0, 1.0, 1.0)),
        ({"kind": "lognormal"}, LogNormal(0.0, 1.0, 0.0, 1.0)),
        ({"kind": "lognormal", "mu": 1, "loc": 2}, LogNormal(1.0, 1.0, 2.0, 1.0)),
        ({"kind": "lognormal", "sigma2": 0.5, "scale": 3}, LogNormal(0.0, 0.5, 0.0, 3.0)),
    ])
    def test_omitted_keys_take_their_defaults(self, literal, dist):
        assert parse_distribution(literal) == dist

    def test_literal_defaults_are_the_class_defaults(self):
        assert parse_distribution({"kind": "gaussian"}) == Gaussian()
        assert parse_distribution({"kind": "rayleigh", "sigma": 2}) == Rayleigh(2.0)
        assert parse_distribution({"kind": "lognormal"}) == LogNormal()

    def test_json_text(self):
        d = parse_distribution('{"kind":"gaussian","mean":2,"var":3}')
        assert d == Gaussian(2.0, 3.0)

    def test_bad_literals(self):
        with pytest.raises(SpecInvalid):
            parse_distribution({"kind": "nope"})
        with pytest.raises(SpecInvalid):
            parse_distribution({"no_kind": 1})
        with pytest.raises(SpecInvalid):
            parse_distribution("[1, 2]")
        for kind in ([1], None, {}):  # unhashable or not a name
            with pytest.raises(SpecInvalid, match="unknown distribution kind"):
                parse_distribution({"kind": kind})


class TestValidation:
    def test_discrete_prob_sum(self):
        with pytest.raises(InvalidP):
            Discrete(((-1.0, 0.6), (1.0, 0.5)))

    def test_discrete_ordering(self):
        # unsorted or repeated atoms are a bad literal, not a non-finite number
        for atoms in (((1.0, 0.5), (-1.0, 0.5)), ((1.0, 0.5), (1.0, 0.5))):
            with pytest.raises(SpecInvalid, match="strictly increasing"):
                Discrete(atoms)

    def test_tabulated_normalization(self):
        xs = np.linspace(-1, 1, 101)
        with pytest.raises(InvalidP):
            TabulatedDensity(tuple(zip(xs.tolist(), np.full(101, 2.0).tolist())))

    def test_tabulated_valid(self):
        xs = np.linspace(-1, 1, 401)
        d = 0.5 * np.ones_like(xs)
        t = TabulatedDensity(tuple(zip(xs.tolist(), d.tolist())))
        assert t.mean == pytest.approx(0.0, abs=1e-9)
        assert t.entropy_bits() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("make", [
        lambda: Discrete(((0.0, math.nan), (1.0, 1.0))),
        lambda: Discrete(((0.0, math.inf), (1.0, 1.0))),
        lambda: Discrete(((-1.0, 0.5), (1.0, -math.inf))),
        lambda: Discrete(((math.nan, 1.0),)),
        lambda: TabulatedDensity(((0.0, 1.0), (1.0, math.nan), (2.0, 1.0))),
        lambda: TabulatedDensity(((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (math.inf, 0.0))),
        # before the node count, the ordering and the sign checks
        lambda: TabulatedDensity(((0.0, math.inf), (1.0, 1.0))),
        lambda: Discrete(((1.0, 0.5), (-math.inf, 0.5))),
        lambda: Discrete(((1.0, -0.5), (math.nan, 1.5))),
    ], ids=["nan-mass", "infinite-mass", "negative-infinite-mass", "nan-value", "nan-density",
            "infinite-node", "before-node-count", "before-ordering", "before-sign"])
    def test_pairs_finite_first(self, make):
        with pytest.raises(NonFinite, match="is not finite"):
            make()

    @pytest.mark.parametrize("make,error", [
        (lambda: Gaussian(0.0, -1.0), ZeroVariance),
        (lambda: Gaussian(0.0, 0.0), ZeroVariance),
        (lambda: Gaussian(math.nan, 1.0), NonFinite),
        (lambda: Gaussian(0.0, math.inf), NonFinite),
        (lambda: Uniform(-math.inf, 1.0), NonFinite),
        (lambda: Uniform(0.0, math.nan), NonFinite),
        (lambda: Rayleigh(math.inf), NonFinite),
        (lambda: Rayleigh(1.0, math.nan), NonFinite),
        (lambda: Rayleigh(1.0, 0.0, -math.inf), NonFinite),
        (lambda: LogNormal(math.nan, 1.0), NonFinite),
        (lambda: LogNormal(0.0, math.inf), NonFinite),
        (lambda: LogNormal(0.0, 1.0, 0.0, math.nan), NonFinite),
    ])
    def test_continuous_parameters_finite_and_positive(self, make, error):
        with pytest.raises(error):
            make()


def _clamped_rayleigh_pdf(law, x):
    """The Rayleigh density as it was when r^2/(2 sigma^2) was clamped at 745."""
    r = (np.asarray(x, dtype=float) - law.loc) / law.scale
    s2 = law.sigma ** 2
    out = np.where(r > 0, r / s2 * np.exp(-np.minimum(r * r / (2 * s2), 745.0)), 0.0)
    return out / abs(law.scale)


class TestRayleighTail:
    @pytest.mark.parametrize("x", [100.0, 1e10, 1e200, 1e308, -1e308])
    def test_zero_far_past_the_support(self, x):
        # the clamp read 2.2e-322 at 100 and 2.1e-314 at 1e10, and r * r
        # overflowed past 1.3e154; warnings are errors here
        law = parse_distribution("rayleigh")
        assert law.pdf(x) == 0.0
        assert law.pdf(np.array([0.0, x]))[1] == 0.0

    @pytest.mark.parametrize("law", [parse_distribution("rayleigh"), Rayleigh(1.0),
                                     Rayleigh(1.5, 0.1, 2.0), Rayleigh(1.0, 0.0, -1.0)],
                             ids=["unit", "sigma-1", "shifted", "mirrored"])
    def test_support_values_unchanged(self, law):
        xs = np.linspace(*law.support(), 200001)
        np.testing.assert_array_equal(law.pdf(xs), _clamped_rayleigh_pdf(law, xs))


class TestMirroredRayleigh:
    LAW = '{"kind":"rayleigh","sigma":1,"scale":-1}'

    def test_pdf_is_mirror_image(self):
        xs = np.linspace(-12.0, 12.0, 24001)
        mirrored = Rayleigh(1.0, 0.0, -1.0).pdf(xs)
        np.testing.assert_array_equal(mirrored, Rayleigh(1.0).pdf(-xs))
        assert np.trapezoid(mirrored, xs) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--theorem", "continuous", "--P", "10", "--c", "3"],
        ["mi", "--no-rcsi", "--P", "10", "--c", "3", "--n", "10000"],
    ], ids=["bounds", "mi"])
    def test_commands_succeed(self, capsys, argv):
        assert main(argv + ["--dist", self.LAW]) == 0
        assert json.loads(capsys.readouterr().out)
