import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdirt.cli import main
from fadingdirt.errors import (
    DiscreteUnsupported,
    InvalidC,
    InvalidM,
    InvalidN,
    InvalidP,
    NonFinite,
    NotUnitVariance,
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
    binomial_fading,
    entropy_bits_quadrature,
    entropy_power_alpha,
    geometric_fading,
    normalize_unit_variance,
    parse_distribution,
    sample,
    strong_support,
    unit_rayleigh,
)

TWO_POINT = Discrete(((-1.0, 0.5), (1.0, 0.5)))


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


def piecewise_linear_entropy_bits(law):
    """Exact -integral of p log2 p for a density linear between grid nodes."""
    def antiderivative(p):  # of p ln p
        return p * p / 2 * math.log(p) - p * p / 4 if p > 0 else 0.0

    h = 0.0
    for (x0, d0), (x1, d1) in zip(law.grid[:-1], law.grid[1:]):
        if d0 == d1:
            h -= (x1 - x0) * (d0 * math.log(d0) if d0 > 0 else 0.0)
        else:
            h -= (x1 - x0) / (d1 - d0) * (antiderivative(d1) - antiderivative(d0))
    return h / math.log(2)


class TestTabulatedEntropy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_quadrature_matches_piecewise_linear_closed_form(self, seed):
        law = two_hump_law(seed)
        assert entropy_bits_quadrature(law) == pytest.approx(
            piecewise_linear_entropy_bits(law), abs=1e-10)

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
    ])
    def test_json_round_trip(self, dist):
        assert parse_distribution(dist.to_json()) == dist

    def test_json_text(self):
        d = parse_distribution('{"kind":"gaussian","mean":2,"var":3}')
        assert d == Gaussian(2.0, 3.0)

    def test_bad_literals(self):
        with pytest.raises(NonFinite):
            parse_distribution({"kind": "nope"})
        with pytest.raises(NonFinite):
            parse_distribution({"no_kind": 1})


class TestValidation:
    def test_discrete_prob_sum(self):
        with pytest.raises(InvalidP):
            Discrete(((-1.0, 0.6), (1.0, 0.5)))

    def test_discrete_ordering(self):
        with pytest.raises(NonFinite):
            Discrete(((1.0, 0.5), (-1.0, 0.5)))

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
