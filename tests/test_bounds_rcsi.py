import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fadingdirt import bounds_rcsi
from fadingdirt.bounds_norcsi import ChannelParams, RateBound, finite_square, pick
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
    DeltaOutOfRange,
    IntervalMassTooSmall,
    NoDominantAtom,
    NonFinite,
    NotUniform,
    QuadratureFailure,
    QuadratureWarning,
    RootNotFound,
    ToolkitError,
    ZeroAtomCollision,
    ZeroGain,
)
from fadingdirt.fading import (
    Discrete,
    Gaussian,
    LogNormal,
    TabulatedDensity,
    Uniform,
    _quadpack,
    binomial_fading,
    geometric_fading,
    normalize_unit_variance,
    parse_distribution,
    strong_support,
)
from fadingdirt.gauss_mi import CostaAssignment, costa_rate_exact
from fadingdirt.harness import SweepSpec, run_sweep

from laws import TABULATED_0, TWO_POINT, UNIT_LOGNORMAL

mpmath.mp.dps = 50


class TestPhaseBinomial:
    def test_branch_weak(self):
        got = outer_phase_binomial(3, 0.25, math.pi / 2)
        assert got.bits == 4.0
        assert got.branch == "weak-interference"

    def test_branch_strong(self):
        got = outer_phase_binomial(3, 16.0, math.pi / 2)
        assert got.bits == 3.5
        assert got.branch == "strong-interference"

    def test_branch_middle_high_precision(self):
        got = outer_phase_binomial(8, 4.0, math.pi / 2)
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
                outer_phase_binomial(1, 1, d)


def _chain_outer_phase_binomial(P, Q, Delta):
    """The phase outer bound as one if/elif chain over its three branches:
    the oracle for the minimum over the branches whose condition holds."""
    if not (math.pi / 4 <= Delta <= math.pi / 2):
        raise DeltaOutOfRange(f"Delta must be in [pi/4, pi/2], got {Delta!r}")
    if Q <= 0:
        raise ZeroGain("Q must be positive")
    c2 = math.sin(Delta) ** 2 * Q
    if c2 <= 1.0:
        bits = math.log2(P + 1) + 2.0
        branch = "weak-interference"
    elif c2 >= P + 1.0:
        bits = 0.75 * math.log2(P + 1) + 2.0
        branch = "strong-interference"
    else:
        root_sum2 = finite_square(math.sqrt(P) + math.sqrt(c2), "sqrt(P) + sqrt(c2)")
        bits = (
            0.5 * math.log2(P + 1)
            + 0.5 * math.log2(1.0 + root_sum2)
            - 0.25 * math.log2(2.0 * c2)
            + 2.0
        )
        branch = "moderate-interference"
    return RateBound(bits=bits, theorem="phase-binomial-outer", branch=branch,
                     assumptions_ok={"delta_in_range": True})


def _bound_or_error(f, *args):
    try:
        got = f(*args)
    except ToolkitError as exc:
        return type(exc)
    return got.bits, got.branch, got.theorem, got.assumptions_ok


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.sampled_from([0.0, 1e-20, 1.0, 3.0, 1e308]), st.floats(0.0, 1e308)),
       st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 4.0, 1e308]), st.floats(-1.0, 1e308)),
       st.one_of(st.sampled_from([0.5, math.pi / 4, 1.2, math.pi / 2, 1.7]),
                 st.floats(0.5, 1.7)),
       st.booleans())
def test_outer_phase_binomial_equals_chain_oracle(P, Q, Delta, on_the_edge):
    if on_the_edge:  # c2 = P + 1 exactly: the strong branch's edge (c2 = 1 too at P = 0)
        Q, Delta = P + 1.0, math.pi / 2
    assert (_bound_or_error(outer_phase_binomial, P, Q, Delta)
            == _bound_or_error(_chain_outer_phase_binomial, P, Q, Delta))


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

    @pytest.mark.parametrize("law,zero", [
        (TWO_POINT, True),
        (geometric_fading(0.55), True),  # its truncated tail leaves a mean of -9.6e-13
        (Discrete(((-1.0, 0.6), (0.5, 0.3), (2.0, 0.1))), False),  # mean -0.25
    ], ids=["two-point", "geometric", "three-atom"])
    def test_mu_a_zero_reads_the_law_mean(self, law, zero):
        got = outer_mass_half(ChannelParams(P=15, c=8), mass_half_params(law))
        assert got.assumptions_ok["mu_A_zero"] is zero


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



# The array evaluation of the three inner strategies that bounds_rcsi's list
# evaluation replaced, kept as its oracle: numpy scalars, E[A^2] and the mass
# of a' recomputed for every precoding target, numpy's argmax over strategies.

def _array_costa_atom_sum(values, probs, a_prime, p_prime_mass, c, power):
    if power <= 0:
        return 0.0
    r = p_prime_mass / 2 * math.log2(1 + power)
    for v, p in zip(values, probs):
        if v == a_prime:
            continue
        num = (1 + c * c * v * v + power) * (1 + power)
        den = power * c * c * (v - a_prime) ** 2 + power + c * c * v * v + 1
        r += p / 2 * math.log2(num / den)
    return r


def _array_strategies(params, values, probs, a_prime):
    P, c = params.P, params.c
    c2 = c * c
    ea2 = float(np.dot(values ** 2, probs))
    i_p = probs[np.nonzero(values == a_prime)[0][0]]
    treat = 0.5 * math.log2(1 + P / (1 + c2 * ea2))
    costa = _array_costa_atom_sum(values, probs, a_prime, i_p, c, P)
    P_bar = 1.0 - i_p
    abar_p = P if P_bar <= 0 else max(min(i_p / P_bar * c2 - 1.0, P), 0.0)
    split = 0.5 * math.log2(1 + (P - abar_p) / (1 + c2 * ea2 + abar_p)) + _array_costa_atom_sum(
        values, probs, a_prime, i_p, c, abar_p)
    return max(treat, 0.0), max(costa, 0.0), max(split, 0.0)


_STRATEGY_NAMES = ("treat-as-noise", "costa", "power-split")


def _array_candidates(params, law, a_prime):
    rates = _array_strategies(params, law.values, law.probs, a_prime)
    return [(bits, name, True) for bits, name in zip(rates, _STRATEGY_NAMES)]


def _array_best(params, law, a_prime):
    rates = _array_strategies(params, law.values, law.probs, a_prime)
    i = int(np.argmax(rates))
    return rates[i], _STRATEGY_NAMES[i]


@st.composite
def mass_half_literals(draw):
    """Discrete laws of 1 to 6 atoms on the half-integers in [-4, 4], so that
    mirrored atoms tie; one atom has mass >= 1/2, and only it may sit at 0."""
    top = draw(st.integers(-8, 8))
    rest = draw(st.lists(st.integers(-8, 8).filter(lambda v: v not in (0, top)),
                         max_size=5, unique=True))
    mass = draw(st.sampled_from([0.5, 0.6, 0.75, 0.9])) if rest else 1.0
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=len(rest),
                            max_size=len(rest)))
    atoms = [(top / 2, mass)] + [(v / 2, (1.0 - mass) * w / sum(weights))
                                 for v, w in zip(rest, weights)]
    return Discrete(tuple(sorted(atoms)))


_POWERS = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
_GAINS = st.one_of(st.just(0.0), st.floats(-100.0, 100.0))


@settings(max_examples=300, deadline=None)
@given(mass_half_literals(), _POWERS, _GAINS)
def test_inner_mass_half_equals_array_oracle(law, P, c):
    params = ChannelParams(P=P, c=c)
    mp_ = mass_half_params(law)
    got = inner_mass_half(params, law, mp_)
    assert ((got.bits, got.branch, got.theorem, got.assumptions_ok)
            == (*_array_best(params, law, mp_.a_prime), "mass-half-inner",
                {"dominant_mass": True}))
    # every strategy, not only the winner, bit for bit
    assert list(got.candidates) == _array_candidates(params, law, mp_.a_prime)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.floats(1.05, 8.0), _POWERS, _GAINS)
def test_inner_strong_equals_array_oracle(M, ratio, P, c):
    params = ChannelParams(P=P, c=c)
    support = strong_support(M, ratio)
    got = inner_strong(params, support)
    # the first target wins ties
    want = max((_array_best(params, support, float(a)) for a in support.values),
               key=lambda rate_tag: rate_tag[0])
    assert ((got.bits, got.branch, got.theorem, got.assumptions_ok)
            == (*want, "strong-inner", {"uniform": True}))
    assert list(got.candidates) == [cand for a in support.values
                                    for cand in _array_candidates(params, support, float(a))]


# The two choosers that `pick` replaced, kept as its oracles.  An outer bound
# was min((bits, branch)) over the branches whose condition holds, so a tie
# in bits went to the smaller branch name; an inner bound took the first best
# strategy at each precoding target, then the first best target.

def _min_branch(theorem, branches, assumptions):
    valid = [(v, tag) for v, tag, ok in branches if ok]
    if not valid:
        raise ZeroGain(f"{theorem}: no branch condition holds (c too small?)")
    bits, tag = min(valid)
    return RateBound(bits=float(bits), theorem=theorem, branch=tag, assumptions_ok=assumptions)


_BRANCH_NAMES = ("large-gain", "moderate-gain", "pre-optimized", "treat-as-noise")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0, math.inf]), st.booleans()),
                min_size=1, max_size=len(_BRANCH_NAMES)))
def test_pick_equals_min_branch_oracle_on_branches_listed_by_name(drawn):
    # few distinct bits, so that ties between branches are common
    branches = [(bits, name, holds) for (bits, holds), name in zip(drawn, _BRANCH_NAMES)]
    assert (_bound_or_error(pick, "t", branches, {"x": True})
            == _bound_or_error(_min_branch, "t", branches, {"x": True}))


def _outer_equals_oracle(got):
    """The bound equals the old chooser over its own candidates, which are
    listed by branch name; at P, c > 0 some condition holds."""
    names = [branch for _, branch, _ in got.candidates]
    assert names == sorted(names)
    want = _min_branch(got.theorem, got.candidates, got.assumptions_ok)
    assert ((got.bits, got.branch, got.theorem, got.assumptions_ok)
            == (want.bits, want.branch, want.theorem, want.assumptions_ok))


@settings(max_examples=75, deadline=None)
@given(mass_half_literals(), st.floats(1e-3, 1e6), st.floats(1e-3, 100.0))
def test_outer_mass_half_equals_min_branch_oracle(law, P, c):
    _outer_equals_oracle(outer_mass_half(ChannelParams(P=P, c=c), mass_half_params(law)))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.floats(1.5, 8.0), st.floats(1e-3, 1e6), st.floats(1e-3, 100.0))
def test_outer_strong_equals_min_branch_oracle(M, ratio, P, c):
    sp = strong_params(strong_support(M, ratio), c * c)
    _outer_equals_oracle(outer_strong(ChannelParams(P=P, c=c), sp))


_CONTINUOUS_PARAMS = {law: continuous_interval_params(parse_distribution(law), (-1.0, 1.0))
                      for law in ("gaussian", "uniform", "rayleigh")}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_CONTINUOUS_PARAMS)), st.floats(1e-3, 1e6), st.floats(1e-3, 100.0))
def test_outer_continuous_equals_min_branch_oracle(law, P, c):
    _outer_equals_oracle(outer_continuous(ChannelParams(P=P, c=c), _CONTINUOUS_PARAMS[law]))


_STRATEGIES = ("treat-as-noise", "costa", "power-split")


def _first_best_strategy(candidates):
    """The old inner chooser over a bound's own candidates, which list the
    three strategies at each precoding target in turn."""
    assert [branch for _, branch, _ in candidates] == list(_STRATEGIES) * (len(candidates) // 3)
    best = None
    for at in range(0, len(candidates), 3):
        rates = [bits for bits, _, _ in candidates[at:at + 3]]
        i = max(range(3), key=rates.__getitem__)
        if best is None or rates[i] > best[0]:
            best = rates[i], _STRATEGIES[i]
    return best


@settings(max_examples=75, deadline=None)
@given(mass_half_literals(), _POWERS, _GAINS)
def test_inner_mass_half_equals_best_strategy_oracle(law, P, c):
    got = inner_mass_half(ChannelParams(P=P, c=c), law, mass_half_params(law))
    assert len(got.candidates) == 3
    assert ((got.bits, got.branch, got.theorem, got.assumptions_ok)
            == (*_first_best_strategy(got.candidates), "mass-half-inner",
                {"dominant_mass": True}))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.floats(1.5, 8.0), _POWERS, _GAINS)
def test_inner_strong_equals_best_strategy_oracle(M, ratio, P, c):
    got = inner_strong(ChannelParams(P=P, c=c), strong_support(M, ratio))
    assert len(got.candidates) == 3 * M
    assert ((got.bits, got.branch, got.theorem, got.assumptions_ok)
            == (*_first_best_strategy(got.candidates), "strong-inner", {"uniform": True}))


# the four mass-half verify laws, each at its own a', and the nine strong
# verify supports at every atom
_COSTA_LAWS = {
    "two-point": TWO_POINT,
    "geometric0.55": geometric_fading(0.55),
    "binomial1": binomial_fading(1, 0.5),
    "binomial2": binomial_fading(2, 0.5),
    **{f"strongM{M}-r{r:g}": strong_support(M, r) for M in (3, 4, 5) for r in (2.0, 4.0, 8.0)},
}


@pytest.mark.parametrize("name", list(_COSTA_LAWS))
def test_costa_candidate_is_the_exact_rate_up_to_large_gain(name):
    # the full-power Costa candidate (the power split at abar = P) and the
    # covariance oracle are two closed forms of one rate
    law = _COSTA_LAWS[name]
    for P in (0.1, 1.0, 10.0, 1e3, 1e6):
        for c in (1.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12):
            params = ChannelParams(P=P, c=c)
            if name.startswith("strong"):
                got, targets = inner_strong(params, law), law.values.tolist()
            else:
                mp_ = bounds_rcsi.gap_params_at(law)  # the a' of the verify row
                got, targets = inner_mass_half(params, law, mp_), [mp_.a_prime]
            costa = [bits for bits, branch, _ in got.candidates if branch == "costa"]
            want = [costa_rate_exact(params, law, CostaAssignment(a_target=a)) for a in targets]
            assert costa == pytest.approx(want, rel=0, abs=1e-12), (P, c)


class TestStrongCondition:
    @pytest.mark.parametrize("M", [3, 4, 5])
    @pytest.mark.parametrize("c", [2.0, 4.0, 8.0])
    def test_construction_passes(self, M, c):
        d = strong_support(M, c)
        assert strong_condition_check(d, c * c)

    def test_equally_spaced_fails_at_large_gain(self):
        vals = np.linspace(-1, 1, 5)
        vals = (vals - vals.mean()) / vals.std()
        d = Discrete(tuple((float(v), 0.2) for v in vals))
        assert not strong_condition_check(d, 400.0)

    def test_m2_vacuous(self):
        assert strong_condition_check(TWO_POINT, 1e4)

    def test_not_uniform(self):
        with pytest.raises(NotUniform):
            strong_condition_check(Discrete(((-1.0, 0.7), (1.0, 0.3))), 4.0)

    @pytest.mark.parametrize("c", [2.0, 8.0])
    def test_params_carry_the_condition_and_the_mean(self, c):
        base = strong_support(4, 2.0)
        shifted = Discrete(tuple((float(v) + 1.0, 0.25) for v in base.values))
        sp = strong_params(shifted, c * c)
        assert sp.alpha_sf == c * c / (c * c + 1.0)
        assert sp.condition_ok is strong_condition_check(shifted, c * c)
        assert sp.condition_ok is (c == 2.0)
        assert sp.mu_A == pytest.approx(1.0, abs=1e-12)


class TestOuterStrong:
    def test_large_gain_branch_arithmetic(self):
        # k2/M > (M-1)/M (P+1): M=3, c=30, P=1
        d = strong_support(3, 30.0)
        al = 0.9
        sp = replace(strong_params(d, 900.0), alpha_sf=al)
        got = outer_strong(ChannelParams(P=1, c=30), sp)
        want = (1 / 6) * math.log2(2.0) - (2 / 6) * math.log2(al) + 1.5
        assert got.bits == pytest.approx(want, abs=1e-12)
        assert got.branch == "large-gain"

    def test_high_precision_appendix(self):
        c = 10.0
        al = c * c / (c * c + 1.0)
        d = strong_support(4, c)
        sp = strong_params(d, c * c)
        assert sp.alpha_sf == al
        got = outer_strong(ChannelParams(P=100, c=c), sp)
        P, k2, alm = mpmath.mpf(100), mpmath.mpf(100), mpmath.mpf(100) / 101
        w = mpmath.mpf(3) / 8
        want = float(mpmath.log(P + k2 + 1, 2) / 2 - w * mpmath.log(k2, 2)
                     - w * mpmath.log(alm, 2) + mpmath.mpf("0.5"))
        assert got.bits == pytest.approx(want, abs=1e-12)

    def test_m2_coincides_with_mass_half_preoptimized_branch(self):
        # equivalent slack alpha = 1 makes the M=2 pre-optimized branches equal
        mp_ = mass_half_params(TWO_POINT)
        sp = replace(strong_params(TWO_POINT, 4.0), alpha_sf=1.0)
        a = outer_strong(ChannelParams(P=15, c=2), sp)
        b = outer_mass_half(ChannelParams(P=15, c=2), mp_)
        assert a.bits == pytest.approx(b.bits, abs=1e-9)

    def test_m2_coincides_with_mass_half_large_gain_branch(self):
        # equivalent slack alpha = Delta_1^2 = 4 for the large-gain branch
        mp_ = mass_half_params(TWO_POINT)
        sp = replace(strong_params(TWO_POINT, 64.0), alpha_sf=4.0)
        a = outer_strong(ChannelParams(P=1, c=8), sp)
        b = outer_mass_half(ChannelParams(P=1, c=8), mp_)
        assert a.bits == pytest.approx(b.bits, abs=1e-9)

    def test_nondecreasing_in_p(self):
        c = 2.0
        d = strong_support(3, c)
        sp = strong_params(d, c * c)
        # stay inside the pre-optimized branch regime (P >= k2/(M-1) - 1);
        # across the regime switch the piecewise theorem is not monotone
        vals = [outer_strong(ChannelParams(P=float(P), c=c), sp).bits
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

    def test_interval_past_the_support_integrates_its_mass(self):
        # QUADPACK missed the mass near 0 on [-1, 1e5] and read P(I) = 0
        cp = continuous_interval_params(Gaussian(0.0, 1.0), (-1.0, 1e5))
        assert cp.prob_I == pytest.approx(0.5 * (1 + math.erf(1 / math.sqrt(2))), abs=1e-12)
        # a density that falls to 0 at its support's end, so that a' exists
        # on an interval past it
        tri = TabulatedDensity(((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)))
        assert (continuous_interval_params(tri, (-0.5, 100.0)).prob_I
                == continuous_interval_params(tri, (-0.5, 1.0)).prob_I)
        u = Uniform(-math.sqrt(3), math.sqrt(3))
        with pytest.raises(IntervalMassTooSmall, match=r"P\(I\) = 0\.0 < 1/2"):
            continuous_interval_params(u, (2.0, 3.0))

    def test_a_prime_solves_its_equation_on_wide_intervals(self):
        # a fixed 100 halvings of a grid cell of width (b - a)/2000 left a' with
        # pdf(a')(b - a)/P(I) = 1.0009 at b = 1e30 and 3.7e-42 at b = 1e35; past
        # b ~ 4e31 the root lies beyond the support, where the law has no mass
        g = Gaussian(0.0, 1.0)
        solved = []
        for e in range(5, 301, 5):
            b = 10.0 ** e
            try:
                cp = continuous_interval_params(g, (-1.0, b))
            except RootNotFound:
                continue
            assert float(g.pdf(cp.a_prime)) * (b + 1.0) / cp.prob_I == pytest.approx(1.0, rel=1e-9)
            solved.append(e)
        assert solved == list(range(5, 31, 5))

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)],
                             ids=["inf", "minus-inf", "nan"])
    def test_non_finite_interval_end_fails_before_quadrature(self, monkeypatch, interval):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr(bounds_rcsi, "integrate", no_quadrature)
        with pytest.raises(NonFinite, match="interval ends must be finite"):
            continuous_interval_params(Gaussian(0.0, 1.0), interval)

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
        if (law, interval) == ("uniform", (-1.8, 1.8)):
            # I reaches past the support, where the density jumps from 0 to
            # 1.039 P(I)/(b - a): the level has no root, and the bisection
            # ended on the jump at a' = -sqrt(3)
            with pytest.raises(RootNotFound, match="jumps across"):
                continuous_interval_params(dist, (a, b))
            return
        cp = continuous_interval_params(dist, (a, b))
        assert type(cp.a_prime) is float
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

    def test_roundoff_on_the_seeded_tabulated_law_warns(self):
        # the bound integrals do not pass the kinks, so QUADPACK stops at code 2
        # far above epsabs: the warning names the code, the estimate and epsabs
        law = parse_distribution(TABULATED_0)
        with pytest.warns(QuadratureWarning, match=r"code 2 \(roundoff error detected\)"
                                                  r".*error estimate 1\.0\d*e-06, epsabs 1e-10"):
            cp = continuous_interval_params(law, (-1.0, 1.0))
        with pytest.warns(QuadratureWarning, match=r"code 2 .*error estimate 1\.5\d*e-05, "
                                                  r"epsabs 1e-08"):
            inner = inner_continuous(ChannelParams(P=1000.0, c=100.0), law, cp.a_prime)
        assert cp.prob_I >= 0.5 and 0.0 <= inner.bits <= 0.5 * math.log2(1001.0)

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


# continuous laws for the density memo: the shorthands, the unit-variance
# log-normal literal and a tabulated density with two interior kinks
_MEMO_LAWS = {
    "gaussian": lambda: parse_distribution("gaussian"),
    "uniform": lambda: parse_distribution("uniform"),
    "rayleigh": lambda: parse_distribution("rayleigh"),
    "lognormal": lambda: parse_distribution(UNIT_LOGNORMAL),
    "tabulated": lambda: TabulatedDensity(
        ((-1.5, 0.0), (-0.5, 0.625), (0.5, 0.375), (1.5, 0.0))),
}


class TestDensityMemo:
    @pytest.mark.parametrize("name", list(_MEMO_LAWS))
    def test_shared_law_sweep_equals_fresh_law_points(self, name):
        # every point of a sweep reads the memo its earlier points filled;
        # each point alone on a fresh law starts from an empty one
        shared = run_sweep(SweepSpec("continuous", _MEMO_LAWS[name]()))
        fresh = [row for P in SweepSpec.P_list for c2 in SweepSpec.c2_list
                 for row in run_sweep(SweepSpec("continuous", _MEMO_LAWS[name](),
                                                P_list=(P,), c2_list=(c2,)))]
        assert len(shared) == 30
        # repr: float fields compare exactly, and the nan claimed gap equals itself
        assert [repr(r) for r in shared] == [repr(r) for r in fresh]

    def test_density_evaluated_once_per_distinct_node(self, monkeypatch):
        pdf, quadpack = Gaussian.pdf, _quadpack()
        pdf_nodes, quad_nodes = [], []

        def counting_pdf(self, x):
            if np.ndim(x) == 0:  # the a' scan also reads a 2001-point grid at once
                pdf_nodes.append(float(x))
            return pdf(self, x)

        def counting(routine):
            return lambda f, *args: routine(lambda x: quad_nodes.append(x) or f(x), *args)

        monkeypatch.setattr(Gaussian, "pdf", counting_pdf)
        monkeypatch.setattr(quadpack, "_qagse", counting(quadpack._qagse))
        assert len(run_sweep(SweepSpec("continuous", Gaussian(0.0, 1.0)))) == 30
        distinct = set(pdf_nodes)
        assert len(pdf_nodes) == len(distinct)
        assert set(quad_nodes) <= distinct
        assert len(distinct - set(quad_nodes)) <= 100  # the a' bisection's midpoints
        assert 10 * len(pdf_nodes) < len(quad_nodes)

    def test_equal_laws_keep_separate_memos(self, monkeypatch):
        pdf, calls = Gaussian.pdf, []
        monkeypatch.setattr(Gaussian, "pdf", lambda self, x: calls.append(x) or pdf(self, x))
        first, second = Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)
        assert first.density(0.5) == float(pdf(first, 0.5))
        assert first.density(np.float64(0.5)) == first.density(0.5)
        assert calls == [0.5]
        assert second.density(0.5) == first.density(0.5)
        assert calls == [0.5, 0.5]
        # the memo is no field: equality and hashing still see only the law
        assert first == second and hash(first) == hash(second)

