"""An outer bound is a minimum over branches whose condition holds, so each
such branch must bound the inner rate too.  The branches known to fall below
it are listed in INVERTING, each with one point where it still does, so that
the list cannot go stale; an inversion on any other branch fails."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdirt.errors import ToolkitError
from fadingdirt.fading import binomial_fading, geometric_fading, strong_support
from fadingdirt.harness import point_bounds

# (theorem, law, interval, P, c) at which the branch lies below the inner bound
INVERTING = {
    # the verify row strongM5, P = 100, c^2 = 64: outer 1.7921, inner 2.3673
    ("strong-outer", "pre-optimized"): ("strong", strong_support(5, 8.0), None, 100.0, 8.0),
    # outer 2.0555, inner 2.1575, which costa_rate_exact gives too
    ("strong-outer", "large-gain"): ("strong", strong_support(6, 8.0), None, 100.0, 30.0),
    # outer 4.7951, inner 4.9743 on I = [-1, 1]
    ("continuous-outer", "moderate-gain"): ("continuous", "gaussian", (-1.0, 1.0), 1000.0, 0.1),
}


def _below_inner(theorem, law, interval, P, c, Delta=math.pi / 2):
    """The (theorem, branch) of each condition-true outer candidate below the
    inner bound at one point; none where the theorem does not apply."""
    try:
        inner, outer = point_bounds(theorem, P, c, dist=law, Delta=Delta, interval=interval)
    except ToolkitError:
        return set()
    return {(outer.theorem, branch) for bits, branch, holds in outer.candidates
            if holds and bits < inner.bits - 1e-9}


@pytest.mark.parametrize("pair", list(INVERTING), ids="/".join)
def test_each_listed_branch_still_inverts(pair):
    assert pair in _below_inner(*INVERTING[pair])


_DENSITIES = ("gaussian", "uniform", "rayleigh")
_HALF_PI = st.just(math.pi / 2)  # read by the phase theorem only
# (theorem, law, interval, Delta) over the catalog laws and the verify grids' laws
_POINTS = st.one_of(
    st.tuples(st.just("no-rcsi"), st.sampled_from((*_DENSITIES, "two-point")), st.none(),
              _HALF_PI),
    st.tuples(st.just("mass-half"), st.sampled_from(("two-point", geometric_fading(0.55),
                                                     binomial_fading(1, 0.5),
                                                     binomial_fading(2, 0.5))),
              st.none(), _HALF_PI),
    st.tuples(st.just("strong"), st.builds(strong_support, st.integers(2, 6), st.floats(1.5, 8.0)),
              st.none(), _HALF_PI),
    st.tuples(st.just("phase-binomial"), st.none(), st.none(),
              st.floats(math.pi / 4, math.pi / 2)),
    st.tuples(st.just("continuous"), st.sampled_from(_DENSITIES),
              st.sampled_from((None, (-1.0, 1.0))), _HALF_PI),
)


@settings(max_examples=300, deadline=None)
@given(_POINTS, st.floats(-2.0, 4.0), st.floats(-2.0, 2.0))
def test_no_unlisted_outer_branch_below_the_inner_bound(point, log_p, log_c):
    theorem, law, interval, Delta = point
    assert _below_inner(theorem, law, interval, 10.0 ** log_p, 10.0 ** log_c, Delta) <= set(INVERTING)
