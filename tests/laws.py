"""Fading laws, a strategy that draws tabulated ones, and the quadrature
oracle of the closed-form entropies, shared by several test modules."""

import json
import math

import numpy as np
from hypothesis import strategies as st

from fadingdirt.errors import DiscreteUnsupported, QuadratureFailure
from fadingdirt.fading import Discrete, TabulatedDensity

TWO_POINT = Discrete(((-1.0, 0.5), (1.0, 0.5)))

# unit-variance log-normal with log-variance 1/4
UNIT_LOGNORMAL = json.dumps({"kind": "lognormal", "mu": 0.0, "sigma2": 0.25,
                             "scale": 1.6559018331762287})

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

# a unit-variance two-hump density on 9 nodes, that of the golden no-RCSI bound
TABULATED_9 = ('{"kind":"tabulated","grid":[[-2.1492304319951656,0.0],'
               '[-1.6157335162516846,0.16066500702226996],[-1.0822366005082038,0.4284400187260533],'
               '[-0.5487396847647231,0.21422000936302665],[-0.015242769021242313,0.16066500702226996],'
               '[0.5182541467222385,0.3213300140445399],[1.0517510624657194,0.48199502106680997],'
               '[1.5852479782092002,0.10711000468151333],[2.1187448939526807,0.0]]}')


@st.composite
def tabulated_laws(draw):
    """Tabulated densities on 3 to 12 nodes, some of them 0."""
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=2, max_size=11))
    xs = draw(st.floats(-5.0, 5.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    ds = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs), max_size=len(xs))))
    mass = np.trapezoid(ds, xs)
    if not mass > 1e-3:
        ds, mass = np.ones(len(xs)), xs[-1] - xs[0]
    return TabulatedDensity(tuple(zip(xs.tolist(), (ds / mass).tolist())))


def entropy_bits_quadrature(law):
    """-integral of p log2 p over the support by `scipy.integrate.quad`,
    with the law's kinks as breakpoints: the oracle of the closed-form
    entropies.  QuadratureFailure where its error estimate exceeds 1e-8, or
    where it finds a mass other than 1, as it does when the density sits on
    a sliver of a wide support; DiscreteUnsupported on a discrete law."""
    import scipy.integrate

    if law.is_discrete:
        raise DiscreteUnsupported("quadrature entropy applies to continuous laws")
    lo, hi = law.support()
    kinks = list(law.kinks())

    def quad(f):
        def integrand(x):
            p = law.density(x)
            return f(p) if p > 0 else 0.0

        return scipy.integrate.quad(integrand, lo, hi, points=kinks or None,
                                    limit=400 + len(kinks), epsabs=1e-9, epsrel=1e-10)

    value, err = quad(lambda p: -p * math.log2(p))
    if err > 1e-8:
        raise QuadratureFailure(f"entropy quadrature error {err!r} exceeds 1e-8")
    mass = quad(lambda p: p)[0]
    if not abs(mass - 1.0) <= 1e-6:
        raise QuadratureFailure(f"quadrature found mass {mass!r} over the support, not 1")
    return value
