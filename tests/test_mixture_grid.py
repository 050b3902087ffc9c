"""The mapped trapezoid grid that stands for a fading density in the no-RCSI
mixture (`gauss_mi._density_grid` and `_mixture_atoms`)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdirt import gauss_mi
from fadingdirt.bounds_norcsi import ChannelParams
from fadingdirt.errors import QuadratureFailure
from fadingdirt.fading import (
    Gaussian,
    LogNormal,
    Rayleigh,
    TabulatedDensity,
    Uniform,
    parse_distribution,
)
from fadingdirt.gauss_mi import CostaAssignment, mi_monte_carlo

from laws import TABULATED_0, UNIT_LOGNORMAL

CATALOG = {
    "gaussian": parse_distribution("gaussian"),
    "uniform": parse_distribution("uniform"),
    "rayleigh": parse_distribution("rayleigh"),
    "lognormal": parse_distribution(UNIT_LOGNORMAL),
    "tabulated0": parse_distribution(TABULATED_0),
}


def kernel_variances(params, law):
    """v(a) and v_y(a), the variances of the two Gaussians that
    `mi_monte_carlo` scores at fading a without RCSI, at split 1 and the
    default inflation."""
    P1, _, k = gauss_mi._resolve(params, law, CostaAssignment(rcsi=False))
    c, var_u = params.c, P1 + k * k
    return lambda a: (P1 + c * c * a * a - (P1 + c * a * k) ** 2 / var_u + 1.0,
                      params.P + c * c * a * a + 1.0)


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


def _scale():
    return st.floats(0.01, 10.0) | st.floats(-10.0, -0.01)


FAMILIES = st.one_of(
    st.builds(Gaussian, st.floats(-10.0, 10.0), st.floats(1e-4, 1e4)),
    st.builds(lambda lo, width: Uniform(lo, lo + width), st.floats(-10.0, 10.0),
              st.floats(1e-3, 1e3)),
    st.builds(Rayleigh, st.floats(0.01, 100.0), st.floats(-10.0, 10.0), _scale()),
    st.builds(LogNormal, st.floats(-2.0, 2.0), st.floats(0.01, 2.0), st.floats(-10.0, 10.0),
              _scale()),
    tabulated_laws())


@settings(max_examples=150, deadline=None)
@given(FAMILIES, st.floats(-2.0, 3.0), st.floats(-3.0, 3.0))
def test_grid_of_any_catalog_density(law, log_P, log_c):
    params = ChannelParams(P=10.0 ** log_P, c=10.0 ** log_c)
    variances = kernel_variances(params, law)
    lo, hi = law.support()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, w = gauss_mi._density_grid(law, params.c, variances)
        try:
            atoms, weights = gauss_mi._mixture_atoms(law, params.c, variances)
        except QuadratureFailure:
            assert not abs(w.sum() - 1.0) <= gauss_mi._GRID_MASS_TOL
            return
    # nodes strictly increase over the support, the panel ends among them
    assert np.all(np.diff(xs) > 0)
    assert (xs[0], xs[-1]) == (lo, hi)
    assert np.isin([x for x in law.kinks() if lo < x < hi], xs).all()
    assert np.isfinite(w).all() and (w >= 0).all()
    assert (w[law.pdf(xs) > 1e-250] > 0).all()
    assert abs(w.sum() - 1.0) <= gauss_mi._GRID_MASS_TOL
    # the mixture keeps the nodes of positive weight, normalized
    assert np.isin(atoms, xs).all()
    assert np.isfinite(weights).all() and (weights > 0).all()
    assert weights.sum() == pytest.approx(1.0, rel=0, abs=1e-12)


@pytest.mark.parametrize("c", [0.0, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_grid_carries_the_mass(name, c):
    law = CATALOG[name]
    xs, w = gauss_mi._density_grid(law, c, kernel_variances(ChannelParams(P=3.0, c=c), law))
    assert abs(w.sum() - 1.0) <= gauss_mi._GRID_MASS_TOL
    # about _GRID_NODES nodes: a panel has at least four steps
    assert len(xs) <= gauss_mi._GRID_NODES + 4 * len(law.kinks())


# the fine grid's midpoint check passed across the peak of the width term
# near a = 0, over which the three-point s does not increase: two nodes fell
# back onto one fine interval's left end, below the node before them
_MISSED_PEAK = (LogNormal(0.0, 1.87109375, 1.900390625, -10.0),
                ChannelParams(P=10.0 ** 0.84375, c=10.0 ** 1.90625))


def test_grid_halves_again_where_nodes_do_not_increase():
    law, params = _MISSED_PEAK
    xs, w = gauss_mi._density_grid(law, params.c, kernel_variances(params, law))
    assert np.all(np.diff(xs) > 0)
    assert abs(w.sum() - 1.0) <= gauss_mi._GRID_MASS_TOL


def test_grid_fails_when_its_evaluations_run_out(monkeypatch):
    law, params = _MISSED_PEAK
    monkeypatch.setattr(gauss_mi, "_FINE_EVALS", 1)
    with pytest.raises(QuadratureFailure, match="do not increase"):
        gauss_mi._density_grid(law, params.c, kernel_variances(params, law))


# |estimate - ref| at n = 1e4, seed 0, no RCSI, split 1, in bits, bounded by
# max(|old - ref|, 1e-6).  (ref, old) per (P, c) of _GATE_POINTS: ref on 16
# times the mapped nodes, which agrees with a 20001-node even trapezoid within
# 2.4e-10 wherever that carries the mass to 1e-9; old on the 401 even nodes
# (np.gradient weights) that the mapped grid replaced, which cannot run the
# log-normal law
_GATE_POINTS = [(0.1, 0.1), (1.24, 0.66), (3.0, 2.0), (10.0, 3.0), (100.0, 10.0), (1000.0, 30.0)]
_GATE = {
    "gaussian": [
        (0.06326438127517775, 0.06326438127517825),
        (0.43948442712788105, 0.439484427127881),
        (0.40700916757366234, 0.40700916757365835),
        (0.6305587540571271, 0.630558754057121),
        (0.7337071417822473, 0.7337071659667944),
        (0.8087458568338651, 0.8086630578741968),
    ],
    "uniform": [
        (0.06433328191027726, 0.0643334812545349),
        (0.4550473772330131, 0.455037648386634),
        (0.38306098230140606, 0.3830419182338919),
        (0.5798268284675422, 0.5798003882701317),
        (0.6349235048642766, 0.6348979848013006),
        (0.6952540635944129, 0.6952302237917607),
    ],
    "rayleigh": [
        (0.06434281880449215, 0.06434281043104238),
        (0.45366989779819183, 0.4536697848053488),
        (0.4170854587181285, 0.4170854959462763),
        (0.6379978337214741, 0.637997907227562),
        (0.7229279190525675, 0.7229280198775431),
        (0.7935245816330997, 0.7935196455442936),
    ],
    "lognormal": [
        (0.0631588514496453, None),
        (0.46789453475742976, None),
        (0.5093116867227611, None),
        (0.8109781171278149, None),
        (0.9641033618824781, None),
        (1.0773623537154298, None),
    ],
    "tabulated0": [
        (0.06432487476119085, 0.06432488733137973),
        (0.4516600922329884, 0.45165983936779325),
        (0.3590026127294947, 0.3590017936927863),
        (0.53353480815424, 0.5335339414822486),
        (0.5456375335528542, 0.5456370602353898),
        (0.590222036528027, 0.5902220464424689),
    ],
}


@pytest.mark.parametrize("name, point", [(name, i) for name in _GATE for i in range(6)],
                         ids=[f"{name}-P{P:g}-c{c:g}" for name in _GATE for P, c in _GATE_POINTS])
def test_estimate_within_the_accuracy_gate(name, point):
    (P, c), (ref, old) = _GATE_POINTS[point], _GATE[name][point]
    est, _ = mi_monte_carlo(ChannelParams(P=P, c=c), CATALOG[name], CostaAssignment(rcsi=False),
                            10 ** 4, 0)
    assert abs(est - ref) <= max(abs(old - ref) if old is not None else 0.0, 1e-6)


def test_reference_is_the_rule_on_more_nodes(monkeypatch):
    # one gate reference, rebuilt: 16 times the nodes of the same rule
    monkeypatch.setattr(gauss_mi, "_GRID_NODES", 16 * gauss_mi._GRID_NODES)
    est, _ = mi_monte_carlo(ChannelParams(P=3.0, c=2.0), CATALOG["tabulated0"],
                            CostaAssignment(rcsi=False), 10 ** 4, 0)
    assert est == pytest.approx(_GATE["tabulated0"][2][0], rel=0, abs=1e-12)
