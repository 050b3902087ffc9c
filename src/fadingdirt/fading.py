"""Catalog of fading laws: moments, entropy, entropy power, sampling.

All laws are univariate.  Discrete laws carry an explicit atom list; the
continuous families (Gaussian, uniform, Rayleigh, log-normal, tabulated
density) expose a pdf and closed-form or quadrature entropy.  Every law is
immutable after construction, apart from the memo of density values that
quadrature fills; samplers take an explicit seed.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
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
    malformed,
)

LN2 = math.log(2.0)
TWO_PI_E = 2.0 * math.pi * math.e
EULER_GAMMA = float(np.euler_gamma)

_ATOM_PROB_TOL = 1e-12
_DENSITY_NORM_TOL = 1e-9
_ENTROPY_QUAD_TOL = 1e-8
_MASS_TOL = 1e-6
_GEOMETRIC_TAIL = 1e-13


def _frozen_array(seq):
    """Read-only float array, so a law's cached arrays can be shared."""
    arr = np.array(seq, dtype=float)
    arr.flags.writeable = False
    return arr


def _xlog2x(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)


def _check_law(law, valid, needs):
    """A closed-form law's checks in order: its fields finite, its own
    condition `valid` (else ZeroVariance naming `needs`), then its mean,
    variance and support ends finite, where OverflowError counts as inf."""
    params = tuple(getattr(law, f.name) for f in fields(law))
    if not all(math.isfinite(v) for v in params):
        raise NonFinite(f"{law.kind} parameters must be finite, got {params!r}")
    if not valid:
        raise ZeroVariance(f"{law.kind} needs {needs}")
    try:
        moments = (law.mean, law.var, *law.support())
    except OverflowError:
        moments = (math.inf,)
    if not all(math.isfinite(v) for v in moments):
        raise NonFinite(f"{law.kind} law {params!r} has moments past the float range")


def _pair_columns(law, pairs):
    """The x and y columns of a law's ((x, y), ...) pairs as read-only float
    arrays; NonFinite, before any other check, unless every x and y is finite."""
    xs = _frozen_array([x for x, _ in pairs])
    ys = _frozen_array([y for _, y in pairs])
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.all():
        raise NonFinite(f"{law.kind} pair {pairs[np.argmin(finite)]!r} is not finite")
    return xs, ys


class FadingDistribution:
    """Common interface; concrete laws are the dataclasses below.

    Each law declares its JSON literal in its class statement: the `kind`,
    and the literal key of each field in field order.  A key left out of a
    literal takes the field's default; a field annotated `tuple` holds (x, y)
    pairs and is written as a list of [x, y] lists.
    """

    def __init_subclass__(cls, kind, keys, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind, cls.keys = kind, keys

    @property
    def is_discrete(self):
        return isinstance(self, Discrete)

    def pdf(self, x):
        raise NotImplementedError("no density for this law")

    @cached_property
    def _density_memo(self) -> dict:
        return {}

    def density(self, x: float) -> float:
        """p(x) as a float, evaluated once per distinct node x of this law.

        Quadratures over one support revisit most of their nodes (the
        inner-bound integrals of a sweep share them), and a converged
        bisection repeats its midpoint.  The memo lives on the instance: it
        goes with the law, and two equal laws keep separate memos.
        """
        memo = self._density_memo
        p = memo.get(x)
        if p is None:
            p = memo[x] = float(self.pdf(x))
        return p

    def kinks(self):
        """Interior points where the pdf is not smooth."""
        return ()

    def to_json(self) -> dict:
        """The law's JSON literal, as its class statement declares it."""
        literal = {"kind": self.kind}
        for key, f in zip(self.keys, fields(self)):
            value = getattr(self, f.name)
            literal[key] = [list(pair) for pair in value] if f.type == "tuple" else value
        return literal

    def label(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Discrete(FadingDistribution, kind="discrete", keys=("atoms",)):
    atoms: tuple  # ((value, prob), ...) with strictly increasing values

    def __post_init__(self):
        vals, probs = _pair_columns(self, self.atoms)
        if len(vals) == 0:
            raise ZeroVariance("empty atom list")
        if np.any(probs < 0):
            raise InvalidP("negative atom probability")
        if abs(probs.sum() - 1.0) > _ATOM_PROB_TOL:
            raise InvalidP(f"atom probabilities sum to {float(probs.sum())!r}, not 1")
        if np.any(np.diff(vals) <= 0):
            raise SpecInvalid("atom values must be strictly increasing")
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_probs", probs)

    @property
    def values(self):
        return self._values

    @property
    def probs(self):
        return self._probs

    @property
    def mean(self):
        return float(np.dot(self.values, self.probs))

    @property
    def var(self):
        v = self.values
        m = self.mean
        return float(np.dot((v - m) ** 2, self.probs))

    def entropy_bits(self):
        return float(-_xlog2x(self.probs).sum())

    def support(self):
        return (float(self.values[0]), float(self.values[-1]))

    def _affine(self, scale, shift):
        pairs = [(a * scale + shift, p) for a, p in self.atoms]
        pairs.sort()
        return Discrete(tuple(pairs))

    def _draw(self, rng, n):
        return rng.choice(self.values, size=n, p=self.probs)

    def label(self):
        return f"discrete{len(self.atoms)}"


@dataclass(frozen=True)
class Gaussian(FadingDistribution, kind="gaussian", keys=("mean", "var")):
    mu: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        _check_law(self, self.variance > 0, "var > 0")

    @property
    def mean(self):
        return self.mu

    @property
    def var(self):
        return self.variance

    def entropy_bits(self):
        return 0.5 * math.log2(TWO_PI_E * self.variance)

    def pdf(self, x):
        s2 = self.variance
        return np.exp(-((np.asarray(x) - self.mu) ** 2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)

    def support(self):
        s = math.sqrt(self.variance)
        return (self.mu - 12 * s, self.mu + 12 * s)

    def _affine(self, scale, shift):
        return Gaussian(self.mu * scale + shift, self.variance * scale * scale)

    def _draw(self, rng, n):
        return rng.normal(self.mu, math.sqrt(self.variance), size=n)


@dataclass(frozen=True)
class Uniform(FadingDistribution, kind="uniform", keys=("lo", "hi")):
    lo: float
    hi: float

    def __post_init__(self):
        _check_law(self, self.hi > self.lo, "hi > lo")

    @property
    def mean(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def var(self):
        return (self.hi - self.lo) ** 2 / 12.0

    def entropy_bits(self):
        return math.log2(self.hi - self.lo)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def support(self):
        return (self.lo, self.hi)

    def _affine(self, scale, shift):
        a, b = self.lo * scale + shift, self.hi * scale + shift
        return Uniform(min(a, b), max(a, b))

    def _draw(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=n)


@dataclass(frozen=True)
class Rayleigh(FadingDistribution, kind="rayleigh", keys=("sigma", "loc", "scale")):
    """A = scale * R + loc with R Rayleigh of parameter sigma."""

    sigma: float
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        # a sigma whose square underflows leaves the density dividing by 0
        _check_law(self, self.sigma > 0 and self.sigma * self.sigma > 0 and self.scale != 0,
                   "sigma > 0, sigma^2 > 0 and scale != 0")

    @property
    def mean(self):
        return self.loc + self.scale * self.sigma * math.sqrt(math.pi / 2)

    @property
    def var(self):
        return self.scale ** 2 * (2 - math.pi / 2) * self.sigma ** 2

    def entropy_bits(self):
        h_nats = 1 + math.log(self.sigma / math.sqrt(2)) + EULER_GAMMA / 2
        return h_nats / LN2 + math.log2(abs(self.scale))

    def pdf(self, x):
        r = (np.asarray(x, dtype=float) - self.loc) / self.scale
        s2 = self.sigma ** 2
        # past 40 sigma the exponent underflows to 0, so |r| stops there and
        # its square stays finite
        t = np.minimum(np.abs(r), 40 * self.sigma)
        out = np.where(r > 0, t / s2 * np.exp(-(t * t / (2 * s2))), 0.0)
        return out / abs(self.scale)

    def support(self):
        lo = self.loc
        hi = self.loc + self.scale * self.sigma * 12
        return (min(lo, hi), max(lo, hi))

    def _affine(self, scale, shift):
        return Rayleigh(self.sigma, self.loc * scale + shift, self.scale * scale)

    def _draw(self, rng, n):
        return self.loc + self.scale * rng.rayleigh(self.sigma, size=n)


@dataclass(frozen=True)
class LogNormal(FadingDistribution, kind="lognormal", keys=("mu", "sigma2", "loc", "scale")):
    """A = scale * exp(Z) + loc with Z ~ N(mu, sigma2)."""

    lmu: float = 0.0
    sigma2: float = 1.0
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        _check_law(self, self.sigma2 > 0 and self.scale != 0, "sigma2 > 0 and scale != 0")

    @property
    def mean(self):
        return self.loc + self.scale * math.exp(self.lmu + self.sigma2 / 2)

    @property
    def var(self):
        return self.scale ** 2 * (math.exp(self.sigma2) - 1) * math.exp(2 * self.lmu + self.sigma2)

    def entropy_bits(self):
        h_nats = 0.5 * math.log(2 * math.pi * math.e * self.sigma2) + self.lmu
        return h_nats / LN2 + math.log2(abs(self.scale))

    def pdf(self, x):
        r = (np.asarray(x, dtype=float) - self.loc) / self.scale
        s2 = self.sigma2
        with np.errstate(divide="ignore", invalid="ignore"):
            lr = np.log(np.where(r > 0, r, 1.0))
            out = np.where(
                r > 0,
                np.exp(-((lr - self.lmu) ** 2) / (2 * s2)) / (r * math.sqrt(2 * math.pi * s2)),
                0.0,
            )
        return out / abs(self.scale)

    def support(self):
        s = math.sqrt(self.sigma2)
        lo = self.loc + self.scale * math.exp(self.lmu - 14 * s)
        hi = self.loc + self.scale * math.exp(self.lmu + 14 * s)
        return (min(lo, hi, self.loc), max(lo, hi))

    def _affine(self, scale, shift):
        return LogNormal(self.lmu, self.sigma2, self.loc * scale + shift, self.scale * scale)

    def _draw(self, rng, n):
        return self.loc + self.scale * np.exp(rng.normal(self.lmu, math.sqrt(self.sigma2), size=n))


@dataclass(frozen=True)
class TabulatedDensity(FadingDistribution, kind="tabulated", keys=("grid",)):
    grid: tuple  # ((value, density), ...) with increasing values

    def __post_init__(self):
        xs, ds = _pair_columns(self, self.grid)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ds", ds)
        if len(xs) < 3:
            raise ZeroVariance("tabulated density needs at least 3 grid points")
        if np.any(np.diff(xs) <= 0):
            raise SpecInvalid("grid values must be strictly increasing")
        if np.any(ds < 0):
            raise InvalidP("negative density value")
        z = np.trapezoid(ds, xs)
        if abs(z - 1.0) > _DENSITY_NORM_TOL:
            raise InvalidP(f"tabulated density integrates to {float(z)!r}, not 1")

    @property
    def mean(self):
        xs, ds = self._xs, self._ds
        return float(np.trapezoid(xs * ds, xs))

    @property
    def var(self):
        xs, ds = self._xs, self._ds
        m = self.mean
        return float(np.trapezoid((xs - m) ** 2 * ds, xs))

    def pdf(self, x):
        return np.interp(np.asarray(x, dtype=float), self._xs, self._ds, left=0.0, right=0.0)

    def support(self):
        xs = self._xs
        return (float(xs[0]), float(xs[-1]))

    def entropy_bits(self):
        return entropy_bits_quadrature(self)

    def _affine(self, scale, shift):
        pairs = [(x * scale + shift, d / abs(scale)) for x, d in self.grid]
        pairs.sort()
        return TabulatedDensity(tuple(pairs))

    def kinks(self):
        return self._xs[1:-1]

    def _draw(self, rng, n):
        xs, ds = self._xs, self._ds
        cdf = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (ds[1:] + ds[:-1]) / 2.0)))
        cdf /= cdf[-1]
        u = rng.uniform(size=n)
        return np.interp(u, cdf, xs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def normalize_unit_variance(dist: FadingDistribution) -> FadingDistribution:
    """Affine image a -> (a - mean)/sqrt(var)."""
    m, v = dist.mean, dist.var
    if not (math.isfinite(m) and math.isfinite(v)):
        raise NonFinite("distribution has non-finite moments")
    if v <= 1e-15:
        raise ZeroVariance(f"variance {v!r} too small to normalize")
    scale = 1.0 / math.sqrt(v)
    return dist._affine(scale, -m * scale)


# what QUADPACK's nonzero return codes of qagse and qagpe mean; 6 is
# invalid input, raised rather than warned
_QUADPACK_CODES = {
    1: "subdivision limit reached",
    2: "roundoff error detected",
    3: "extremely bad integrand behaviour",
    4: "extrapolation did not converge",
    5: "integral probably divergent or slowly convergent",
}


def _quadpack():
    """QUADPACK's compiled extension from the installed scipy, loaded alone
    once per process under its own name, so that a later `import
    scipy.integrate` reuses it; importing the package would also load its
    optimize, sparse and special modules.  The only place the package names
    scipy."""
    name = "scipy.integrate._quadpack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy else None
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(root, "integrate") for root in roots or ()])
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError as exc:
            raise QuadratureFailure(f"cannot load {spec.origin}: {exc}") from exc
        sys.modules[name] = module
        return module
    raise QuadratureFailure(f"QUADPACK extension {name} not found in the installed scipy")


def integrate(dist: FadingDistribution, f, lo: float, hi: float, epsabs: float,
              epsrel: float = 1.49e-8, points=()):
    """(value, abserr) of the integral of f(x, p(x)) over the finite
    interval [lo, hi], lo <= hi, with breakpoints `points`, p the law's
    density read through `density`; f is not called where p <= 0.

    QUADPACK's qagse, or qagpe with the breakpoints inside (lo, hi), both
    with a limit of 400 + len(points) subintervals, called as `quad` calls
    them, so the results are `quad`'s bit for bit.  A nonzero return code
    is reported as a QuadratureWarning with the value still returned;
    invalid input (code 6) raises QuadratureFailure."""
    def integrand(x):
        p = dist.density(x)
        return f(x, p) if p > 0 else 0.0

    quadpack, limit = _quadpack(), 400 + len(points)
    if len(points):
        # the distinct interior breakpoints, then two slots qagpe fills with the ends
        inner = np.unique(points)
        inner = np.concatenate((inner[(lo < inner) & (inner < hi)], (0.0, 0.0)))
        value, abserr, ier = quadpack._qagpe(integrand, lo, hi, inner, (), 0, epsabs, epsrel, limit)
    else:
        value, abserr, ier = quadpack._qagse(integrand, lo, hi, (), 0, epsabs, epsrel, limit)
    if ier == 6:
        raise QuadratureFailure(f"QUADPACK rejected its input (code 6): epsabs {epsabs!r}, "
                                f"epsrel {epsrel!r}, limit {limit}")
    if ier:
        warnings.warn(f"QUADPACK code {ier} ({_QUADPACK_CODES[ier]}) on "
                      f"[{lo!r}, {hi!r}]: error estimate {abserr!r}, epsabs {epsabs!r}",
                      QuadratureWarning, stacklevel=2)
    return value, abserr


def check_mass(mass: float):
    """Raise QuadratureFailure unless a quadrature of the density over the
    support found the law's unit mass: an integrand that sits on a sliver of
    a wide support is otherwise missed with a small error estimate."""
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise QuadratureFailure(f"quadrature found mass {mass!r} over the support, not 1")


def entropy_bits_quadrature(dist: FadingDistribution) -> float:
    """Independent quadrature route: -integral of p log2 p over the support.

    Kept free of the closed forms so it can serve as their oracle.  The
    law's kinks are breakpoints: the error estimate on a piecewise-linear
    density is otherwise far above the tolerance.
    """
    if dist.is_discrete:
        raise DiscreteUnsupported("quadrature entropy applies to continuous laws")
    lo, hi = dist.support()
    kinks = dist.kinks()
    tol = _ENTROPY_QUAD_TOL
    val, err = integrate(dist, lambda x, p: -p * math.log2(p), lo, hi, tol * 0.1,
                         epsrel=1e-10, points=kinks)
    if err > tol:
        raise QuadratureFailure(f"entropy quadrature error {err!r} exceeds {tol!r}")
    check_mass(integrate(dist, lambda x, p: p, lo, hi, tol * 0.1, epsrel=1e-10, points=kinks)[0])
    return val


def entropy_power_alpha(dist: FadingDistribution) -> float:
    """Entropy power 2^(2h)/(2 pi e) of a continuous unit-variance law, in (0, 1]."""
    if dist.is_discrete:
        raise DiscreteUnsupported("entropy power is defined for continuous fading only")
    if abs(dist.var - 1.0) > 1e-9:
        raise NotUnitVariance(f"law must be unit variance, got {dist.var!r}")
    return 2.0 ** (2.0 * dist.entropy_bits()) / TWO_PI_E


def unit_rayleigh() -> Rayleigh:
    """Rayleigh law with unit variance: sigma^2 = 2/(4-pi)."""
    return Rayleigh(sigma=math.sqrt(2.0 / (4.0 - math.pi)))


def geometric_fading(p: float) -> Discrete:
    """Zero-mean unit-variance lattice law with geometric atom masses.

    Atoms sit at k_a + n*Delta with mass (1-p)^n p; Delta = p/sqrt(1-p) makes
    the variance one, k_a = -Delta(1-p)/p centres the law.  The infinite tail
    is truncated once its mass drops below 1e-13 and renormalized.
    """
    if not 0 < p < 1:
        raise InvalidP(f"p must be in (0,1), got {p!r}")
    delta = p / math.sqrt(1.0 - p)
    k_a = -delta * (1.0 - p) / p
    n_max = int(math.ceil(math.log(_GEOMETRIC_TAIL) / math.log(1.0 - p)))
    n = np.arange(n_max + 1)
    probs = (1.0 - p) ** n * p
    probs /= probs.sum()
    values = k_a + n * delta
    return Discrete(tuple(zip(values.tolist(), probs.tolist())))


def binomial_fading(N: int, p: float) -> Discrete:
    """Lattice law with binomial C(2N,n)(1-p)^n p^(2N-n) masses, centred and
    scaled to zero mean, unit variance."""
    if not isinstance(N, int) or N < 1:
        raise InvalidN(f"N must be an integer >= 1, got {N!r}")
    if not 0 < p < 1:
        raise InvalidP(f"p must be in (0,1), got {p!r}")
    n = np.arange(2 * N + 1)
    probs = np.array([math.comb(2 * N, k) for k in n]) * (1.0 - p) ** n * p ** (2 * N - n)
    probs /= probs.sum()
    # count variance 2Np(1-p); solve Delta from unit overall variance
    delta = 1.0 / math.sqrt(2 * N * p * (1.0 - p))
    k_a = -delta * 2 * N * (1.0 - p)  # centres E[n] = 2N(1-p)
    values = k_a + n * delta
    return Discrete(tuple(zip(values.tolist(), probs.tolist())))


def strong_support(M: int, c: float) -> Discrete:
    """Equiprobable support {0, D1, c D1, ..., c^(M-2) D1}, shifted to zero
    mean, with D1 the positive root of the unit-variance equation."""
    if not isinstance(M, int) or M < 2:
        raise InvalidM(f"M must be an integer >= 2, got {M!r}")
    if not c > 1:
        raise InvalidC(f"c must be > 1, got {c!r}")
    base = np.array([0.0] + [c ** j for j in range(M - 1)])
    # (D1^2/M) (1-c^(2M-2))/(1-c^2) - (D1/M (1-c^(M-1))/(1-c))^2 = 1
    d1 = 1.0 / math.sqrt(float(base.var()))
    values = base * d1
    values -= values.mean()
    probs = np.full(M, 1.0 / M)
    return Discrete(tuple(zip(values.tolist(), probs.tolist())))


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator of stream `stream` under `seed`, the package's only
    source of random draws; with no stream key it is the seed's root stream."""
    if seed < 0:
        raise SpecInvalid(f"seed must be >= 0, got {seed!r}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=stream))


def sample(dist: FadingDistribution, seed: int, n: int):
    """Deterministic sampler: same (dist, seed, n) gives the same stream."""
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n!r}")
    return dist._draw(seeded_rng(seed), int(n))


# ---------------------------------------------------------------------------
# JSON literals
# ---------------------------------------------------------------------------

_SHORTHAND = {
    "gaussian": lambda: Gaussian(0.0, 1.0),
    "uniform": lambda: Uniform(-math.sqrt(3.0), math.sqrt(3.0)),
    "rayleigh": lambda: normalize_unit_variance(unit_rayleigh()),
    "two-point": lambda: Discrete(((-1.0, 0.5), (1.0, 0.5))),
}


_KINDS = {law.kind: law for law in FadingDistribution.__subclasses__()}


def _read_field(f, value):
    """Field f of a law from its literal value: a tuple of float pairs, or a float."""
    if f.type == "tuple":
        return tuple((float(x), float(y)) for x, y in value)
    return float(value)


def parse_distribution(spec) -> FadingDistribution:
    """Build a law from a JSON object, JSON text, or a shorthand name.

    Text that is neither, a value that is not an object with a known kind,
    and a literal with a missing key, a key its law does not declare or a
    value of the wrong type raise SpecInvalid."""
    if isinstance(spec, FadingDistribution):
        return spec
    if isinstance(spec, str):
        name = spec.strip()
        if name in _SHORTHAND:
            return _SHORTHAND[name]()
        with malformed(f"law {name!r}, neither a shorthand ({', '.join(_SHORTHAND)}) nor JSON"):
            spec = json.loads(name)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecInvalid(f"not a distribution literal: {spec!r}")
    kind = spec["kind"]
    law = _KINDS.get(kind) if isinstance(kind, str) else None
    if law is None:
        raise SpecInvalid(f"unknown distribution kind {kind!r}")
    unknown = [key for key in spec if key != "kind" and key not in law.keys]
    if unknown:
        raise SpecInvalid(f"{kind!r} literal has no key {unknown[0]!r}; "
                          f"its keys are {', '.join(law.keys)}")
    with malformed(f"{kind!r} literal"):
        return law(**{f.name: _read_field(f, spec[key]) for key, f in zip(law.keys, fields(law))
                      if key in spec or f.default is MISSING})
