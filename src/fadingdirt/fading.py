"""Catalog of fading laws: moments, entropy, entropy power, sampling.

All laws are univariate.  Discrete laws carry an explicit atom list; the
continuous families (Gaussian, uniform, Rayleigh, log-normal, tabulated
density) expose a pdf and closed-form or quadrature entropy.  Every law is
immutable after construction; samplers take an explicit seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
_GEOMETRIC_TAIL = 1e-13


def _frozen_array(seq):
    """Read-only float array, so a law's cached arrays can be shared."""
    arr = np.array(seq, dtype=float)
    arr.flags.writeable = False
    return arr


def _xlog2x(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)


def _check_finite(kind, *params):
    if not all(math.isfinite(v) for v in params):
        raise NonFinite(f"{kind} parameters must be finite, got {params!r}")


class FadingDistribution:
    """Common interface; concrete laws are the dataclasses below."""

    @property
    def is_discrete(self):
        return isinstance(self, Discrete)

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def var(self) -> float:
        raise NotImplementedError

    def entropy_bits(self) -> float:
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError("no density for this law")

    def support(self):
        """(lo, hi) interval carrying essentially all probability mass."""
        raise NotImplementedError

    def kinks(self):
        """Interior points where the pdf is not smooth."""
        return ()

    def _affine(self, scale: float, shift: float) -> "FadingDistribution":
        raise NotImplementedError

    def _draw(self, rng, n: int):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Discrete(FadingDistribution):
    atoms: tuple  # ((value, prob), ...) with strictly increasing values

    def __post_init__(self):
        vals = _frozen_array([a for a, _ in self.atoms])
        probs = _frozen_array([p for _, p in self.atoms])
        if len(vals) == 0:
            raise ZeroVariance("empty atom list")
        if np.any(probs < 0):
            raise InvalidP("negative atom probability")
        if abs(probs.sum() - 1.0) > _ATOM_PROB_TOL:
            raise InvalidP(f"atom probabilities sum to {probs.sum()!r}, not 1")
        if np.any(np.diff(vals) <= 0):
            raise NonFinite("atom values must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise NonFinite("non-finite atom value")
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

    def to_json(self):
        return {"kind": "discrete", "atoms": [[a, p] for a, p in self.atoms]}

    def label(self):
        return f"discrete{len(self.atoms)}"


@dataclass(frozen=True)
class Gaussian(FadingDistribution):
    mu: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        _check_finite("gaussian", self.mu, self.variance)
        if not self.variance > 0:
            raise ZeroVariance("gaussian needs var > 0")

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

    def to_json(self):
        return {"kind": "gaussian", "mean": self.mu, "var": self.variance}


@dataclass(frozen=True)
class Uniform(FadingDistribution):
    lo: float
    hi: float

    def __post_init__(self):
        _check_finite("uniform", self.lo, self.hi)
        if not self.hi > self.lo:
            raise ZeroVariance("uniform needs hi > lo")

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

    def to_json(self):
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class Rayleigh(FadingDistribution):
    """A = scale * R + loc with R Rayleigh of parameter sigma."""

    sigma: float
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        _check_finite("rayleigh", self.sigma, self.loc, self.scale)
        if self.sigma <= 0 or self.scale == 0:
            raise ZeroVariance("rayleigh needs sigma > 0 and scale != 0")

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
        out = np.where(r > 0, r / s2 * np.exp(-np.minimum(r * r / (2 * s2), 745.0)), 0.0)
        return out / abs(self.scale)

    def support(self):
        lo = self.loc
        hi = self.loc + self.scale * self.sigma * 12
        return (min(lo, hi), max(lo, hi))

    def _affine(self, scale, shift):
        return Rayleigh(self.sigma, self.loc * scale + shift, self.scale * scale)

    def _draw(self, rng, n):
        return self.loc + self.scale * rng.rayleigh(self.sigma, size=n)

    def to_json(self):
        return {"kind": "rayleigh", "sigma": self.sigma, "loc": self.loc, "scale": self.scale}


@dataclass(frozen=True)
class LogNormal(FadingDistribution):
    """A = scale * exp(Z) + loc with Z ~ N(mu, sigma2)."""

    lmu: float
    sigma2: float
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        _check_finite("lognormal", self.lmu, self.sigma2, self.loc, self.scale)
        if self.sigma2 <= 0 or self.scale == 0:
            raise ZeroVariance("lognormal needs sigma2 > 0 and scale != 0")

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

    def to_json(self):
        return {
            "kind": "lognormal",
            "mu": self.lmu,
            "sigma2": self.sigma2,
            "loc": self.loc,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class TabulatedDensity(FadingDistribution):
    grid: tuple  # ((value, density), ...) with increasing values

    def __post_init__(self):
        xs = _frozen_array([x for x, _ in self.grid])
        ds = _frozen_array([d for _, d in self.grid])
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ds", ds)
        if len(xs) < 3:
            raise ZeroVariance("tabulated density needs at least 3 grid points")
        if np.any(np.diff(xs) <= 0):
            raise NonFinite("grid values must be strictly increasing")
        if np.any(ds < 0):
            raise InvalidP("negative density value")
        z = np.trapezoid(ds, xs)
        if abs(z - 1.0) > _DENSITY_NORM_TOL:
            raise InvalidP(f"tabulated density integrates to {z!r}, not 1")

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

    def to_json(self):
        return {"kind": "tabulated", "grid": [[x, d] for x, d in self.grid]}


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


def entropy_bits_quadrature(dist: FadingDistribution) -> float:
    """Independent quadrature route: -integral of p log2 p over the support.

    Kept free of the closed forms so it can serve as their oracle.  The
    law's kinks are handed to quad as breakpoints: its error estimate on a
    piecewise-linear density is otherwise far above the tolerance.
    """
    from scipy import integrate

    if dist.is_discrete:
        raise DiscreteUnsupported("quadrature entropy applies to continuous laws")
    lo, hi = dist.support()

    def integrand(x):
        p = float(dist.pdf(x))
        if p <= 0:
            return 0.0
        return -p * math.log2(p)

    kinks = dist.kinks()
    tol = _ENTROPY_QUAD_TOL
    val, err = integrate.quad(integrand, lo, hi, limit=400 + len(kinks), epsabs=tol * 0.1,
                              epsrel=1e-10, points=kinks if len(kinks) else None)
    if err > tol:
        raise QuadratureFailure(f"entropy quadrature error {err!r} exceeds {tol!r}")
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


def parse_distribution(spec) -> FadingDistribution:
    """Build a law from a JSON object, JSON text, or a shorthand name.

    Text that is neither, and a literal with a missing key or a value of the
    wrong type, raise SpecInvalid."""
    if isinstance(spec, FadingDistribution):
        return spec
    if isinstance(spec, str):
        name = spec.strip()
        if name in _SHORTHAND:
            return _SHORTHAND[name]()
        with malformed(f"law {name!r}, neither a shorthand ({', '.join(_SHORTHAND)}) nor JSON"):
            spec = json.loads(name)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise NonFinite(f"not a distribution literal: {spec!r}")
    kind = spec["kind"]
    with malformed(f"{kind!r} literal"):
        if kind == "discrete":
            return Discrete(tuple((float(a), float(p)) for a, p in spec["atoms"]))
        if kind == "gaussian":
            return Gaussian(float(spec.get("mean", 0.0)), float(spec.get("var", 1.0)))
        if kind == "uniform":
            return Uniform(float(spec["lo"]), float(spec["hi"]))
        if kind == "rayleigh":
            return Rayleigh(float(spec["sigma"]), float(spec.get("loc", 0.0)), float(spec.get("scale", 1.0)))
        if kind == "lognormal":
            return LogNormal(
                float(spec.get("mu", 0.0)),
                float(spec.get("sigma2", 1.0)),
                float(spec.get("loc", 0.0)),
                float(spec.get("scale", 1.0)),
            )
        if kind == "tabulated":
            return TabulatedDensity(tuple((float(x), float(d)) for x, d in spec["grid"]))
    raise NonFinite(f"unknown distribution kind {kind!r}")
