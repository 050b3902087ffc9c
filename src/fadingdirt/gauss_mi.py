"""Independent mutual-information oracle for Costa-style Gaussian assignments.

The transmit power P is split between a Costa-precoded codeword X1 (fraction
`split_delta`) and a treat-as-noise codeword X2.  The receiver decodes X2
first, treating everything else as noise, then strips it and decodes the
auxiliary U = X1 + k*S.  All second moments follow exactly from the linear
model, so the per-realization rates are log-determinant ratios of small
covariance matrices — an evaluation route independent of the closed-form
bound expressions it is used to check.

For fading known at the receiver the rate is exact.  Without receiver side
information the Gaussian covariance value is the max-entropy lower bound on
the true mixture mutual information; `mi_monte_carlo` estimates the true
value from exact Gaussian-mixture density ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds_norcsi import ChannelParams, k_star
from .errors import (
    DiscreteUnsupported,
    InsufficientSamples,
    NonFinite,
    QuadratureFailure,
    SingularCovariance,
)
from .fading import LN2, FadingDistribution, seeded_rng

_VAR_MIN = 1e-14


@dataclass(frozen=True)
class CostaAssignment:
    """Auxiliary-variable strategy: precode against fading value a_target
    with inflation k (None = the MMSE-optimal default), putting a
    `split_delta` fraction of the power on the precoded codeword."""

    a_target: float = 0.0
    inflation_k: float = None
    split_delta: float = 1.0
    rcsi: bool = True

    def __post_init__(self):
        if not 0.0 <= self.split_delta <= 1.0:
            raise SingularCovariance(
                f"split_delta must be in [0,1], got {self.split_delta!r}")
        if not all(math.isfinite(v) for v in (self.a_target, self.inflation_k or 0.0)):
            raise NonFinite(f"a_target {self.a_target!r} and inflation k "
                            f"{self.inflation_k!r} must be finite")


def costa_inflation(P1: float, c: float, a_target: float) -> float:
    """MMSE inflation coefficient for power P1 against dirt gain c*a_target."""
    return P1 / (P1 + 1.0) * c * a_target


def _resolve(params: ChannelParams, asg: CostaAssignment):
    P1 = asg.split_delta * params.P
    P2 = params.P - P1
    if asg.inflation_k is None:
        if asg.rcsi:
            k = costa_inflation(P1, params.c, asg.a_target)
        else:
            k = k_star(replace(params, P=P1))
    else:
        k = asg.inflation_k
    return P1, P2, k


def costa_rate_exact(params: ChannelParams, dist: FadingDistribution,
                     asg: CostaAssignment) -> float:
    """Exact achievable rate (bits) of the assignment by covariance algebra."""
    if asg.rcsi and not dist.is_discrete:
        raise DiscreteUnsupported("exact per-realization rate needs finite fading atoms")
    P1, P2, k = _resolve(params, asg)
    c = params.c
    ea2 = dist.var + dist.mean ** 2

    stage1 = 0.0
    if P2 > 0:
        stage1 = 0.5 * math.log2(1.0 + P2 / (1.0 + c * c * ea2 + P1))
    if P1 <= 0:
        return stage1

    var_u = P1 + k * k
    if var_u < _VAR_MIN:
        raise SingularCovariance(f"var(U) = {var_u!r} too small")
    i_us = 0.5 * math.log2(var_u / P1)

    def i_yu(a):
        var_y = P1 + c * c * a * a + 1.0
        cov = P1 + k * c * a
        det = var_y * var_u - cov * cov
        if det < _VAR_MIN:
            raise SingularCovariance(f"singular (U,Y) covariance at a={a!r}")
        return 0.5 * math.log2(var_y * var_u / det)

    if asg.rcsi:
        avg = float(sum(p * i_yu(a) for a, p in zip(dist.values, dist.probs)))
        stage2 = max(0.0, avg - i_us)
    else:
        # Gaussian max-entropy route: aggregate second moments over A
        var_y = P1 + c * c * ea2 + 1.0
        cov = P1 + k * c * dist.mean
        det = var_y * var_u - cov * cov
        if det < _VAR_MIN:
            raise SingularCovariance("singular aggregate (U,Y) covariance")
        stage2 = max(0.0, 0.5 * math.log2(var_y * var_u / det) - i_us)
    return stage1 + stage2


# ---------------------------------------------------------------------------
# Monte Carlo estimation over the exact Gaussian mixture
# ---------------------------------------------------------------------------

_N_STREAMS = 16
_GRID_POINTS = 401
_GRID_MASS_TOL = 0.01  # the end weights of np.gradient alone leave 0.25% on a uniform law
_CHUNK = 256  # samples per (chunk x atoms) buffer of `_log_mixture`


def _mixture_atoms(dist: FadingDistribution):
    """Atom values/weights representing the fading law in the mixture
    densities: exact for discrete laws, trapezoid quadrature otherwise."""
    if dist.is_discrete:
        return dist.values, dist.probs
    lo, hi = dist.support()
    xs = np.linspace(lo, hi, _GRID_POINTS)
    w = np.asarray(dist.pdf(xs), dtype=float)
    w = w * np.gradient(xs)
    mass = float(w.sum())
    if not abs(mass - 1.0) <= _GRID_MASS_TOL:
        raise QuadratureFailure(f"the {_GRID_POINTS}-node grid over the support carries "
                                f"mass {mass!r} of the law, not 1")
    w /= mass
    keep = w > 1e-300
    return xs[keep], w[keep]


def _log_normal_pdf(x, mean, var):
    return -0.5 * np.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def _log_mixture(y, mean_coef, u, var, log_w):
    """log sum_a w_a N(y; mean_coef_a * u, var_a) for each sample.

    Works through `_CHUNK` samples at a time in one (chunk x atoms) buffer,
    in place: subtract the means, square, scale, add the log weights, shift
    each row by its max, exponentiate and sum.  Memory stays bounded in n,
    and no row's result depends on the chunk it falls in.
    """
    scale = -0.5 / var
    offset = log_w - 0.5 * np.log(2.0 * math.pi * var)
    out = np.empty(len(y))
    buf = np.empty((min(_CHUNK, len(y)), len(offset)))
    for lo in range(0, len(y), _CHUNK):
        hi = min(lo + _CHUNK, len(y))
        b = buf[: hi - lo]
        np.multiply(u[lo:hi, None], mean_coef, out=b)
        np.subtract(y[lo:hi, None], b, out=b)
        np.square(b, out=b)
        np.multiply(b, scale, out=b)
        np.add(b, offset, out=b)
        top = b.max(axis=1)
        np.subtract(b, top[:, None], out=b)
        np.exp(b, out=b)
        out[lo:hi] = top + np.log(b.sum(axis=1))
    return out


def mi_monte_carlo(params: ChannelParams, dist: FadingDistribution,
                   asg: CostaAssignment, n: int, seed: int):
    """Estimate I(Y;U) - I(U;S) (or I(Y,A;U) - I(U;S) with receiver side
    information) in bits; returns (estimate, stderr).

    Each sample's contribution is a log of exact density ratios: the law of Y
    given U (and of Y itself) is a Gaussian mixture over the fading atoms
    with closed-form component moments, and the (U, S) pair is exactly
    jointly Gaussian.  Samples are partitioned into fixed independent
    streams whose running moments are merged, so the result depends on
    (seed, n) only.
    """
    n = int(n)
    if n < 10 ** 4:
        raise InsufficientSamples(f"need n >= 1e4, got {n!r}")
    rngs = [seeded_rng(seed, j) for j in range(_N_STREAMS)]
    P1, P2, k = _resolve(params, asg)
    if P1 < _VAR_MIN:
        raise SingularCovariance("Monte Carlo estimator needs power on the Costa codeword")
    c = params.c
    P = params.P
    var_u = P1 + k * k

    av, aw = _mixture_atoms(dist)
    # Python floats overflow to inf without a numpy warning, before any draw
    top = float(np.max(np.abs(av)))
    if not math.isfinite(P + c * c * top * top + 1.0):
        raise NonFinite(f"the variance P + c^2 a^2 + 1 overflows at the atom |a| = {top!r}")

    def moments(a):
        """Posterior mean coefficient and variance of Y given U at fading a."""
        coef = (P1 + c * a * k) / var_u
        v = P1 + c * c * a * a - (P1 + c * a * k) ** 2 / var_u + P2 + 1.0
        return coef, v

    coef_g, v_g = moments(av)
    vy_g = P + c * c * av * av + 1.0
    log_aw = np.log(aw)

    counts = np.full(_N_STREAMS, n // _N_STREAMS)
    counts[: n % _N_STREAMS] += 1

    means = np.zeros(_N_STREAMS)
    m2s = np.zeros(_N_STREAMS)
    for j, rng in enumerate(rngs):
        nj = int(counts[j])
        a = dist._draw(rng, nj)
        s = rng.standard_normal(nj)
        x1 = math.sqrt(P1) * rng.standard_normal(nj)
        x2 = math.sqrt(P2) * rng.standard_normal(nj) if P2 > 0 else 0.0
        z = rng.standard_normal(nj)
        u = x1 + k * s
        y = x1 + x2 + c * a * s + z

        if asg.rcsi:
            coef, v = moments(a)
            lp_y_u = _log_normal_pdf(y, coef * u, v)
            lp_y = _log_normal_pdf(y, 0.0, P + c * c * a * a + 1.0)
        else:
            lp_y_u = _log_mixture(y, coef_g, u, v_g, log_aw)
            lp_y = _log_mixture(y, 0.0, u, vy_g, log_aw)
        lp_u_s = _log_normal_pdf(u, k * s, P1)
        lp_u = _log_normal_pdf(u, 0.0, var_u)
        contrib = (lp_y_u - lp_y - lp_u_s + lp_u) / LN2
        means[j] = contrib.mean()
        m2s[j] = ((contrib - means[j]) ** 2).sum()

    # Welford/Chan merge of the per-stream moments
    mean, m2, cnt = 0.0, 0.0, 0.0
    for j in range(_N_STREAMS):
        nj = float(counts[j])
        delta = means[j] - mean
        tot = cnt + nj
        mean += delta * nj / tot
        m2 += m2s[j] + delta * delta * cnt * nj / tot
        cnt = tot
    mean, se = float(mean), math.sqrt(m2 / (cnt - 1.0) / cnt)
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NonFinite(f"Monte Carlo estimate {mean!r} +- {se!r} is not finite")
    return mean, se
