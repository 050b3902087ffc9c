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


def _resolve(params: ChannelParams, dist: FadingDistribution, asg: CostaAssignment):
    P1 = asg.split_delta * params.P
    P2 = params.P - P1
    if asg.inflation_k is None:
        if asg.rcsi:
            k = costa_inflation(P1, params.c, asg.a_target)
        else:
            k = k_star(replace(params, P=P1), dist.mean)
    else:
        k = asg.inflation_k
    return P1, P2, k


def costa_rate_exact(params: ChannelParams, dist: FadingDistribution,
                     asg: CostaAssignment) -> float:
    """Exact achievable rate (bits) of the assignment by covariance algebra.

    Each stage is a per-atom rate averaged over atoms: with RCSI the law's
    own, without it one atom that carries the law's mean and E[A^2], which
    is the Gaussian max-entropy route."""
    if asg.rcsi and not dist.is_discrete:
        raise DiscreteUnsupported("exact per-realization rate needs finite fading atoms")
    P1, P2, k = _resolve(params, dist, asg)
    c = params.c
    # (mass, fading value, c^2 A^2) of each atom
    if asg.rcsi:
        atoms = [(p, a, c * c * a * a) for a, p in zip(dist.values.tolist(), dist.probs.tolist())]
    else:
        atoms = [(1.0, dist.mean, c * c * (dist.var + dist.mean ** 2))]

    stage1 = float(sum(p * 0.5 * math.log2(1.0 + P2 / (1.0 + g + P1)) for p, _, g in atoms))
    if P1 <= 0:
        return stage1

    var_u = P1 + k * k
    if var_u < _VAR_MIN:
        raise SingularCovariance(f"var(U) = {var_u!r} too small")
    i_us = 0.5 * math.log2(var_u / P1)

    def i_yu(a, g):
        var_y = P1 + g + 1.0
        cov = P1 + k * c * a
        det = var_y * var_u - cov * cov
        if det < _VAR_MIN:
            raise SingularCovariance(f"singular (U,Y) covariance at a={a!r}")
        return 0.5 * math.log2(var_y * var_u / det)

    stage2 = max(0.0, float(sum(p * i_yu(a, g) for p, a, g in atoms)) - i_us)
    return stage1 + stage2


# ---------------------------------------------------------------------------
# Monte Carlo estimation over the exact Gaussian mixture
# ---------------------------------------------------------------------------

_N_STREAMS = 16
_GRID_POINTS = 401
_GRID_MASS_TOL = 0.01  # the end weights of np.gradient alone leave 0.25% on a uniform law
# doubles of scratch per scored chunk (512 KiB): one per atom in the
# (samples x atoms) buffer of a mixture without RCSI; with it, a sample's
# columns, z draw and temporaries hold about 14, so a chunk has 1/16 as many rows
_CHUNK_DOUBLES = 2 ** 16
_DRAW_ROOM = 1e6  # room left under the float range for the squares of normal draws


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


def _log_mixture(buf, y, scale, offset, u, mean_coef):
    """log sum_a exp(offset_a + scale_a * (y - mean_coef_a * u)^2) for each
    sample, with scale = -1/(2 var) and offset = log w - log(2 pi var)/2 per
    atom: the log-density of a Gaussian mixture.  A scalar mean_coef is one
    every atom shares; 0.0 gives the mean-zero mixture, as y - 0.0 * u is y.

    Works in place in the first len(y) rows of buf, a (samples x atoms)
    scratch buffer: square, scale, add the offsets, shift each row by its
    max, exponentiate and sum.  A deviation the atoms share is formed and
    squared once per sample.  No row's result depends on the rows scored
    with it.
    """
    b = buf[:len(y)]
    if np.ndim(mean_coef) == 0:
        np.einsum("i,j->ij", np.square(y - mean_coef * u), scale, out=b)
    else:
        np.einsum("i,j->ij", u, mean_coef, out=b)
        np.subtract(y[:, None], b, out=b)
        np.square(b, out=b)
        np.multiply(b, scale, out=b)
    np.add(b, offset, out=b)
    top = b.max(axis=1)
    np.subtract(b, top[:, None], out=b)
    np.exp(b, out=b)
    return top + np.log(b.sum(axis=1))


def _check_range(params: ChannelParams, P1: float, k: float, a_min: float, a_max: float):
    """NonFinite unless each second moment the scoring forms at fading values
    in [a_min, a_max] leaves room for squared normal draws.  Python floats
    overflow to inf without a numpy warning, so this runs before any moment
    is formed; the moments are convex in a, so the range's ends bound them."""
    P, c = params.P, params.c
    scales = [P1 + k * k, c * c]
    for ca in (c * a_min, c * a_max):
        scales += [P + ca * ca + 1.0, (P1 + ca * k) * (P1 + ca * k)]
    if not all(math.isfinite(m * _DRAW_ROOM) for m in scales):
        raise NonFinite(f"a second moment of U or Y overflows at P = {P!r}, c = {c!r}, "
                        f"k = {k!r} and fading values in [{a_min!r}, {a_max!r}]")


def mi_monte_carlo(params: ChannelParams, dist: FadingDistribution,
                   asg: CostaAssignment, n: int, seed: int):
    """Estimate the rate of decoding X2 first and then U with X2 stripped,
    I(X2, U; Y) - I(U; S) (given the fading A with receiver side
    information), in bits; returns (estimate, stderr).

    Each sample's contribution is a log of exact density ratios,
    log p(y | u, x2) - log p(y) - [log p(u | s) - log p(u)]: the laws of Y
    given (U, X2) and of Y are Gaussian mixtures over the fading atoms with
    closed-form component moments (single Gaussians given A), and the (U, S)
    pair is exactly jointly Gaussian.  At k = 0, U = X1 and the U-term is
    exactly 0, so it is not formed.  Samples are partitioned into fixed
    independent streams whose running moments are merged, so the result
    depends on (seed, n) only.  A stream holds whole, in buffers the streams
    share, only s and x1 (and x2 at split < 1) and its fading draw: a
    discrete law's atom index, whose uniforms fill x1's buffer before x1 is
    drawn, or a density's values.  z, its last draw, comes a chunk at a
    time, and each chunk's ratios overwrite the slice of s it has read.  Its
    ratios are scored in chunks of `_CHUNK_DOUBLES` doubles of scratch.

    The scoring reads per-atom columns: c a and, with side information,
    the posterior-mean coefficient, 2 v and 2 v_y of the two Gaussians and
    log(v_y / v) / 2.  A discrete law builds them once per call, draws one
    atom index per sample and gathers them per chunk; a density builds them
    per chunk from the drawn values.
    """
    n = int(n)
    if n < 10 ** 4:
        raise InsufficientSamples(f"need n >= 1e4, got {n!r}")
    rngs = [seeded_rng(seed, j) for j in range(_N_STREAMS)]
    P1, P2, k = _resolve(params, dist, asg)
    if P1 < _VAR_MIN:
        raise SingularCovariance("Monte Carlo estimator needs power on the Costa codeword")
    c, P = params.c, params.P
    var_u = P1 + k * k

    def moments(a):
        """Posterior mean coefficient and variance of Y - X2 given U at fading a."""
        coef = (P1 + c * a * k) / var_u
        return coef, P1 + c * c * a * a - (P1 + c * a * k) ** 2 / var_u + 1.0

    # score(cols, y1, y, u, mix) is log p(y1 | u[, a]) - log p(y[, a]) per
    # sample of a chunk, with cols = columns(a), y1 = y - x2 and mix a
    # (rows x width) scratch buffer
    if asg.rcsi:
        # reads only the drawn fading values
        _check_range(params, P1, k, *dist.support())
        rows, width = max(1, _CHUNK_DOUBLES // 16), 0

        def columns(a):
            coef, v = moments(a)
            vy = P + c * c * a * a + 1.0
            return c * a, coef, 2.0 * v, 2.0 * vy, 0.5 * np.log(vy / v)

        def score(cols, y1, y, u, mix):
            _, coef, two_v, two_vy, half_log = cols
            return half_log - (y1 - coef * u) ** 2 / two_v + y * y / two_vy
    else:
        # reads the law through its atoms or a grid
        av, aw = _mixture_atoms(dist)
        _check_range(params, P1, k, float(np.min(av)), float(np.max(av)))
        coef, v = moments(av)
        if (coef == coef[0]).all():  # k = 0: every atom's deviation is y1 - coef u
            coef = coef[0]
        vy = P + c * c * av * av + 1.0
        log_aw = np.log(aw)
        given_u = (-0.5 / v, log_aw - 0.5 * np.log(2.0 * math.pi * v))
        marginal = (-0.5 / vy, log_aw - 0.5 * np.log(2.0 * math.pi * vy))
        rows, width = max(1, _CHUNK_DOUBLES // len(av)), len(av)

        def columns(a):
            return (c * a,)

        def score(cols, y1, y, u, mix):
            return (_log_mixture(mix, y1, *given_u, u, coef)
                    - _log_mixture(mix, y, *marginal, u, 0.0))
    if dist.is_discrete:  # columns per atom, gathered by each sample's atom index
        table = columns(dist.values)

        def gather(index):
            index = index.astype(np.intp, copy=False)
            return [col.take(index) for col in table]
    else:
        gather = columns
    # log(P1 / var_u) / 2 from the log-densities of U given S and of U
    lr_u = 0.5 * math.log(P1 / var_u)

    counts = np.full(_N_STREAMS, n // _N_STREAMS)
    counts[: n % _N_STREAMS] += 1
    # draw buffers shared by the streams; a stream of nj samples uses [:nj]
    # of each whole-stream one, and each chunk a prefix of z's
    size = int(counts[0])
    s_buf, x1_buf = np.empty(size), np.empty(size)
    x2_buf = np.empty(size if P2 > 0 else 0)
    z_buf = np.empty(min(rows, size))
    # Welford/Chan merge of each stream's moments as it finishes
    mean, m2, cnt = 0.0, 0.0, 0.0
    for j, rng in enumerate(rngs):
        nj = int(counts[j])
        if dist.is_discrete:  # the uniforms fill x1's buffer before x1 is drawn
            drawn = dist._draw_index(rng, nj, x1_buf[:nj])
        else:
            drawn = dist._draw(rng, nj)
        # made after the law's draw, so that the draw's temporaries and this
        # buffer are never held at once
        mix = np.empty((rows, width))
        s = rng.standard_normal(out=s_buf[:nj])
        x1 = rng.standard_normal(out=x1_buf[:nj])
        x1 *= math.sqrt(P1)
        if P2 > 0:
            x2 = rng.standard_normal(out=x2_buf[:nj])
            x2 *= math.sqrt(P2)
        ratio = s  # each chunk's ratios overwrite the slice of s it has read
        for lo in range(0, nj, rows):
            cut = slice(lo, lo + rows)
            # the generator fills its draws in sequence, so z drawn a chunk at
            # a time holds the values of one call
            z = rng.standard_normal(out=z_buf[:min(rows, nj - lo)])
            cols = gather(drawn[cut])
            u = x1[cut] + k * s[cut] if k else x1[cut]
            y1 = x1[cut] + cols[0] * s[cut] + z
            y = y1 + x2[cut] if P2 > 0 else y1
            r = score(cols, y1, y, u, mix)
            if k:  # at k = 0, U = X1 and the U-term is exactly 0
                r += x1[cut] * x1[cut] / (2.0 * P1) - u * u / (2.0 * var_u) + lr_u
            np.divide(r, LN2, out=ratio[cut])
        del drawn, mix  # before the next stream draws its own

        mean_j = ratio.mean()
        np.subtract(ratio, mean_j, out=ratio)
        np.square(ratio, out=ratio)
        delta = mean_j - mean
        tot = cnt + nj
        mean += delta * nj / tot
        m2 += ratio.sum() + delta * delta * cnt * nj / tot
        cnt = tot
    mean, se = float(mean), math.sqrt(m2 / (cnt - 1.0) / cnt)
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NonFinite(f"Monte Carlo estimate {mean!r} +- {se!r} is not finite")
    return mean, se
