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
from .fading import LN2, FadingDistribution, seeded_rng, sorted_distinct

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


def _residual_var(P1: float, k: float, ca: float, var_u: float):
    """var(Y - X2 | U) at fading gain ca = c a, det(U, Y - X2) / var(U) with
    nothing subtracted, so at least 1.  P1 / var(U) <= 1 comes first, so only
    (k - ca)^2 can overflow, and d * d reads inf where a float's ** raises."""
    d = k - ca
    return 1.0 + P1 / var_u * (d * d)


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
    # (mass, gain c a) of each atom; the no-RCSI atom adds c^2 var(A), 0 at
    # var(A) = 0 whatever c, to both var(Y) and var(Y - X2 | U)
    atoms, spread = [(1.0, c * dist.mean)], c * (c * dist.var)
    if asg.rcsi:
        atoms = [(p, c * a) for a, p in zip(dist.values.tolist(), dist.probs.tolist())]
        spread = 0.0

    stage1 = float(sum(p * 0.5 * math.log2(1.0 + P2 / (1.0 + ca * ca + spread + P1))
                       for p, ca in atoms))
    if P1 <= 0:
        return stage1

    var_u = P1 + k * k
    if var_u < _VAR_MIN:
        raise SingularCovariance(f"var(U) = {var_u!r} too small")
    # I(U;Y) - I(U;S), the average of 1/2 log2 var(Y) / var(Y - X2 | U) less
    # 1/2 log2 var(U) / P1, checked before the clamp, which would read a nan
    # as 0 bits; log2 P1 comes after, as a subnormal P1 is no overflow
    stage2 = 0.5 * (sum(p * (math.log2(P1 + ca * ca + spread + 1.0)
                             - math.log2(_residual_var(P1, k, ca, var_u) + spread))
                        for p, ca in atoms) - math.log2(var_u))
    if not math.isfinite(stage2):
        raise NonFinite(f"var(U) = {var_u!r}, var(Y) or (k - c a)^2 overflows")
    return stage1 + max(0.0, stage2 + 0.5 * math.log2(P1))


# ---------------------------------------------------------------------------
# Monte Carlo estimation over the exact Gaussian mixture
# ---------------------------------------------------------------------------

_N_STREAMS = 16
_GRID_NODES = 96
# the mass a density's grid may miss: its end weights are true trapezoid
# halves, so what is left is the rule's own error (at most 5e-5 on the
# catalog laws for c in [0, 1e3], on the seeded tabulated law)
_GRID_MASS_TOL = 1e-3
_GRID_GRADE = 0.9  # the steps in s shrink to 1 - 0.9 of a panel's step at its ends
_GRID_LAW_SHARE = 3.0  # the law term's integral, about a unit Gaussian's of p^(1/3) (3.2)
# the fine grid of the map: intervals per panel before refinement, the share
# of the total node density that linear interpolation may miss over one
# interval, and the node-density evaluations refinement may spend
_FINE_SEED, _FINE_TOL, _FINE_EVALS = 16, 1e-5, 2000
_GAUSS3 = (np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)]), np.array([5.0, 8.0, 5.0]) / 9.0)
# doubles of scratch per scored chunk (512 KiB); with RCSI a sample's
# columns, z draw and temporaries hold about 14, so a chunk has 1/16 as many
# rows; a mixture's sample holds one per atom in the (samples x atoms)
# buffer plus about 12 (its column, u, y1, y, z, the two mixtures' results
# and the U-term's temporaries)
_CHUNK_DOUBLES = 2 ** 16
_MIXTURE_ROW_DOUBLES = 12
_DRAW_ROOM = 1e6  # room left under the float range for the squares of normal draws


def _density_grid(dist: FadingDistribution, c: float, variances):
    """Nodes and weights of a mapped trapezoid rule for the density p of
    `dist`, before the mass check (Trefethen and Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 56(3), 2014).

    The nodes sit at steps of s, the integral of the node density
        rho(a) = 3 p(a)^(1/3) / L + c / sqrt(v(a)) + c / sqrt(v_y(a)) + 1e-3 / (hi - lo).
    The law term follows the bulk: L is the integral of p^(1/3), so the term
    integrates to `_GRID_LAW_SHARE` on any scale.  The width term follows the
    mixture components: variances(a) gives v and v_y, the variances of the
    two Gaussians scored at fading a, each at least 1, and the term counts
    their e-folds.  The floor keeps s increasing where both vanish.

    The support ends and the law's kinks end the panels.  Each panel gets a
    share of the steps in proportion to its integral of rho, at least four,
    and its steps shrink toward its ends, s = T phi(t) with phi(t) = t -
    g sin(2 pi t) / (2 pi) and g = `_GRID_GRADE`: that damps the end error of
    a density that does not vanish there (a jump, Rayleigh's edge, a
    tabulated kink).  A node's weight is p / rho times its step in s, half
    steps at the panel ends.

    s is integrated on a fine grid by 3-point Gauss-Legendre: `_FINE_SEED`
    intervals per panel and 33 points over the law's mean +- 8 sd (they find
    the bulk of a log-normal law, whose support reaches e^(14 sigma) times its
    median), each interval halved
    while rho at its midpoint misses linear interpolation by more than
    `_FINE_TOL` of the total, within `_FINE_EVALS` evaluations.  Each node is
    solved from its s by Newton steps on the same rule, so the weights read
    the rho that placed the nodes.  A midpoint can miss a peak of rho, and
    the rule's s need not increase over it: the fine intervals of nodes that
    do not increase are halved again, and QuadratureFailure is raised if the
    evaluations run out first.
    """
    lo, hi = dist.support()
    if not hi > lo:
        raise QuadratureFailure(f"the support [{lo!r}, {hi!r}] of the law has no width "
                                "at float resolution")
    edges = np.array(sorted({lo, hi, *(float(x) for x in dist.kinks() if lo < x < hi)}))
    floor = 1e-3 / (hi - lo)

    def terms(a):
        """p, p^(1/3) and the width term at a."""
        p = np.asarray(dist.pdf(a), dtype=float)
        v, vy = variances(a)
        return p, np.cbrt(p), c / np.sqrt(v) + c / np.sqrt(vy)

    def density(a):
        """p and rho at a."""
        p, law, width = terms(a)
        return p, law_scale * law + width + floor

    def integral(x0, x1):
        """The integral of rho over each [x0, x1]."""
        half = (x1 - x0) / 2.0
        nodes3, weights3 = _GAUSS3
        return half * (density((x0 + x1)[:, None] / 2.0 + half[:, None] * nodes3)[1] @ weights3)

    bulk = dist.mean + math.sqrt(dist.var) * np.linspace(-8.0, 8.0, 33)
    xs = sorted_distinct(np.concatenate([np.linspace(x0, x1, _FINE_SEED + 1)
                                         for x0, x1 in zip(edges[:-1], edges[1:])]
                                        + [bulk[(lo < bulk) & (bulk < hi)]]))

    def place(xs, rho):
        """The nodes, each one's fine interval and its step in s."""
        s_fine = np.concatenate(([0.0], np.cumsum(integral(xs[:-1], xs[1:]))))
        # each node's panel, its s and its step in s; a panel's last node is the
        # next one's first, and its step is half of each of their end steps
        s_edges = s_fine[np.searchsorted(xs, edges)]
        spans = np.diff(s_edges)
        steps = np.maximum(4, np.rint((_GRID_NODES - 1) * spans / s_fine[-1])).astype(int)
        ends = np.concatenate(([0], np.cumsum(steps)))
        panel = np.repeat(np.arange(len(steps)), steps)
        t = 2.0 * math.pi * (np.arange(len(panel)) - ends[panel]) / steps[panel]
        s = np.append(s_edges[panel]
                      + spans[panel] * (t - _GRID_GRADE * np.sin(t)) / (2.0 * math.pi),
                      s_edges[-1])
        step = np.append(spans[panel] / steps[panel] * (1.0 - _GRID_GRADE * np.cos(t)), 0.0)
        half = spans / steps * (1.0 - _GRID_GRADE) / 2.0
        step[ends] = np.append(half, 0.0) + np.append(0.0, half)

        j = np.clip(np.searchsorted(s_fine, s, side="right") - 1, 0, len(xs) - 2)
        x0, x1 = xs[j], xs[j + 1]
        a = np.minimum(x0 + (s - s_fine[j]) / rho[j], x1)
        for _ in range(3):  # Newton from a guess within the right fine interval
            a = np.clip(a - (s_fine[j] + integral(x0, a) - s) / density(a)[1], x0, x1)
        a[ends] = edges
        return a, j, step

    _, law, width = terms(xs)
    active, spent, force = np.ones(len(xs) - 1, bool), len(xs), False
    while True:
        # L as the fine grid finds it so far
        h = np.diff(xs)
        law_total = np.dot(h, law[:-1] + law[1:]) / 2.0
        law_scale = _GRID_LAW_SHARE / law_total if law_total > 0 else 0.0
        rho = law_scale * law + width + floor
        if active.any() and spent < _FINE_EVALS:
            mid = (xs[:-1] + xs[1:])[active] / 2.0
            _, law_mid, width_mid = terms(mid)
            spent += len(mid)
            halve = force | (np.abs(law_scale * law_mid + width_mid + floor
                                    - (rho[:-1] + rho[1:])[active] / 2.0)
                             * h[active] > _FINE_TOL * np.dot(h, rho[:-1] + rho[1:]) / 2.0)
            order = np.argsort(np.concatenate((xs, mid)))
            xs, law, width = (np.concatenate(pair)[order]
                              for pair in ((xs, mid), (law, law_mid), (width, width_mid)))
            halved = np.concatenate((np.zeros(len(active) + 1, bool), halve))[order]
            active, force = halved[:-1] | halved[1:], False
            continue
        a, j, step = place(xs, rho)
        # past a peak of rho that a midpoint missed, s need not increase
        bad = np.flatnonzero(np.diff(a) <= 0)
        if len(bad) == 0:
            break
        if spent >= _FINE_EVALS:
            raise QuadratureFailure(f"the grid's nodes do not increase near a = "
                                    f"{float(a[bad[0]])!r} after {spent} evaluations "
                                    "of its node density")
        active = np.zeros(len(xs) - 1, bool)
        active[j[bad]] = active[j[bad + 1]] = True
        force = True
    p, rho = density(a)
    return a, p / rho * step


def _mixture_atoms(dist: FadingDistribution, c: float, variances):
    """Atom values and weights that represent the fading law in the mixture
    densities: a discrete law's own atoms, or for a density the mapped
    trapezoid rule of `_density_grid` on about `_GRID_NODES` nodes, placed for
    gain c and the component variances (v, v_y) = variances(a).  A density's
    weights are divided by their sum, which must be within `_GRID_MASS_TOL`
    of 1.  Atoms and nodes of zero weight are dropped."""
    if dist.is_discrete:
        keep = dist.probs > 0
        return dist.values[keep], dist.probs[keep]
    xs, w = _density_grid(dist, c, variances)
    mass = float(w.sum())
    if not abs(mass - 1.0) <= _GRID_MASS_TOL:
        raise QuadratureFailure(f"the {len(xs)}-node grid over the support carries "
                                f"mass {mass!r} of the law, not 1")
    w /= mass
    keep = w > 1e-300
    return xs[keep], w[keep]


def _exponents(b, y, scale, offset, u, mean_coef):
    """Fill b, a (samples x atoms) block, with offset_a + scale_a *
    (y - mean_coef_a * u)^2; a deviation the atoms share is formed and
    squared once per sample."""
    if np.ndim(mean_coef) == 0:
        np.einsum("i,j->ij", np.square(y - mean_coef * u), scale, out=b)
    else:
        np.einsum("i,j->ij", u, mean_coef, out=b)
        np.subtract(y[:, None], b, out=b)
        np.square(b, out=b)
        np.multiply(b, scale, out=b)
    return np.add(b, offset, out=b)


# a row whose terms sum below this is rescored with its max shifted out: every
# term is then under e^-690, so the sample lies beyond about 37 sd of each
# component (nearer only to components of tiny weight), and summed unshifted
# its terms would lose digits as subnormals or read 0
_UNDERFLOW_FLOOR = 1e-300


def _log_mixture(buf, y, scale, offset, u, mean_coef):
    """log sum_a exp(offset_a + scale_a * (y - mean_coef_a * u)^2) for each
    sample, with scale = -1/(2 var) and offset = log w - log(2 pi var)/2 per
    atom: the log-density of a Gaussian mixture.  A scalar mean_coef is one
    every atom shares; 0.0 gives the mean-zero mixture, as y - 0.0 * u is y.

    Every exponent is at most -log(2 pi)/2 < 0, since each weight w is at
    most 1 and each variance at least 1 (it holds the unit noise), so the
    terms are exponentiated and summed with no shift: exp cannot overflow.
    Only underflow remains.  The rows whose sums fall below
    `_UNDERFLOW_FLOOR`, samples far out in every component's tail, are
    rescored: each is shifted by its max before exp, and the max added back
    to the log.

    Works in place in the first len(y) rows of buf, a (samples x atoms)
    scratch buffer; the rescored rows reuse its first rows.  Each row is
    summed on its own, so no row's result depends on the rows scored with
    it.
    """
    b = _exponents(buf[:len(y)], y, scale, offset, u, mean_coef)
    np.exp(b, out=b)
    total = b.sum(axis=1)
    low = np.flatnonzero(total < _UNDERFLOW_FLOOR)
    if not len(low):
        return np.log(total)
    b = _exponents(buf[:len(low)], y[low], scale, offset, u[low], mean_coef)
    top = b.max(axis=1)
    np.subtract(b, top[:, None], out=b)
    np.exp(b, out=b)
    total[low] = b.sum(axis=1)
    out = np.log(total)
    out[low] += top
    return out


def _check_range(params: ChannelParams, P1: float, k: float, a_min: float, a_max: float):
    """NonFinite unless each second moment the scoring forms at fading values
    in [a_min, a_max] leaves room for squared normal draws: var(U), c^2, and
    var(Y) and var(Y - X2 | U).  Python floats overflow to inf without a
    numpy warning, so this runs before any moment is formed; the moments are
    convex in a, so the range's ends bound them."""
    P, c = params.P, params.c
    var_u = P1 + k * k
    scales = [var_u, c * c]
    for ca in (c * a_min, c * a_max):
        scales += [P + ca * ca + 1.0, _residual_var(P1, k, ca, var_u)]
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
    pair is exactly jointly Gaussian.  Without side information a density
    enters the mixtures as the mapped trapezoid grid of `_mixture_atoms`,
    about `_GRID_NODES` nodes placed for this gain and these variances.  The
    two mixtures' terms are summed with no max shift, as none can overflow
    (`_log_mixture`); only samples far out in every component's tail are
    rescored with their max shifted out.  At k = 0, U = X1 and the U-term is
    exactly 0, so it is not formed.  Samples are partitioned into fixed
    independent streams whose running moments are merged, so the result
    depends on (seed, n) only.  A stream holds whole,
    in buffers the streams share, only s and x1 (and x2 at split < 1) and its
    fading draw: a discrete law's atom index, whose uniforms fill x1's
    buffer before x1 is drawn, or a density's values.  z, its last draw,
    comes a chunk at a time, and each chunk's ratios overwrite the slice of
    s it has read.  Its ratios are scored in chunks of `_CHUNK_DOUBLES`
    doubles of scratch, counting a mixture's (samples x atoms) buffer and
    each sample's own vectors.  Overflow of the moments is checked on the
    support's ends before any grid is built or value drawn.

    The scoring reads per-atom columns: c a and, with side information,
    (k - c a) / var(U), 2 v and 2 v_y of the two Gaussians and
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
    # every fading value read, drawn or a grid node, lies in the support
    _check_range(params, P1, k, *dist.support())

    def variances(a):
        """The variance of Y - X2 given U at fading a, and of Y there."""
        return _residual_var(P1, k, c * a, var_u), P + c * c * a * a + 1.0

    # score(cols, x1, s, z, y1, y, u, mix) is log p(y1 | u[, a]) - log p(y[, a])
    # per sample of a chunk, with cols = columns(a), y1 = y - x2 and mix a
    # (rows x width) scratch buffer
    if asg.rcsi:
        # reads only the drawn fading values
        rows, width = max(1, _CHUNK_DOUBLES // 16), 0

        def columns(a):
            v, vy = variances(a)
            ca = c * a
            return ca, (k - ca) / var_u, 2.0 * v, 2.0 * vy, 0.5 * np.log(vy / v)

        def score(cols, x1, s, z, y1, y, u, mix):
            _, gain, two_v, two_vy, half_log = cols
            # y1 less its posterior mean given U, (P1 + c a k) / var(U) u.  At
            # k = 0 that coefficient is 1 and y1 - u is exact; elsewhere both
            # terms carry about c a s, so the difference is formed from its
            # parts, x1 (1 - coef) + s (c a - coef k) + z, as
            # (k - c a) / var(U) (k x1 - P1 s) + z
            dev = gain * (k * x1 - P1 * s) + z if k else y1 - u
            return half_log - dev ** 2 / two_v + y * y / two_vy
    else:
        # reads the law through its atoms or a grid placed for these moments
        av, aw = _mixture_atoms(dist, c, variances)
        coef = (P1 + c * av * k) / var_u
        v, vy = variances(av)
        if (coef == coef[0]).all():  # k = 0: every atom's deviation is y1 - coef u
            coef = coef[0]
        log_aw = np.log(aw)
        given_u = (-0.5 / v, log_aw - 0.5 * np.log(2.0 * math.pi * v))
        marginal = (-0.5 / vy, log_aw - 0.5 * np.log(2.0 * math.pi * vy))
        rows = max(1, _CHUNK_DOUBLES // (len(av) + _MIXTURE_ROW_DOUBLES))
        width = len(av)

        def columns(a):
            return (c * a,)

        def score(cols, x1, s, z, y1, y, u, mix):
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
            cols, x1c, sc = gather(drawn[cut]), x1[cut], s[cut]
            u = x1c + k * sc if k else x1c
            y1 = x1c + cols[0] * sc + z
            y = y1 + x2[cut] if P2 > 0 else y1
            r = score(cols, x1c, sc, z, y1, y, u, mix)
            if k:  # at k = 0, U = X1 and the U-term is exactly 0
                r += x1c * x1c / (2.0 * P1) - u * u / (2.0 * var_u) + lr_u
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
