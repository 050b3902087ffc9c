"""The benchmark's workloads: seeded operation lists and output checks.

A workload is a list of operations built from the workload seed: `claims`
is the closed-form suite, `numeric` runs the continuous (quadrature),
montecarlo (MI estimator) and solver (GP) suites in one pass.  Most
operations are `fadingdirt.cli.main(argv)` calls; the solver's exhaustive
search has no CLI flag and goes through `fadingdirt.optimize_exhaustive`.
Every operation carries a check that compares its output with a recorded
fingerprint or an independent oracle, so a change that is fast but wrong is
counted as a failure rather than as a speed-up.

Import this module only after `src/` is on `sys.path`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import fadingdirt as fd
from fadingdirt import cli

FINGERPRINTS = json.loads((Path(__file__).parent / "fingerprints.json").read_text())

WORKLOADS = ("claims", "numeric")

# What a user runs; cli_s times these in fresh processes, one after another.
CLI_COMMANDS = {
    "claims": [["verify", "--preset", "all", "--grid", "full"]],
    "numeric": [["sweep", "--theorem", "continuous", "--dist", "rayleigh"],
                ["mi", "--P", "3", "--c", "2", "--dist", "gaussian", "--no-rcsi",
                 "--n", "100000"],
                ["gp", "--example", "binary-nonoise", "--restarts", "32"]],
}

EULER_GAMMA = 0.5772156649015329
TWO_PI_E = 2.0 * math.pi * math.e
MC_SIGMAS = 5.0              # oracle tolerance of a Monte Carlo estimate, in stderr
MC_CANONICAL_SIGMAS = 0.25   # drift allowed against a recorded canonical estimate
GP_CANONICAL_TOL = 1e-12
GP_RELATION_TOL = 1e-6


@dataclass
class Op:
    """One operation of a pass.

    `argv` ops run through the CLI; `call` ops run a public API function and
    return its value.  `check(result)` returns None or a failure message.
    `expect_error` names a ToolkitError the seed code is known to raise on
    this op; the op still counts as failed, but not as a wrong output.
    """

    label: str
    argv: list = None
    call: object = None
    check: object = None
    expect_error: str = None
    info: dict = field(default_factory=dict)


@dataclass
class Result:
    rc: object            # exit code, or the exception's type name
    out: bytes = b""
    err: str = ""
    value: object = None  # return value of a `call` op

    @property
    def digest(self):
        h = hashlib.sha256(self.out)
        if self.value is not None:
            h.update(repr(self.value).encode())
        return h.hexdigest()


def run_op(op: Op) -> Result:
    """Run one op in this process, capturing what it writes."""
    if op.call is not None:
        try:
            return Result(rc=0, value=op.call())
        except Exception as exc:  # a failed op is data for fail counts
            return Result(rc=type(exc).__name__, err=str(exc))
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc = type(exc).__name__
            err.write(f"{rc}: {exc}\n")
        out.flush()
    return Result(rc=rc, out=buf.getvalue(), err=err.getvalue())


def judge(op: Op, res: Result):
    """(failed, wrong, message) for one op's result."""
    if res.rc != 0:
        msg = f"exit {res.rc}: {res.err.strip()[-200:]}"
        expected = op.expect_error is not None and op.expect_error in res.err
        return True, not expected, msg
    if op.check is not None:
        msg = op.check(res)
        if msg:
            return True, True, msg
    return False, False, None


# ---------------------------------------------------------------------------
# output parsing shared by the checks
# ---------------------------------------------------------------------------

def parse_rows(fmt: str, data: bytes):
    """GapReport rows as dicts of strings, from csv, json or plotdata bytes."""
    text = data.decode()
    if fmt == "json":
        return [{k: json.dumps(v) if isinstance(v, bool) else str(v) for k, v in row.items()}
                for row in json.loads(text)]
    sep = "," if fmt == "csv" else " "
    lines = text.splitlines()
    header = lines[0].lstrip("# ").split(sep)
    return [dict(zip(header, line.split(sep))) for line in lines[1:]]


def _close(a, b, rel=1e-9, abs_=1e-9):
    return abs(a - b) <= max(abs_, rel * abs(b))


def _sha_check(expected):
    def check(res):
        if res.digest != expected:
            return f"sha256 {res.digest[:16]}... differs from recorded {expected[:16]}..."
        return None
    return check


def _svg_check(n_series):
    def check(res):
        text = res.out.decode()
        if not (text.startswith("<?xml") and text.rstrip().endswith("</svg>")):
            return "svg is not a complete document"
        if text.count("<polyline") != 2 * n_series:
            return f"svg has {text.count('<polyline')} polylines, expected {2 * n_series}"
        return None
    return check


def _rows_check(fmt, n_rows, oracle=None):
    """Row count, finite bounds, and an optional per-row oracle."""
    def check(res):
        try:
            rows = parse_rows(fmt, res.out)
        except (ValueError, IndexError) as exc:
            return f"unparsable {fmt}: {exc}"
        if len(rows) != n_rows:
            return f"{len(rows)} rows, expected {n_rows}"
        for row in rows:
            try:
                inner, outer = float(row["inner_bits"]), float(row["outer_bits"])
            except (KeyError, ValueError):
                return f"row without numeric bounds: {row}"
            if not (math.isfinite(inner) and math.isfinite(outer)):
                return f"non-finite bound in row {row}"
            if oracle is not None:
                msg = oracle(row)
                if msg:
                    return msg
        return None
    return check


def _inner_below_outer(row):
    inner, outer = float(row["inner_bits"]), float(row["outer_bits"])
    if inner > outer + 1e-9:
        return f"inner {inner} above outer {outer} at P={row['P']} c2={row['c2']}"
    return None


# ---------------------------------------------------------------------------
# claims: closed-form bounds, claim checks and emission
# ---------------------------------------------------------------------------

# entropy power of the unit-variance shorthand laws, from their closed forms
_RAYLEIGH_SIGMA = math.sqrt(2.0 / (4.0 - math.pi))
NO_RCSI_ALPHA = {
    "gaussian": 1.0,
    "uniform": 12.0 / TWO_PI_E,
    "rayleigh": math.exp(2.0 * (1.0 + math.log(_RAYLEIGH_SIGMA / math.sqrt(2.0))
                                + EULER_GAMMA / 2.0)) / TWO_PI_E,
}


def _no_rcsi_oracle(alpha):
    """Independent closed form of one no-RCSI sweep row."""
    def oracle(row):
        P, c2 = float(row["P"]), float(row["c2"])
        inner = 0.5 * math.log2(1.0 + P / (c2 + 1.0))
        outer = 0.5 * math.log2((P + 1.0) / (c2 * alpha) + 1.0 / alpha) + 0.5
        claimed = -0.5 * math.log2(alpha) + 0.5
        want = {"inner_bits": inner, "outer_bits": outer, "claimed_gap": claimed,
                "measured_gap": outer - inner}
        for key, val in want.items():
            if not _close(float(row[key]), val):
                return f"{key}={row[key]} at P={P} c2={c2}, closed form gives {val!r}"
        if row["satisfied"] != ("true" if outer - inner <= claimed + 1e-9 else "false"):
            return f"satisfied={row['satisfied']} at P={P} c2={c2}"
        if row["assumptions_ok"] != ("true" if c2 >= 3.0 else "false"):
            return f"assumptions_ok={row['assumptions_ok']} at P={P} c2={c2}"
        return None
    return oracle


def _log_grid(rng, lo, hi, n):
    return sorted(float("%.6g" % 10 ** rng.uniform(math.log10(lo), math.log10(hi)))
                  for _ in range(n))


def _grid_flags(P, c2):
    return ["--P-grid", ",".join(repr(v) for v in P), "--c2-grid", ",".join(repr(v) for v in c2)]


def _discrete_literal(dist):
    return json.dumps(dist.to_json())


def claims_ops(seed, smoke=False):
    rng = random.Random(seed)
    n_P, n_c2 = (2, 2) if smoke else (4, 5)
    ops = [
        Op("verify.csv", ["verify", "--preset", "all", "--grid", "full", "--format", "csv"],
           check=_sha_check(FINGERPRINTS["claims"]["verify.csv"])),
        Op("verify.svg", ["verify", "--preset", "all", "--grid", "full", "--format", "svg"],
           check=_sha_check(FINGERPRINTS["claims"]["verify.svg"])),
    ]
    for law, fmt in zip(("gaussian", "uniform", "rayleigh"), ("csv", "json", "plotdata")):
        P, c2 = _log_grid(rng, 0.1, 1000.0, n_P), _log_grid(rng, 0.25, 1e4, n_c2)
        ops.append(Op(f"sweep.no-rcsi.{law}.{fmt}",
                      ["sweep", "--theorem", "no-rcsi", "--dist", law, "--format", fmt]
                      + _grid_flags(P, c2),
                      check=_rows_check(fmt, len(P) * len(c2),
                                        _no_rcsi_oracle(NO_RCSI_ALPHA[law]))))
    # mass-half laws keep a dominant atom of mass >= 1/2 and no atom at 0
    mass_half = [
        ("two-point", "two-point"),
        ("geometric", _discrete_literal(fd.geometric_fading(round(rng.uniform(0.52, 0.75), 4)))),
        ("binomial1", _discrete_literal(fd.binomial_fading(1, round(rng.uniform(0.75, 0.9), 4)))),
        ("binomial2", _discrete_literal(fd.binomial_fading(2, round(rng.uniform(0.85, 0.92), 4)))),
    ]
    for (name, law), fmt in zip(mass_half, ("csv", "json", "plotdata", "svg")):
        P, c2 = _log_grid(rng, 0.1, 1000.0, n_P), _log_grid(rng, 0.25, 1e4, n_c2)
        check = _svg_check(len(P)) if fmt == "svg" else _rows_check(fmt, len(P) * len(c2))
        ops.append(Op(f"sweep.mass-half.{name}.{fmt}",
                      ["sweep", "--theorem", "mass-half", "--dist", law, "--format", fmt]
                      + _grid_flags(P, c2), check=check))
    for M, fmt in zip((3, 4, 5), ("csv", "json", "plotdata")):
        c = round(rng.uniform(1.5, 8.0), 4)
        P = _log_grid(rng, 0.1, 1000.0, n_c2)
        ops.append(Op(f"sweep.strong.M{M}.{fmt}",
                      ["sweep", "--theorem", "strong", "--dist",
                       _discrete_literal(fd.strong_support(M, c)), "--format", fmt]
                      + _grid_flags(P, [c * c]),
                      check=_rows_check(fmt, len(P))))
    return ops


# ---------------------------------------------------------------------------
# continuous: quadrature-backed bounds
# ---------------------------------------------------------------------------

def lognormal_literal():
    """Unit-variance log-normal with log-variance 1/4."""
    s2 = 0.25
    return json.dumps({"kind": "lognormal", "mu": 0.0, "sigma2": s2,
                       "scale": 1.0 / math.sqrt((math.exp(s2) - 1.0) * math.exp(s2))})


def tabulated_literal(rng, nodes=15):
    """Seeded two-hump density on `nodes` equally spaced points, shifted and
    scaled to zero mean and unit variance under the trapezoid rule the
    program uses.  Its kinks fall off quad's bisection points, which is what
    defeats the entropy quadrature."""
    xs = [-1.0 + 2.0 * i / (nodes - 1) for i in range(nodes)]
    w = rng.uniform(0.6, 1.0)
    ds = [(math.exp(-(x - 0.45) ** 2 / 0.06) + w * math.exp(-(x + 0.45) ** 2 / 0.06) + 0.01)
          * rng.uniform(0.95, 1.05) for x in xs]

    def trap(f):
        return sum((xs[i + 1] - xs[i]) * (f(i) + f(i + 1)) / 2 for i in range(nodes - 1))

    z = trap(lambda i: ds[i])
    ds = [d / z for d in ds]
    m = trap(lambda i: xs[i] * ds[i])
    s = math.sqrt(trap(lambda i: (xs[i] - m) ** 2 * ds[i]))
    xs = [(x - m) / s for x in xs]
    ds = [d * s for d in ds]
    z = trap(lambda i: ds[i])
    return json.dumps({"kind": "tabulated", "grid": [[x, d / z] for x, d in zip(xs, ds)]})


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _rayleigh_cdf(x):
    r = x + _RAYLEIGH_SIGMA * math.sqrt(math.pi / 2.0)  # unit-variance, zero-mean shift
    return 0.0 if r <= 0 else 1.0 - math.exp(-r * r / (2.0 * _RAYLEIGH_SIGMA ** 2))


def _uniform_cdf(x):
    h = math.sqrt(3.0)
    return min(max((x + h) / (2.0 * h), 0.0), 1.0)


_CDF = {"gaussian": _normal_cdf, "rayleigh": _rayleigh_cdf, "uniform": _uniform_cdf}


def _interval(rng, law):
    """Interval strictly inside the support carrying at least 0.55 of the
    mass, so the complement integrals run and P(I) >= 1/2 holds."""
    cdf = _CDF[law]
    while True:
        a, b = -rng.uniform(0.6, 1.5), rng.uniform(0.6, 1.5)
        if cdf(b) - cdf(a) >= 0.55 and cdf(a) > 0.0 and cdf(b) < 1.0:
            return round(a, 4), round(b, 4)


def _bounds_check(res):
    try:
        payload = json.loads(res.out)
        inner, outer = payload["inner"]["bits"], payload["outer"]["bits"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable bounds output: {exc}"
    if not (math.isfinite(inner) and math.isfinite(outer)):
        return "non-finite bound"
    if inner > outer + 1e-9:
        return f"inner {inner} above outer {outer}"
    return None


def continuous_ops(seed, smoke=False):
    rng = random.Random(seed)
    fp = FINGERPRINTS["continuous"]
    ops = []
    canonical = [("gaussian", "gaussian", "csv"), ("uniform", "uniform", "json"),
                 ("rayleigh", "rayleigh", "csv"), ("lognormal", lognormal_literal(), "plotdata")]
    if smoke:
        canonical = canonical[:1]
    for name, law, fmt in canonical:
        label = f"sweep.continuous.{name}.{fmt}"
        ops.append(Op(label, ["sweep", "--theorem", "continuous", "--dist", law,
                              "--format", fmt], check=_sha_check(fp[label])))
    tab = tabulated_literal(rng)
    P, c2 = _log_grid(rng, 0.1, 1000.0, 2), _log_grid(rng, 0.25, 1e4, 1 if smoke else 3)
    ops.append(Op("sweep.continuous.tabulated.csv",
                  ["sweep", "--theorem", "continuous", "--dist", tab, "--format", "csv"]
                  + _grid_flags(P, c2),
                  check=_rows_check("csv", len(P) * len(c2), _inner_below_outer)))
    for i, law in enumerate(("gaussian", "uniform", "rayleigh") * (1 if smoke else 2)):
        a, b = _interval(rng, law)
        Pv, c = round(10 ** rng.uniform(-1, 3), 4), round(10 ** rng.uniform(-0.3, 2), 4)
        ops.append(Op(f"bounds.continuous.{law}.{i}",
                      ["bounds", "--theorem", "continuous", "--P", repr(Pv), "--c", repr(c),
                       "--dist", law, "--interval", repr(a), repr(b)],
                      check=_bounds_check))
    Pv, c = round(10 ** rng.uniform(-1, 3), 4), round(10 ** rng.uniform(0, 2), 4)
    # the entropy quadrature of this law ends in QuadratureFailure at the seed
    ops.append(Op("bounds.no-rcsi.tabulated",
                  ["bounds", "--theorem", "no-rcsi", "--P", repr(Pv), "--c", repr(c),
                   "--dist", tab],
                  check=_bounds_check, expect_error="QuadratureFailure"))
    return ops


# fixed points at which the outer bound takes a branch that subtracts the
# complement integral G of continuous_interval_params
CANONICAL_INTERVAL = (-1.0, 1.0)
CANONICAL_INTERVAL_POINTS = ((10.0, 3.0), (100.0, 0.5))  # large-gain, moderate-gain


def continuous_canonical_ops():
    """Interval bounds at recorded points, one law per shorthand name plus
    the seed-0 tabulated density: the only outputs of the complement
    integrals that are checked against recorded bytes."""
    fp = FINGERPRINTS["continuous"]
    laws = [("gaussian", "gaussian"), ("uniform", "uniform"), ("rayleigh", "rayleigh"),
            ("tabulated0", tabulated_literal(random.Random(0)))]
    a, b = CANONICAL_INTERVAL
    ops = []
    for name, law in laws:
        for P, c in CANONICAL_INTERVAL_POINTS:
            label = f"canonical.bounds.continuous.{name}.P{P!r}.c{c!r}"
            ops.append(Op(label, ["bounds", "--theorem", "continuous", "--P", repr(P),
                                  "--c", repr(c), "--dist", law, "--interval", repr(a), repr(b)],
                          check=_sha_check(fp[label])))
    return ops


# ---------------------------------------------------------------------------
# montecarlo: the Gaussian-mixture MI estimator
# ---------------------------------------------------------------------------

MC_CASES = [
    # label, law, receiver side information, n, smoke n
    ("mi.rcsi.two-point", "two-point", True, 1_000_000, 10_000),
    ("mi.rcsi.strong4", _discrete_literal(fd.strong_support(4, 2.0)), True, 1_000_000, 10_000),
    ("mi.norcsi.geometric", _discrete_literal(fd.geometric_fading(0.55)), False, 100_000, 10_000),
    ("mi.norcsi.gaussian", "gaussian", False, 10_000, 10_000),
    ("mi.norcsi.rayleigh", "rayleigh", False, 10_000, 10_000),
]


def _mi_check(case, P, c, law, rcsi, n, seed):
    """Oracle check of one estimate against the covariance closed form: the
    exact rate with receiver side information, the Gaussian max-entropy
    lower bound without.  At recorded (P, c, n, seed) points the estimate
    must also reproduce the recorded value."""
    params = fd.ChannelParams(P=P, c=c)
    dist = fd.parse_distribution(law)
    asg = fd.CostaAssignment(rcsi=rcsi)
    key = f"{case} P={P!r} c={c!r} n={n} seed={seed}"
    recorded = FINGERPRINTS["montecarlo"].get(key)
    stats = {}

    def check(res):
        try:
            payload = json.loads(res.out)
            est, se = float(payload["estimate_bits"]), float(payload["stderr_bits"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable mi output: {exc}"
        if not (math.isfinite(est) and se > 0):
            return f"estimate {est} with stderr {se}"
        exact = fd.costa_rate_exact(params, dist, asg)
        if rcsi:
            stats["sigmas"] = abs(est - exact) / se
            if abs(est - exact) > MC_SIGMAS * se:
                return f"estimate {est} is {stats['sigmas']:.2f} stderr from exact {exact}"
        elif est < exact - MC_SIGMAS * se:
            return f"estimate {est} below max-entropy value {exact} by more than {MC_SIGMAS} stderr"
        if recorded is not None and abs(est - recorded) > MC_CANONICAL_SIGMAS * se:
            return f"estimate {est!r} drifted from recorded {recorded!r}"
        return None

    return check, stats


def mi_op(label, case, P, c, law, rcsi, n, seed):
    argv = ["mi", "--P", repr(P), "--c", repr(c), "--dist", law, "--n", str(n),
            "--seed", str(seed)] + ([] if rcsi else ["--no-rcsi"])
    check, stats = _mi_check(case, P, c, law, rcsi, n, seed)
    return Op(label, argv, check=check, info={"stats": stats, "rcsi": rcsi})


def montecarlo_ops(seed, smoke=False):
    rng = random.Random(seed)
    ops = []
    for label, law, rcsi, n, n_smoke in MC_CASES:
        P, c = round(10 ** rng.uniform(0, 1), 4), round(10 ** rng.uniform(-0.2, 0.5), 4)
        ops.append(mi_op(label, label, P, c, law, rcsi, n_smoke if smoke else n,
                         rng.randrange(2 ** 31)))
    return ops


def montecarlo_canonical_ops(smoke=False):
    """Recorded points: every case at P = 3, c = 2 and MC seed 0."""
    return [mi_op(f"canonical.{label}", label, 3.0, 2.0, law, rcsi, n_smoke if smoke else n, 0)
            for label, law, rcsi, n, n_smoke in MC_CASES]


# ---------------------------------------------------------------------------
# solver: finite-alphabet Gelfand-Pinsker search
# ---------------------------------------------------------------------------

def _probs(rng, k):
    w = [rng.uniform(0.7, 1.3) for _ in range(k)]
    probs = [round(x / sum(w), 4) for x in w]
    probs[-1] = round(1.0 - sum(probs[:-1]), 4)
    return probs


def _laws(rng):
    """Seeded masses on fixed atoms.  Atoms at +-1 make x + a*s collide, so
    the ascent has to iterate; the values stay fixed because the solver's
    cost depends strongly on them and pass_s must not depend on the seed."""
    return {"atoms2": [[v, p] for v, p in zip((-1.0, 1.0), _probs(rng, 2))],
            "atoms3": [[v, p] for v, p in zip((-1.0, 1.0, 2.0), _probs(rng, 3))]}


def _gp_check(atoms, rcsi, aux, canonical=None):
    """The printed optimum is finite, re-evaluates to itself through
    evaluate_assignment, and at the canonical instance matches the
    recorded optimum."""
    inst = fd.binary_nonoise_instance(atoms, rcsi=rcsi, aux_size=aux)
    state = {}

    def check(res):
        state.pop("value", None)
        try:
            payload = json.loads(res.out)
            value = float(payload["value_bits"])
            p = [[float(v) for v in row] for row in payload["p_u_given_s"]]
            x = payload["x_of_us"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable gp output: {exc}"
        if not math.isfinite(value):
            return f"optimum {value}"
        again = fd.evaluate_assignment(inst, p, x)
        if abs(again - value) > GP_RELATION_TOL:
            return f"assignment re-evaluates to {again}, printed optimum {value}"
        if canonical is not None and abs(value - canonical) > GP_CANONICAL_TOL:
            return f"optimum {value!r} differs from recorded {canonical!r}"
        state["value"] = value
        return None

    return check, state


def gp_op(label, atoms, rcsi, seed, canonical=None):
    argv = ["gp", "--example", "binary-nonoise", "--atoms", json.dumps(atoms),
            "--restarts", "32", "--aux-size", "4", "--seed", str(seed)]
    if not rcsi:
        argv.append("--no-rcsi")
    check, state = _gp_check(atoms, rcsi, 4, canonical)
    return Op(label, argv, check=check, info={"state": state})


def solver_ops(seed, smoke=False):
    rng = random.Random(seed)
    laws = _laws(rng)
    gp_seed = rng.randrange(2 ** 31)
    ops = [gp_op(f"gp.{name}.{'rcsi' if rcsi else 'norcsi'}", atoms, rcsi, gp_seed)
           for name, atoms in laws.items() for rcsi in (True, False)]
    # the exhaustive oracle at aux 3 bounds the aux-4 alternating optimum from below
    grid = 3 if smoke else 6
    inst = fd.binary_nonoise_instance(laws["atoms2"], rcsi=False, aux_size=3)
    alt_state = ops[1].info["state"]
    rel = {}

    def exhaustive():
        return fd.optimize_exhaustive(inst, grid)

    def check(res):
        value, (p, x) = res.value
        if not math.isfinite(value) or p.shape != (3, 2) or x.shape != (3, 2):
            return f"exhaustive optimum {value} with shapes {p.shape}, {x.shape}"
        again = fd.evaluate_assignment(inst, p, x)
        if abs(again - value) > 1e-9:
            return f"exhaustive assignment re-evaluates to {again}, optimum {value}"
        if "value" not in alt_state:
            return "alternating optimum missing, relation not checked"
        rel["alt_minus_exhaustive_bits"] = alt_state["value"] - value
        if alt_state["value"] < value - GP_RELATION_TOL:
            return f"alternating optimum {alt_state['value']} below exhaustive {value}"
        return None

    ops.append(Op(f"exhaustive.atoms2.norcsi.grid{grid}", call=exhaustive, check=check,
                  info={"relation": rel}))
    return ops


def solver_canonical_ops():
    return [gp_op("gp.canonical", [[-1, 0.5], [1, 0.5]], True, 0,
                  canonical=FINGERPRINTS["solver"]["gp.canonical"])]


def numeric_ops(seed, smoke=False):
    """The continuous, montecarlo and solver suites, one after another."""
    ops = []
    for suite, builder in (("continuous", continuous_ops), ("montecarlo", montecarlo_ops),
                           ("solver", solver_ops)):
        for op in builder(seed, smoke):
            op.info["suite"] = suite
            ops.append(op)
    return ops


def build(workload, seed, smoke=False):
    """(timed ops, canonical ops) for the workload; the canonical ops run
    once per run, untimed, at recorded points."""
    if workload == "claims":
        return claims_ops(seed, smoke), []
    return numeric_ops(seed, smoke), (continuous_canonical_ops() + montecarlo_canonical_ops(smoke)
                                      + solver_canonical_ops())


def cli_check(argv):
    """Check of a representative command's stdout in a fresh process."""
    if argv[0] == "verify":
        return _sha_check(FINGERPRINTS["claims"]["verify.csv"])
    if argv[0] == "sweep":
        return _sha_check(FINGERPRINTS["continuous"]["sweep.continuous.rayleigh.csv"])
    if argv[0] == "mi":
        return _mi_check("cli.mi.norcsi.gaussian", 3.0, 2.0, "gaussian", False, 100_000, 0)[0]
    return _gp_check([[-1, 0.5], [1, 0.5]], True, 4, FINGERPRINTS["solver"]["gp.canonical"])[0]
