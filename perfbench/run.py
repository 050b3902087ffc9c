#!/usr/bin/env python3
"""Benchmark of fadingdirt's batch workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload claims --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/compare.py RESULTS_A RESULTS_B

Run it from the root of a checkout; it uses the package under `src/`.  Each
workload is a closed loop with one client: operations run one at a time in
this process through `fadingdirt.cli.main`.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.  The
last line of stdout is the result as one JSON object; the lines before it
are the readable report.  Every run also writes its result, samples and
provenance (and, when traced, its spans) under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = {"claims": 16, "numeric": 12}  # fresh interpreters per run for setup_s
CLI_SAMPLES = {"claims": 16, "numeric": 4}  # fresh runs of the representative commands
IMPORT_SAMPLES = 5  # fresh interpreters per traced run for the import split
CHILD_TIMEOUT = 120

# a fresh interpreter that builds the workload and says when it is ready
SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

IMPORT_PROBE = """
import sys, time, json
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.integrate, scipy.special
t2 = time.perf_counter()
import fadingdirt.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


class BenchError(RuntimeError):
    """The benchmark itself could not measure (not a failed operation)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# operations, checks and the tally of failures
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def add(self, label, failed, wrong, msg):
        self.attempted += 1
        self.failed += failed
        self.wrong += wrong
        if failed and len(self.messages) < 50:
            self.messages.append(f"{label}: {msg}")


def run_pass(ops, reference, tally, tr=None, op_times=None):
    """Run every op once; returns the seconds spent inside the ops.

    Checks run outside the timed region and, when a tracer `tr` is given,
    with it uninstalled, so the oracles' own calls are not counted as the
    program's.  `reference` maps an op label to the digest of its first
    output; later passes must reproduce it.  `op_times`, when given,
    collects each op's seconds by label.
    """
    busy = 0.0
    for op in ops:
        if tr is not None:
            tr.install()
        try:
            start = time.perf_counter()
            res = workloads.run_op(op)
            elapsed = time.perf_counter() - start
        finally:
            if tr is not None:
                tr.uninstall()
        busy += elapsed
        if op_times is not None:
            op_times.setdefault(op.label, []).append(elapsed)
        failed, wrong, msg = workloads.judge(op, res)
        if not failed and res.rc == 0:
            first = reference.setdefault(op.label, res.digest)
            if res.digest != first:
                failed, wrong, msg = True, True, "output differs from the first pass"
        tally.add(op.label, failed, wrong, msg)
    return busy


def setup_sample(workload, seed, tiny):
    """Seconds from launching a fresh interpreter until the workload is
    built and ready for its first operation."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed),
           "1" if tiny else "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=CHILD_TIMEOUT)
    if line.strip() != b"ready" or rc != 0:
        raise BenchError(f"setup child exited {rc} without getting ready")
    return elapsed


def cli_sample(workload, tally):
    """Wall seconds of the workload's representative commands, each in a
    fresh `python -m fadingdirt` process, outputs checked."""
    elapsed = 0.0
    for argv in workloads.CLI_COMMANDS[workload]:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fadingdirt"] + argv, capture_output=True,
                              cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT)
        elapsed += time.perf_counter() - start
        op = workloads.Op(f"cli.{argv[0]}", check=workloads.cli_check(argv))
        res = workloads.Result(rc=proc.returncode, out=proc.stdout,
                               err=proc.stderr.decode(errors="replace"))
        tally.add(op.label, *workloads.judge(op, res))
    return elapsed


def import_sample():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.decode(errors='replace')[-300:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(ops, canonical, reference, tally):
    """Untimed first pass: the canonical ops once, then the workload's ops
    under the tracer, whose counts give the work one pass does."""
    run_pass(canonical, reference, tally)
    tr = tracer.Tracer()
    tr.begin_pass()
    run_pass(ops, reference, tally, tr)
    counts = tr.passes[0]["counts"]
    return {"ops": len(ops), "rows": counts["harness.points"],
            "mc_samples": sum(v for k, v in counts.items() if k.startswith("gauss_mi.")),
            "gp_restarts": counts["gp.restarts"],
            "objective_evals": counts["gp.exhaustive.objective_evals"]}


def _in_round(i, k, rounds):
    """Whether round i is one of k rounds spread evenly over the run."""
    return (i * k) // rounds != ((i + 1) * k) // rounds


def measure_end_to_end(workload, seed, seconds, tiny):
    ops, canonical = workloads.build(workload, seed, tiny)
    tally, reference = Tally(), {}
    size = warm_up(ops, canonical, reference, tally)
    n_setup = 1 if tiny else SETUP_SAMPLES[workload]
    n_cli = 1 if tiny else CLI_SAMPLES[workload]
    rounds = max(n_setup, n_cli)
    setup, cli, passes, op_times = [], [], [], {}
    busy = 0.0
    for i in range(rounds):
        if _in_round(i, n_setup, rounds):
            setup.append(setup_sample(workload, seed, tiny))
        if _in_round(i, n_cli, rounds):
            cli.append(cli_sample(workload, tally))
        # interleaved so that a drift in machine speed reaches every metric
        while not passes or busy < seconds * (i + 1) / rounds:
            passes.append(run_pass(ops, reference, tally, op_times=op_times))
            busy += passes[-1]
    samples = {"setup_s": setup, "cli_s": cli, "pass_s": passes}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cli_s": (statistics.median(cli), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    report = [f"work per pass: {json.dumps(size)}"]
    for name, vals in samples.items():
        report.append(f"{name}: {stats.describe(vals)} s")
    report.append(f"peak_rss_mb: {metrics['peak_rss_mb'][0]:.6g} MB")
    report.append(f"fail_ratio: {tally.failed / tally.attempted:.6g} "
                  f"({tally.failed} of {tally.attempted} operations)")
    suites = {}
    for op in ops:
        suites.setdefault(op.info.get("suite", workload), []).append(op_times[op.label])
    for suite, per_op in suites.items():
        report.append(f"  {suite} share of pass_s: "
                      f"{stats.describe([sum(t) for t in zip(*per_op)])} s")
    report.append("median seconds per operation:")
    for label, times in op_times.items():
        report.append(f"  {label:40s} {statistics.median(times):.6g}")
    samples["op_s"] = op_times
    return metrics, tally, samples, report, None


# A figure function returns None for a pass in which the span it needs was
# never called; a figure that is None in every pass is reported missing.

def _self(name):
    return lambda f: f["self_s"][name] if f["calls"][name] else None


def _calls(name):
    return lambda f: f["calls"][name]


def _count(key):
    return lambda f: f["counts"][key]


def _emit_s(fmt):
    key = f"harness.emit[{fmt}]"
    return lambda f: f["total_s"][key] if f["calls"][key] else None


def _rate(case):
    def rate(f):
        key = f"gauss_mi.mi_monte_carlo[{case}]"
        if not f["calls"][key]:
            return None
        return f["counts"][f"gauss_mi.{case}.samples"] / f["total_s"][key]
    return rate


def _law_calls_per_point(f):
    points = f["counts"]["harness.points"]
    return sum(f["calls"][n] for n in tracer.LAW_ONLY) / points if points else 0.0


def _per_call_us(name):
    def per_call(f):
        n = f["calls"][name]
        return f["total_s"][name] / n * 1e6 if n else None
    return per_call


def _s_per_restart(f):
    n = f["counts"]["gp.restarts"]
    return f["total_s"]["gp.optimize_alternating"] / n if n else None


# (name, unit, value from one traced pass's figures, traced targets it needs)
PASS_METRICS = [
    ("cli.main.self_s", "s", _self("cli.main"), ["cli.main"]),
    ("harness.points", "count", _count("harness.points"), ["harness.run_sweep"]),
    ("harness.run_sweep.calls", "count", _calls("harness.run_sweep"), ["harness.run_sweep"]),
    ("harness.run_sweep.self_s", "s", _self("harness.run_sweep"), ["harness.run_sweep"]),
    ("harness.verify_claims.self_s", "s", _self("harness.verify_claims"),
     ["harness.verify_claims"]),
    ("harness.emit.csv_s", "s", _emit_s("csv"), ["harness.emit"]),
    ("harness.emit.svg_s", "s", _emit_s("svg"), ["harness.emit"]),
    ("harness.emit.bytes", "bytes", _count("harness.emit.bytes"), ["harness.emit"]),
    ("harness.law_calls_per_point", "ratio", _law_calls_per_point,
     ["harness.run_sweep", "fading.entropy_power_alpha", "bounds_rcsi.mass_half_params",
      "bounds_rcsi.strong_params", "bounds_rcsi.strong_condition_check",
      "bounds_rcsi.continuous_interval_params"]),
    ("fading.parse_distribution.calls", "count", _calls("fading.parse_distribution"),
     ["fading.parse_distribution"]),
    ("fading.entropy_power_alpha.calls", "count", _calls("fading.entropy_power_alpha"),
     ["fading.entropy_power_alpha"]),
    ("fading.entropy_bits_quadrature.self_s", "s", _self("fading.entropy_bits_quadrature"),
     ["fading.entropy_bits_quadrature"]),
    ("fading.discrete_array_builds", "count",
     lambda f: f["calls"]["fading.Discrete.values"] + f["calls"]["fading.Discrete.probs"],
     ["fading.Discrete.values", "fading.Discrete.probs"]),
    ("bounds_norcsi.outer_no_rcsi.calls", "count", _calls("bounds_norcsi.outer_no_rcsi"),
     ["bounds_norcsi.outer_no_rcsi"]),
    ("bounds_norcsi.outer_no_rcsi.self_s", "s", _self("bounds_norcsi.outer_no_rcsi"),
     ["bounds_norcsi.outer_no_rcsi"]),
    ("bounds_norcsi.inner_no_rcsi.self_s", "s", _self("bounds_norcsi.inner_no_rcsi"),
     ["bounds_norcsi.inner_no_rcsi"]),
    ("bounds_rcsi.mass_half_params.calls", "count", _calls("bounds_rcsi.mass_half_params"),
     ["bounds_rcsi.mass_half_params"]),
    ("bounds_rcsi.strong_params.calls", "count", _calls("bounds_rcsi.strong_params"),
     ["bounds_rcsi.strong_params"]),
    ("bounds_rcsi.inner_mass_half.self_s", "s", _self("bounds_rcsi.inner_mass_half"),
     ["bounds_rcsi.inner_mass_half"]),
    ("bounds_rcsi.inner_strong.self_s", "s", _self("bounds_rcsi.inner_strong"),
     ["bounds_rcsi.inner_strong"]),
    ("bounds_rcsi.outer_strong.self_s", "s", _self("bounds_rcsi.outer_strong"),
     ["bounds_rcsi.outer_strong"]),
    ("bounds_rcsi.continuous_interval_params.calls", "count",
     _calls("bounds_rcsi.continuous_interval_params"), ["bounds_rcsi.continuous_interval_params"]),
    ("bounds_rcsi.continuous_interval_params.self_s", "s",
     _self("bounds_rcsi.continuous_interval_params"), ["bounds_rcsi.continuous_interval_params"]),
    ("bounds_rcsi.inner_continuous.self_s", "s", _self("bounds_rcsi.inner_continuous"),
     ["bounds_rcsi.inner_continuous"]),
    ("bounds_rcsi.outer_continuous.self_s", "s", _self("bounds_rcsi.outer_continuous"),
     ["bounds_rcsi.outer_continuous"]),
    ("quadrature.calls", "count", _count("quadrature.calls"), ["quadrature"]),
    ("quadrature.integrand_evals", "count", _count("quadrature.integrand_evals"), ["quadrature"]),
    ("quadrature.max_abserr", "abserr", lambda f: f["counts"].get("quadrature.max_abserr", 0.0),
     ["quadrature"]),
    ("gauss_mi.rcsi.samples_per_s", "1/s", _rate("rcsi"), ["gauss_mi.mi_monte_carlo"]),
    ("gauss_mi.norcsi_discrete.samples_per_s", "1/s", _rate("norcsi_discrete"),
     ["gauss_mi.mi_monte_carlo"]),
    ("gauss_mi.norcsi_continuous.samples_per_s", "1/s", _rate("norcsi_continuous"),
     ["gauss_mi.mi_monte_carlo"]),
    ("gauss_mi.mi_monte_carlo.self_s", "s", _self("gauss_mi.mi_monte_carlo"),
     ["gauss_mi.mi_monte_carlo"]),
    ("gauss_mi.costa_rate_exact.self_s", "s", _self("gauss_mi.costa_rate_exact"),
     ["gauss_mi.costa_rate_exact"]),
    ("gp.optimize_alternating.s_per_restart", "s", _s_per_restart, ["gp.optimize_alternating"]),
    ("gp.optimize_exhaustive.self_s", "s", _self("gp.optimize_exhaustive"),
     ["gp.optimize_exhaustive"]),
    ("gp.exhaustive.objective_evals", "count", _count("gp.exhaustive.objective_evals"),
     ["gp.optimize_exhaustive"]),
    ("gp.evaluate_assignment.us_per_call", "us", _per_call_us("gp.evaluate_assignment"),
     ["gp.evaluate_assignment"]),
]


def op_checks(ops):
    """Figures the checks compute: worst RCSI oracle distance in stderr,
    and the alternating minus the exhaustive optimum."""
    sigmas = [op.info["stats"]["sigmas"] for op in ops
              if op.info.get("rcsi") and "sigmas" in op.info["stats"]]
    rel = [op.info["relation"]["alt_minus_exhaustive_bits"] for op in ops
           if "alt_minus_exhaustive_bits" in op.info.get("relation", {})]
    return {"gauss_mi.oracle_sigmas": (max(sigmas) if sigmas else 0.0, "stderr"),
            "gp.alt_minus_exhaustive_bits": (min(rel) if rel else 0.0, "bits")}


def measure_layers(workload, seed, seconds, tiny):
    ops, canonical = workloads.build(workload, seed, tiny)
    tally, reference = Tally(), {}
    size = warm_up(ops, canonical, reference, tally)
    imports = [import_sample() for _ in range(1 if tiny else IMPORT_SAMPLES)]
    tr = tracer.Tracer()
    plain, traced = [], []
    busy = 0.0
    while not traced or busy < seconds:
        plain.append(run_pass(ops, reference, tally))
        tr.begin_pass()
        traced.append(run_pass(ops, reference, tally, tr))
        busy += plain[-1] + traced[-1]
    figures = [tracer.pass_figures(p) for p in tr.passes]

    values, missing = {}, {}
    for i, (name, unit) in enumerate((("import.numpy_s", "s"), ("import.scipy_s", "s"),
                                      ("import.fadingdirt_s", "s"))):
        values[name] = (statistics.median([s[i] for s in imports]), unit)
    for name, unit, fn, deps in PASS_METRICS:
        gone = [tr.missing[d] for d in deps if d in tr.missing]
        if gone:
            missing[name] = "; ".join(gone)
            values[name] = (0, unit)
            continue
        per_pass = [v for v in (fn(f) for f in figures) if v is not None]
        if not per_pass:
            missing[name] = "not called by this workload's operations"
            values[name] = (0, unit)
            continue
        values[name] = (statistics.median(per_pass), unit)
    values.update(op_checks(ops))
    values["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")

    report = [f"work per pass: {json.dumps(size)}",
              f"traced passes: {len(traced)}, untraced passes: {len(plain)}; "
              f"pass_s untraced {stats.describe(plain)} s, traced {stats.describe(traced)} s"]
    for name, (value, unit) in values.items():
        note = f"missing: {missing[name]}" if name in missing else f"{value:.6g} {unit}"
        report.append(f"  {name:48s} {note}")
    samples = {"pass_s_untraced": plain, "pass_s_traced": traced, "imports": imports}
    return values, tally, samples, report, tr


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def provenance(seed):
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT,
                              timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS") or k in ("VECLIB_MAXIMUM_THREADS",)},
    }


def declared_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def save(args, record, tr):
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tr is not None:
        with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["id", "name", "tag", "start", "end", "parent"],
                       "passes": [p["spans"] for p in tr.passes]}, fh)
    return RESULTS / f"{stem}.json"


def run(args):
    measure = measure_layers if args.trace else measure_end_to_end
    values, tally, samples, report, tr = measure(args.workload, args.seed, args.seconds,
                                                 args.tiny)
    wanted = declared_metrics(args.trace)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in wanted},
    }
    prov = provenance(args.seed)
    path = save(args, {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, "tiny": args.tiny, "provenance": prov, "result": result,
                       "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
                       "samples": samples, "failures": tally.messages}, tr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds}; results in {path.relative_to(ROOT)}")
    print("provenance: " + json.dumps(prov))
    for line in report:
        print(line)
    for msg in tally.messages:
        print(f"failed: {msg}")
    print(json.dumps(result))
    return 0


def smoke():
    """Every workload at a tiny size, both kinds of run; every metric that
    BENCHMARK.json declares must be printed."""
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=600)
            last = proc.stdout.decode().strip().splitlines()[-1:] or ["{}"]
            try:
                result = json.loads(last[0])
            except ValueError:
                result = {}
            names = set(result.get("metrics", {}))
            absent = sorted(set(declared_metrics(trace)) - names)
            status = "ok" if proc.returncode == 0 and not absent else "FAIL"
            print(f"{status} {workload} trace {trace}: exit {proc.returncode}, "
                  f"attempted {result.get('attempted')}, failed {result.get('failed')}, "
                  f"correct {result.get('correct')}" + (f", missing {absent}" if absent else ""))
            if status != "ok":
                problems.append((workload, trace, proc.stderr.decode()[-500:]))
    for workload, trace, err in problems:
        print(f"--- {workload} trace {trace} stderr:\n{err}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("claims", "numeric"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at a tiny size and check the printed metrics")
    p.add_argument("--tiny", action="store_true", help="tiny sizes (used by --smoke)")
    args = p.parse_args(argv)
    if not (SRC / "fadingdirt" / "__init__.py").is_file():
        print(f"perfbench: no src/fadingdirt under {ROOT}; run from a fadingdirt checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global workloads
    import workloads
    if not Path(workloads.fd.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported fadingdirt from {workloads.fd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    try:
        return run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
