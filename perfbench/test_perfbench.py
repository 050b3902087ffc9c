"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

They sit outside the package's test paths, so the package's test suite does
not run them.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _op(ops, label):
    return next(op for op in ops if op.label == label)


def test_smoke_prints_every_declared_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok ") == 2 * len(workloads.WORKLOADS)


def test_flipped_csv_byte_is_a_failure():
    op = _op(workloads.claims_ops(1, smoke=True), "verify.csv")
    res = workloads.run_op(op)
    assert workloads.judge(op, res) == (False, False, None)
    flipped = bytearray(res.out)
    flipped[len(flipped) // 2] ^= 0x01
    res.out = bytes(flipped)
    failed, wrong, _msg = workloads.judge(op, res)
    assert failed and wrong


def test_flipped_sweep_value_is_a_failure():
    op = _op(workloads.claims_ops(1, smoke=True), "sweep.no-rcsi.gaussian.csv")
    res = workloads.run_op(op)
    assert workloads.judge(op, res) == (False, False, None)
    lines = res.out.decode().splitlines()
    cells = lines[1].split(",")
    cells[7] = repr(float(cells[7]) + 1e-3)  # inner_bits of the first row
    res.out = ("\n".join(lines[:1] + [",".join(cells)] + lines[2:]) + "\n").encode()
    assert workloads.judge(op, res)[0]


def _shifted(res, sigmas):
    payload = json.loads(res.out)
    payload["estimate_bits"] += sigmas * payload["stderr_bits"]
    return workloads.Result(rc=0, out=json.dumps(payload).encode())


def test_mi_estimate_shifted_by_ten_stderr_is_a_failure():
    ops = workloads.montecarlo_ops(1, smoke=True)
    rcsi = _op(ops, "mi.rcsi.two-point")
    res = workloads.run_op(rcsi)
    assert workloads.judge(rcsi, res) == (False, False, None)
    for sigmas in (10.0, -10.0):
        assert workloads.judge(rcsi, _shifted(res, sigmas))[:2] == (True, True)
    # without side information the oracle is one-sided; the recorded
    # canonical estimates, checked in every run, catch a shift either way
    norcsi = _op(workloads.montecarlo_canonical_ops(), "canonical.mi.norcsi.geometric")
    res = workloads.run_op(norcsi)
    assert workloads.judge(norcsi, res) == (False, False, None)
    for sigmas in (10.0, -10.0):
        assert workloads.judge(norcsi, _shifted(res, sigmas))[:2] == (True, True)


def test_recorded_mi_estimate_drift_is_a_failure():
    op = workloads.mi_op("canonical.mi.rcsi.two-point", "mi.rcsi.two-point", 3.0, 2.0,
                         "two-point", True, 1_000_000, 0)
    recorded = workloads.FINGERPRINTS["montecarlo"][
        "mi.rcsi.two-point P=3.0 c=2.0 n=1000000 seed=0"]
    good = {"estimate_bits": recorded, "stderr_bits": 0.001}
    assert workloads.judge(op, workloads.Result(0, json.dumps(good).encode()))[0] is False
    drifted = dict(good, estimate_bits=recorded + 0.0005)
    assert workloads.judge(op, workloads.Result(0, json.dumps(drifted).encode()))[0] is True


def test_expected_error_fails_without_marking_output_wrong():
    op = workloads.Op("x", ["bounds"], expect_error="QuadratureFailure")
    err = "error: QuadratureFailure: entropy quadrature error 3e-06 exceeds 1e-08\n"
    assert workloads.judge(op, workloads.Result(rc=3, err=err))[:2] == (True, False)
    other = "error: InvalidAlpha: alpha_ep must be in (0,1]\n"
    assert workloads.judge(op, workloads.Result(rc=3, err=other))[:2] == (True, True)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "parent", None, 0.0, 10.0, None),
        (1, "a", None, 1.0, 4.0, 0),
        (2, "b", None, 3.0, 6.0, 0),   # overlaps a, as pool workers do
        (3, "c", None, 8.0, 9.0, 0),
        (4, "d", None, 1.5, 2.0, 1),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == 10.0 - 5.0 - 1.0
    assert selfs[1] == 3.0 - 0.5


def test_missing_function_is_reported_not_fatal(monkeypatch):
    import fadingdirt.harness
    monkeypatch.delattr(fadingdirt.harness, "verify_claims")
    tr = tracer.Tracer()
    tr.begin_pass()
    tr.install()
    tr.uninstall()
    assert "harness.verify_claims" in tr.missing


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [0.6, 1.5, 0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 1.0, 1.1]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), 0.1, True, False)[0] == "better"
    assert compare.verdict(parent, faster, list(zip(parent, faster)), 0.1, True, True)[0] != "better"
    assert compare.verdict(parent, slower, list(zip(parent, slower)), 0.1, True, False)[0] == "worse"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), 0.1, True, False)[0] == "within bound"
    assert compare.verdict(parent, noisy, list(zip(parent, noisy)), 0.1, True, False)[0] == "unresolved"


def test_exhaustive_optimum_off_its_assignment_is_a_failure():
    ops = workloads.solver_ops(1, smoke=True)
    results = [workloads.run_op(op) for op in ops]
    for op, res in zip(ops, results):  # in order: the alternating optima feed the last check
        assert workloads.judge(op, res) == (False, False, None)
    value, assignment = results[-1].value
    results[-1].value = (value + 0.01, assignment)
    assert workloads.judge(ops[-1], results[-1])[:2] == (True, True)


def test_misscaled_complement_integral_is_a_failure(monkeypatch):
    import dataclasses

    import fadingdirt.bounds_rcsi as br
    ops = workloads.continuous_canonical_ops()
    for op in ops:
        assert workloads.judge(op, workloads.run_op(op)) == (False, False, None)
    original = br.continuous_interval_params

    def halved_g(dist, interval):
        cp = original(dist, interval)
        return dataclasses.replace(cp, G_tilde_cont=cp.G_tilde_cont / 2)

    monkeypatch.setattr(br, "continuous_interval_params", halved_g)
    for op in ops:
        assert workloads.judge(op, workloads.run_op(op))[:2] == (True, True), op.label


def test_checks_run_outside_the_traced_window():
    import run
    run.workloads = workloads
    ops = [op for op in workloads.montecarlo_ops(1, smoke=True) if op.info["rcsi"]]
    ops += workloads.solver_ops(1, smoke=True)
    tr = tracer.Tracer()
    tr.begin_pass()
    tally = run.Tally()
    run.run_pass(ops, {}, tally, tr)
    assert tally.failed == 0
    calls = tracer.pass_figures(tr.passes[0])["calls"]
    assert calls["gauss_mi.mi_monte_carlo"] == 2
    assert calls["gauss_mi.costa_rate_exact"] == 0
    assert calls["gp.evaluate_assignment"] == 0
