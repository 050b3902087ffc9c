import itertools
import json
import math

import numpy as np
import pytest

from fadingdirt import errors
from fadingdirt.cli import main
from fadingdirt.fading import strong_support


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_no_rcsi_example(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "no-rcsi",
                               "--P", "3", "--c", "2", "--dist", "gaussian")
        assert code == 0
        payload = json.loads(out)
        assert payload["outer"]["bits"] == pytest.approx(1.0, abs=1e-12)
        assert payload["inner"]["bits"] == pytest.approx(
            0.5 * math.log2(1 + 3 / 5), abs=1e-12)

    def test_mass_half(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "mass-half",
                               "--P", "15", "--c", "8", "--dist", "two-point")
        assert code == 0
        assert json.loads(out)["outer"]["bits"] == pytest.approx(2.0, abs=1e-12)

    def test_precondition_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--theorem", "no-rcsi",
                               "--P", "3", "--c", "0", "--dist", "gaussian")
        assert code == 3
        assert "ZeroGain" in err

    def test_parse_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--theorem", "no-rcsi", "--P", "3", "--bogus-flag"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("form", ["appendix", "theorem"])
    def test_form_flag_is_gone(self, capsys, form):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--theorem", "mass-half", "--P", "3", "--dist", "two-point",
                  "--form", form])
        assert exc.value.code == 2
        assert "unrecognized arguments: --form" in capsys.readouterr().err


_STRONG3 = json.dumps(strong_support(3, 2.0).to_json())
_ONE_ATOM = '{"kind":"discrete","atoms":[[0,1]]}'
# log-normal laws whose mass a quadrature over the support misses: the first
# on the 401-node grid of the no-RCSI mixture, the second also under `quad`
_UNIT_LOGNORMAL = '{"kind":"lognormal","mu":0.0,"sigma2":0.25,"scale":1.6559018331762287}'
_WIDE_LOGNORMAL = '{"kind":"lognormal","sigma2":1}'
# atoms whose squares overflow the closed forms
_HUGE_DOMINANT = '{"kind":"discrete","atoms":[[-1e170,0.6],[1e170,0.4]]}'
_HUGE_EVEN = '{"kind":"discrete","atoms":[[-1e170,0.5],[1e170,0.5]]}'

# outside input the theorems cannot take: malformed literals and files, and
# laws of the wrong kind
_BAD_INPUT = {
    "unknown-shorthand": ["bounds", "--theorem", "no-rcsi", "--P", "1", "--dist", "strong3"],
    "missing-key": ["bounds", "--theorem", "no-rcsi", "--P", "1",
                    "--dist", '{"kind":"uniform"}'],
    "short-atom": ["bounds", "--theorem", "mass-half", "--P", "1",
                   "--dist", '{"kind":"discrete","atoms":[[1]]}'],
    "non-numeric": ["bounds", "--theorem", "no-rcsi", "--P", "1",
                    "--dist", '{"kind":"gaussian","mean":"x"}'],
    "truncated-atoms": ["gp", "--example", "binary-nonoise", "--atoms", "[[1,0.5],[2"],
    "instance-missing-keys": ["gp", "--instance", "{instance}"],
    "instance-not-utf8": ["gp", "--instance", "{binary}"],
    "instance-missing-file": ["gp", "--instance", "{missing}/inst.json"],
    "out-missing-dir": ["verify", "--out", "{missing}/x.csv"],
    "mass-half-density": ["sweep", "--theorem", "mass-half", "--dist", "gaussian"],
    "continuous-atoms": ["bounds", "--theorem", "continuous", "--P", "1",
                         "--dist", "two-point"],
    "mi-negative-seed": ["mi", "--P", "3", "--seed", "-1"],
    "mi-norcsi-negative-seed": ["mi", "--no-rcsi", "--P", "3", "--dist", "gaussian",
                                "--n", "10000", "--seed", "-1"],
    "mi-nan-k": ["mi", "--P", "3", "--k", "nan"],
    "mi-infinite-a-target": ["mi", "--P", "3", "--a-target", "inf"],
    "gp-negative-seed": ["gp", "--example", "binary-nonoise", "--seed", "-1"],
    "gp-nan-tol": ["gp", "--example", "binary-nonoise", "--tol", "nan"],
    "sweep-negative-c2": ["sweep", "--theorem", "no-rcsi", "--dist", "gaussian",
                          "--c2-grid", "-1"],
    "sweep-strong-zero-c2": ["sweep", "--theorem", "strong", "--dist", _STRONG3,
                             "--c2-grid", "0", "--P-grid", "1"],
    "bounds-strong-one-atom": ["bounds", "--theorem", "strong", "--P", "1", "--c", "2",
                               "--dist", _ONE_ATOM],
    "sweep-strong-one-atom": ["sweep", "--theorem", "strong", "--dist", _ONE_ATOM],
    "mi-norcsi-overflow": ["mi", "--P", "3", "--no-rcsi", "--n", "10000",
                           "--dist", '{"kind":"lognormal","sigma2":800}'],
    "mi-norcsi-nonfinite": ["mi", "--P", "3", "--no-rcsi", "--n", "10000",
                            "--dist", _HUGE_EVEN],
    "bounds-mass-half-nonfinite": ["bounds", "--theorem", "mass-half", "--P", "10", "--c", "2",
                                   "--dist", _HUGE_DOMINANT],
    "bounds-strong-nonfinite": ["bounds", "--theorem", "strong", "--P", "10", "--c", "2",
                                "--dist", _HUGE_EVEN],
    "sweep-mass-half-nonfinite": ["sweep", "--theorem", "mass-half", "--dist", _HUGE_DOMINANT],
    "mi-norcsi-lognormal": ["mi", "--P", "3", "--c", "2", "--no-rcsi", "--n", "10000",
                            "--dist", _UNIT_LOGNORMAL],
    "unknown-kind": ["bounds", "--theorem", "no-rcsi", "--P", "1", "--dist", '{"kind":"nope"}'],
    "not-an-object": ["bounds", "--theorem", "no-rcsi", "--P", "1", "--dist", "[1, 2]"],
    "sweep-wide-lognormal": ["sweep", "--theorem", "continuous", "--dist", _WIDE_LOGNORMAL,
                             "--P-grid", "1", "--c2-grid", "1"],
    "bounds-wide-lognormal-interval": ["bounds", "--theorem", "continuous", "--P", "1",
                                       "--dist", _WIDE_LOGNORMAL, "--interval", "0.5", "2"],
}
# continuous-law literals with a non-finite or non-positive parameter, under
# both commands that integrate or sample the law, and the error each must name
_BAD_LAWS = {
    "gaussian-negative-var": ('{"kind":"gaussian","var":-1}', "ZeroVariance"),
    "gaussian-zero-var": ('{"kind":"gaussian","var":0}', "ZeroVariance"),
    "gaussian-nan-mean": ('{"kind":"gaussian","mean":"nan"}', "NonFinite"),
    "uniform-infinite": ('{"kind":"uniform","lo":"-inf","hi":1}', "NonFinite"),
    "rayleigh-infinite": ('{"kind":"rayleigh","sigma":"inf"}', "NonFinite"),
}
_EXPECTED_KIND = {
    "sweep-negative-c2": "SpecInvalid",
    "sweep-strong-zero-c2": "ZeroGain",
    "bounds-strong-one-atom": "NotUniform",
    "sweep-strong-one-atom": "NotUniform",
    "mi-norcsi-overflow": "QuadratureFailure",
    "mi-norcsi-nonfinite": "NonFinite",
    "bounds-mass-half-nonfinite": "NonFinite",
    "bounds-strong-nonfinite": "NonFinite",
    "sweep-mass-half-nonfinite": "NonFinite",
    "mi-norcsi-lognormal": "QuadratureFailure",
    "unknown-kind": "SpecInvalid",
    "not-an-object": "SpecInvalid",
    "sweep-wide-lognormal": "QuadratureFailure",
    "bounds-wide-lognormal-interval": "QuadratureFailure",
}
for _name, (_law, _kind) in _BAD_LAWS.items():
    _BAD_INPUT[f"bounds-{_name}"] = ["bounds", "--theorem", "continuous", "--P", "10",
                                     "--c", "3", "--dist", _law]
    _BAD_INPUT[f"mi-{_name}"] = ["mi", "--no-rcsi", "--P", "10", "--c", "3",
                                 "--n", "10000", "--dist", _law]
    _EXPECTED_KIND[f"bounds-{_name}"] = _EXPECTED_KIND[f"mi-{_name}"] = _kind


@pytest.mark.parametrize("name", list(_BAD_INPUT))
def test_bad_input_exit_3(capsys, tmp_path, name):
    instance = tmp_path / "inst.json"
    instance.write_text('{"states": [0, 1]}')
    binary = tmp_path / "inst.bin"
    binary.write_bytes(b'{"states": "\xff"}')
    paths = {"{instance}": instance, "{binary}": binary, "{missing}": tmp_path / "missing"}
    argv = list(_BAD_INPUT[name])
    for key, path in paths.items():
        argv = [a.replace(key, str(path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    kind = err.split(":")[1].strip()
    assert issubclass(getattr(errors, kind), errors.ToolkitError), err
    assert kind == _EXPECTED_KIND.get(name, kind), err


class TestSweepVerify:
    def test_preset_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "gaussian-smoke",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 10
        assert all(len(line.split(",")) == 13 for line in lines)

    def test_explicit_grids(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--theorem", "mass-half",
                               "--dist", "two-point", "--P-grid", "1,10",
                               "--c2-grid", "4", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_verify_runs_and_reports(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--preset", "gaussian-smoke",
                                 "--grid", "smoke", "--format", "csv")
        assert code == 0  # claim violations are results, not errors
        assert out.startswith("theorem,")
        assert "violated" in err

    def test_byte_identical_stdout(self, capsys):
        argv = ("verify", "--preset", "mass-half", "--grid", "smoke",
                "--format", "csv")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ("sweep", "--preset", "gaussian-smoke", "--threads", "2"),
        ("sweep", "--preset", "gaussian-smoke", "--seed", "0"),
        ("verify", "--preset", "gaussian-smoke", "--threads", "2"),
    ], ids=["sweep-threads", "sweep-seed", "verify-threads"])
    def test_removed_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("sweep", "--preset", "gaussian-smoke", "--theorem", "mass-half", "--dist", "two-point",
         "--P-grid", "7"),
        ("gp", "--example", "binary-nonoise", "--instance", "f.json"),
    ], ids=["sweep-preset-and-theorem", "gp-example-and-instance"])
    def test_conflicting_modes_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--preset", "gaussian-smoke", "--dist", "two-point"),
        ("sweep", "--preset", "gaussian-smoke", "--P-grid", "7"),
        ("sweep", "--preset", "gaussian-smoke", "--c2-grid", "4"),
        ("sweep", "--preset", "phase-binomial", "--Q-grid", "1"),
        ("sweep", "--preset", "phase-binomial", "--delta", "0"),
        ("gp", "--instance", "f.json", "--atoms", "[[1,1]]"),
        ("gp", "--instance", "f.json", "--no-rcsi"),
        ("gp", "--instance", "f.json", "--aux-size", "4"),
    ], ids=lambda argv: f"{argv[1]}-{argv[3]}")
    def test_flags_the_mode_ignores_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[3]}: not allowed with argument {argv[1]}" in err

    def test_omitted_delta_is_a_right_angle(self, capsys):
        base = ("sweep", "--theorem", "phase-binomial", "--P-grid", "1,10", "--Q-grid", "4")
        _, omitted, _ = run_cli(capsys, *base)
        _, given, _ = run_cli(capsys, *base, "--delta", repr(math.pi / 2))
        _, other, _ = run_cli(capsys, *base, "--delta", "1.2")
        assert omitted == given != other

    def test_zero_atom_without_dominant_atom_exit_3(self, capsys):
        dist = '{"kind":"discrete","atoms":[[-1,0.45],[0,0.1],[1,0.45]]}'
        code, out, err = run_cli(capsys, "sweep", "--theorem", "mass-half",
                                 "--dist", dist, "--P-grid", "1", "--c2-grid", "4")
        assert code == 3
        assert out == ""
        assert "ZeroAtomCollision" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "sweep", "--preset", "gaussian-smoke",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_bytes().startswith(b"theorem,")


class TestMiGp:
    def test_mi_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "mi", "--P", "15", "--c", "8",
                               "--dist", "two-point", "--a-target", "-1",
                               "--n", "10000", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["stderr_bits"] > 0
        assert math.isfinite(payload["estimate_bits"])

    def test_mi_rejects_small_n(self, capsys):
        code, _, err = run_cli(capsys, "mi", "--P", "1", "--n", "100")
        assert code == 3
        assert "InsufficientSamples" in err

    def test_gp_example(self, capsys):
        code, out, _ = run_cli(capsys, "gp", "--example", "binary-nonoise",
                               "--atoms", "[[-1,0.5],[1,0.5]]",
                               "--restarts", "16", "--seed", "0")
        assert code == 0
        assert json.loads(out)["value_bits"] >= 0.999

    def test_gp_instance_file(self, capsys, tmp_path):
        from fadingdirt.gp import binary_nonoise_instance
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(binary_nonoise_instance(
            [(-1.0, 0.5), (1.0, 0.5)]).to_json()))
        code, out, _ = run_cli(capsys, "gp", "--instance", str(path),
                               "--restarts", "8")
        assert code == 0
        assert json.loads(out)["value_bits"] >= 0.99

    def test_gp_non_monotone_step_exit_3(self, capsys, monkeypatch):
        from fadingdirt import gp
        values = itertools.count(0.0, -1.0)  # every step loses a bit
        monkeypatch.setattr(gp, "_objective",
                            lambda inst, p_su, p_uy: np.full(p_su.shape[:-2], next(values)))
        code, out, err = run_cli(capsys, "gp", "--example", "binary-nonoise",
                                 "--restarts", "1")
        assert code == 3
        assert out == ""
        assert "AscentNotMonotone" in err

    def test_gp_one_restart_loses_value_exit_3(self, capsys, monkeypatch):
        from fadingdirt import gp
        calls = itertools.count()

        def objective(inst, p_su, p_uy):  # restart 2 of 4 loses a bit at its first step
            vals = np.zeros(p_su.shape[:-2])
            if next(calls):
                vals[2] = -1.0
            return vals

        monkeypatch.setattr(gp, "_objective", objective)
        code, out, err = run_cli(capsys, "gp", "--example", "binary-nonoise",
                                 "--restarts", "4")
        assert code == 3
        assert out == ""
        assert err == "error: AscentNotMonotone: restart 2: step lowered 0.0 to -1.0\n"

    def test_gp_needs_source(self, capsys):
        code, _, err = run_cli(capsys, "gp")
        assert code == 3
        assert "SpecInvalid" in err


class TestHelp:
    @pytest.mark.parametrize("cmd,flags", [
        ("bounds", ["--theorem", "--P", "--c", "--mu-A", "--Q", "--delta",
                    "--dist", "--interval"]),
        ("sweep", ["--preset", "--theorem", "--dist", "--P-grid", "--c2-grid",
                   "--Q-grid", "--delta", "--format", "--out"]),
        ("verify", ["--preset", "--grid", "--format", "--out"]),
        ("mi", ["--P", "--c", "--mu-A", "--dist", "--a-target", "--k",
                "--split", "--no-rcsi", "--n", "--seed"]),
        ("gp", ["--instance", "--example", "--atoms", "--no-rcsi",
                "--aux-size", "--restarts", "--seed", "--tol"]),
    ])
    def test_flags_documented(self, capsys, cmd, flags):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
