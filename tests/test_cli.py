import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fadingdirt
from fadingdirt import cli, errors, harness
from fadingdirt.cli import main
from fadingdirt.bounds_norcsi import ChannelParams
from fadingdirt.fading import parse_distribution, strong_support
from fadingdirt.gauss_mi import CostaAssignment, costa_rate_exact

from laws import TABULATED_0


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a parse error or --help
        code = exc.code
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

    def test_no_rcsi_takes_a_gain_whose_square_overflows(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "no-rcsi",
                               "--P", "10", "--c", "1e200")
        assert code == 0
        payload = json.loads(out)
        assert payload["inner"]["bits"] == 0.0
        assert payload["outer"]["bits"] == pytest.approx(0.5, abs=1e-12)

    def test_phase_theorem_reads_no_law(self, capsys, monkeypatch):
        from fadingdirt import cli

        def no_law(text):
            raise AssertionError(f"parsed a law: {text!r}")

        monkeypatch.setattr(cli, "parse_distribution", no_law)
        monkeypatch.setattr(harness, "parse_distribution", no_law)
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "phase-binomial",
                               "--P", "10", "--c", "2")
        assert code == 0
        assert set(json.loads(out)) == {"inner", "outer"}

    def test_interval_mass_half_within_quadrature_tolerance(self, capsys):
        # P(I) = 0.49999999988 by quadrature: the interval is accepted, and
        # the outer bound's flag reads the same rule
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "continuous", "--P", "10",
                               "--c", "3", "--interval", "-0.67448975", "0.67448975")
        assert code == 0
        assert json.loads(out)["outer"]["assumptions_ok"] == {"prob_I_half": True}

    def test_interval_past_the_support_finds_its_mass(self, capsys):
        # QUADPACK missed the mass near 0 on [-1, 1e5] and read P(I) = 0; P(I)
        # is now integrated over I and the support's intersection
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "continuous", "--P", "10",
                               "--c", "3", "--dist", "gaussian", "--interval", "-1", "1e5")
        assert code == 0
        assert json.loads(out)["outer"]["assumptions_ok"] == {"prob_I_half": True}

    def test_dominant_mass_within_rounding_matches_the_sweep_row(self, capsys):
        law = ('{"kind":"discrete","atoms":[[-1.0,0.2500000000002],[0.5,0.4999999999996],'
               '[2.0,0.2500000000002]]}')
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "mass-half", "--P", "10",
                               "--c", "2", "--dist", law)
        assert code == 0
        payload = json.loads(out)
        assert payload["inner"]["assumptions_ok"]["dominant_mass"] is True
        assert payload["outer"]["assumptions_ok"]["dominant_mass"] is True
        _, swept, _ = run_cli(capsys, "sweep", "--theorem", "mass-half", "--dist", law,
                              "--P-grid", "10", "--c2-grid", "4", "--format", "json")
        (row,) = json.loads(swept)
        assert row["assumptions_ok"] is True


_STRONG3 = json.dumps(strong_support(3, 2.0).to_json())
_STRONG4 = json.dumps(strong_support(4, 2.0).to_json())
_ONE_ATOM = '{"kind":"discrete","atoms":[[0,1]]}'
# strong_support(4, 2) moved to mean 1; its spacing condition fails at c = 8
_STRONG4_SHIFTED = json.dumps({"kind": "discrete", "atoms": [
    [v + 1.0, 0.25] for v in strong_support(4, 2.0).values.tolist()]})
# log-normal laws whose mass a quadrature over the support misses: the first
# on the 401-node grid of the no-RCSI mixture, the second also under `quad`
_UNIT_LOGNORMAL = '{"kind":"lognormal","mu":0.0,"sigma2":0.25,"scale":1.6559018331762287}'
_WIDE_LOGNORMAL = '{"kind":"lognormal","sigma2":1}'
# atoms whose squares overflow the closed forms
_HUGE_DOMINANT = '{"kind":"discrete","atoms":[[-1e170,0.6],[1e170,0.4]]}'
_HUGE_EVEN = '{"kind":"discrete","atoms":[[-1e170,0.5],[1e170,0.5]]}'
# laws whose variance (and, for the second, mean) leaves the float range
_HUGE_RAYLEIGH = '{"kind":"rayleigh","sigma":1e200}'
_HUGE_LOGNORMAL = '{"kind":"lognormal","mu":800}'
_WIDEST_LOGNORMAL = '{"kind":"lognormal","sigma2":1000}'

# four atoms, none of mass >= 1/2
_NO_DOMINANT = '{"kind":"discrete","atoms":[[-1.5,0.3],[-0.5,0.2],[0.5,0.2],[1.5,0.3]]}'


def _gp_instance(prior="[0.5,0.5]", aux_size=2, kernel="[[[1,0],[1,0]],[[0,1],[0,1]]]"):
    """A two-symbol GP instance literal, with any of three fields replaced."""
    return ('{"states":[0,1],"prior":%s,"inputs":[0,1],"aux_size":%s,"outputs":[0,1],'
            '"kernel":%s}' % (prior, aux_size, kernel))


# the files that the `gp --instance` rows read, by the placeholder of their path
_INSTANCE_FILES = {
    "{instance}": b'{"states": [0, 1]}',
    "{binary}": b'{"states": "\xff"}',
    "{nan-prior}": _gp_instance(prior="[NaN,0.5]").encode(),
    "{nan-kernel}": _gp_instance(kernel="[[[1,0],[1,0]],[[0,1],[NaN,1]]]").encode(),
    "{short-prior}": _gp_instance(prior="[1]").encode(),
    "{zero-aux}": _gp_instance(aux_size=0).encode(),
    "{short-kernel}": _gp_instance(kernel="[[[1,0],[1,0]]]").encode(),
}
# a NaN mass passed every check of its law before the pairs were checked finite
_NAN_MASS = '{"kind":"discrete","atoms":[[0,NaN],[1,1]]}'

# outside input the theorems cannot take, and the error kind each must name:
# malformed literals and files, laws of the wrong kind, and values past a
# theorem's domain or the float range
_BAD_INPUT = {
    "unknown-shorthand": ("SpecInvalid", ["bounds", "--theorem", "no-rcsi", "--P", "1",
                                          "--dist", "strong3"]),
    "missing-key": ("SpecInvalid", ["bounds", "--theorem", "no-rcsi", "--P", "1",
                                    "--dist", '{"kind":"uniform"}']),
    "short-atom": ("SpecInvalid", ["bounds", "--theorem", "mass-half", "--P", "1",
                                   "--dist", '{"kind":"discrete","atoms":[[1]]}']),
    "non-numeric": ("SpecInvalid", ["bounds", "--theorem", "no-rcsi", "--P", "1",
                                    "--dist", '{"kind":"gaussian","mean":"x"}']),
    "truncated-atoms": ("SpecInvalid", ["gp", "--example", "binary-nonoise",
                                        "--atoms", "[[1,0.5],[2"]),
    "instance-missing-keys": ("SpecInvalid", ["gp", "--instance", "{instance}"]),
    "instance-not-utf8": ("SpecInvalid", ["gp", "--instance", "{binary}"]),
    "instance-missing-file": ("FileInaccessible", ["gp", "--instance", "{missing}/inst.json"]),
    "out-missing-dir": ("FileInaccessible", ["verify", "--out", "{missing}/x.csv"]),
    "gp-no-source": ("SpecInvalid", ["gp"]),
    "mass-half-density": ("NoDominantAtom", ["sweep", "--theorem", "mass-half",
                                             "--dist", "gaussian"]),
    "continuous-atoms": ("NotUniform", ["bounds", "--theorem", "continuous", "--P", "1",
                                        "--dist", "two-point"]),
    "no-rcsi-zero-gain": ("ZeroGain", ["bounds", "--theorem", "no-rcsi", "--P", "3", "--c", "0",
                                       "--dist", "gaussian"]),
    "mi-small-n": ("InsufficientSamples", ["mi", "--P", "1", "--n", "100"]),
    "mi-negative-seed": ("SpecInvalid", ["mi", "--P", "3", "--seed", "-1"]),
    "mi-norcsi-negative-seed": ("SpecInvalid", ["mi", "--no-rcsi", "--P", "3", "--dist",
                                                "gaussian", "--n", "10000", "--seed", "-1"]),
    "mi-nan-k": ("NonFinite", ["mi", "--P", "3", "--k", "nan"]),
    "mi-infinite-a-target": ("NonFinite", ["mi", "--P", "3", "--a-target", "inf"]),
    "gp-negative-seed": ("SpecInvalid", ["gp", "--example", "binary-nonoise", "--seed", "-1"]),
    "gp-nan-tol": ("SpecInvalid", ["gp", "--example", "binary-nonoise", "--tol", "nan"]),
    "sweep-negative-c2": ("SpecInvalid", ["sweep", "--theorem", "no-rcsi", "--dist", "gaussian",
                                          "--c2-grid", "-1"]),
    "sweep-strong-zero-c2": ("ZeroGain", ["sweep", "--theorem", "strong", "--dist", _STRONG3,
                                          "--c2-grid", "0", "--P-grid", "1"]),
    "bounds-strong-one-atom": ("NotUniform", ["bounds", "--theorem", "strong", "--P", "1",
                                              "--c", "2", "--dist", _ONE_ATOM]),
    "sweep-strong-one-atom": ("NotUniform", ["sweep", "--theorem", "strong", "--dist", _ONE_ATOM]),
    "bounds-strong-condition": ("ConditionNotVerified", ["bounds", "--theorem", "strong",
                                                         "--P", "10", "--c", "8",
                                                         "--dist", _STRONG4_SHIFTED]),
    "mi-norcsi-overflow": ("NonFinite", ["mi", "--P", "3", "--no-rcsi", "--n", "10000",
                                         "--dist", '{"kind":"lognormal","sigma2":800}']),
    "mi-norcsi-nonfinite": ("NonFinite", ["mi", "--P", "3", "--no-rcsi", "--n", "10000",
                                          "--dist", _HUGE_EVEN]),
    "mi-huge-lognormal": ("NonFinite", ["mi", "--P", "3", "--n", "10000",
                                        "--dist", _HUGE_LOGNORMAL]),
    # second moments of U and Y that overflow once squared draws meet them
    "mi-overflow-k": ("NonFinite", ["mi", "--P", "3", "--c", "2", "--dist", "two-point",
                                    "--n", "10000", "--k", "1e200"]),
    "mi-overflow-P": ("NonFinite", ["mi", "--P", "1e308", "--c", "2", "--dist", "two-point",
                                    "--n", "10000"]),
    "mi-overflow-c": ("NonFinite", ["mi", "--P", "3", "--c", "1e154", "--dist", "two-point",
                                    "--n", "10000"]),
    "mi-overflow-a-target": ("NonFinite", ["mi", "--P", "3", "--c", "2", "--dist", "two-point",
                                           "--n", "10000", "--a-target", "1e200"]),
    "bounds-mass-half-nonfinite": ("NonFinite", ["bounds", "--theorem", "mass-half", "--P", "10",
                                                 "--c", "2", "--dist", _HUGE_DOMINANT]),
    "bounds-strong-nonfinite": ("NonFinite", ["bounds", "--theorem", "strong", "--P", "10",
                                              "--c", "2", "--dist", _HUGE_EVEN]),
    "sweep-mass-half-nonfinite": ("NonFinite", ["sweep", "--theorem", "mass-half",
                                                "--dist", _HUGE_DOMINANT]),
    "mi-norcsi-lognormal": ("QuadratureFailure", ["mi", "--P", "3", "--c", "2", "--no-rcsi",
                                                  "--n", "10000", "--dist", _UNIT_LOGNORMAL]),
    "unknown-kind": ("SpecInvalid", ["bounds", "--theorem", "no-rcsi", "--P", "1",
                                     "--dist", '{"kind":"nope"}']),
    "not-an-object": ("SpecInvalid", ["bounds", "--theorem", "no-rcsi", "--P", "1",
                                      "--dist", "[1, 2]"]),
    "sweep-wide-lognormal": ("QuadratureFailure", ["sweep", "--theorem", "continuous",
                                                   "--dist", _WIDE_LOGNORMAL,
                                                   "--P-grid", "1", "--c2-grid", "1"]),
    "bounds-wide-lognormal-interval": ("QuadratureFailure", [
        "bounds", "--theorem", "continuous", "--P", "1", "--dist", _WIDE_LOGNORMAL,
        "--interval", "0.5", "2"]),
    "bounds-phase-zero-gain": ("ZeroGain", ["bounds", "--theorem", "phase-binomial", "--P", "3",
                                            "--c", "0"]),
    "bounds-empty-interval": ("IntervalMassTooSmall", ["bounds", "--theorem", "continuous",
                                                       "--P", "3", "--interval", "1", "1"]),
    "sweep-non-numeric-grid": ("SpecInvalid", ["sweep", "--theorem", "no-rcsi",
                                               "--dist", "gaussian", "--P-grid", "x"]),
    "sweep-nan-grid": ("SpecInvalid", ["sweep", "--theorem", "no-rcsi", "--dist", "gaussian",
                                       "--P-grid", "nan"]),
    # a density has no atoms to space; `bounds --dist` defaults to gaussian
    "bounds-strong-density": ("NotUniform", ["bounds", "--theorem", "strong", "--P", "1",
                                             "--c", "2"]),
    "sweep-strong-density": ("NotUniform", ["sweep", "--theorem", "strong", "--dist", "gaussian"]),
    # no atom of mass >= 1/2: `bounds` raises where a sweep evaluates at the largest atom
    "bounds-mass-half-no-dominant": ("NoDominantAtom", ["bounds", "--theorem", "mass-half",
                                                        "--P", "10", "--dist", _NO_DOMINANT]),
    # the zero atom is not the dominant one, so the sweep's largest atom meets it
    "sweep-mass-half-zero-atom": ("ZeroAtomCollision", [
        "sweep", "--theorem", "mass-half", "--P-grid", "1", "--c2-grid", "4",
        "--dist", '{"kind":"discrete","atoms":[[-1,0.45],[0,0.1],[1,0.45]]}']),
    # `bounds` parses the law, then checks P and c, then builds the law's constants
    "bounds-malformed-law-before-power": ("SpecInvalid", ["bounds", "--theorem", "mass-half",
                                                          "--P", "-1",
                                                          "--dist", '{"kind":"nope"}']),
    "bounds-power-before-dominant-atom": ("DegenerateDenominator", [
        "bounds", "--theorem", "mass-half", "--P", "-1", "--dist", _NO_DOMINANT]),
    # a NaN mass passed the mass check and no restart beat -inf; a NaN atom
    # missed its output symbol; an infinite atom exited 0 with an infinite value
    "gp-nan-mass": ("NonFinite", ["gp", "--example", "binary-nonoise",
                                  "--atoms", "[[1,NaN],[-1,1]]"]),
    "gp-nan-atom": ("NonFinite", ["gp", "--example", "binary-nonoise",
                                  "--atoms", "[[NaN,0.5],[-1,0.5]]"]),
    "gp-infinite-atom": ("NonFinite", ["gp", "--example", "binary-nonoise",
                                       "--atoms", "[[Infinity,0.5],[-1,0.5]]"]),
    "instance-nan-prior": ("NonFinite", ["gp", "--instance", "{nan-prior}"]),
    "instance-nan-kernel": ("NonFinite", ["gp", "--instance", "{nan-kernel}"]),
    "instance-short-prior": ("SpecInvalid", ["gp", "--instance", "{short-prior}"]),
    "instance-zero-aux": ("SpecInvalid", ["gp", "--instance", "{zero-aux}"]),
    "instance-short-kernel": ("SpecInvalid", ["gp", "--instance", "{short-kernel}"]),
    # QUADPACK returned nan on an infinite end; a NaN end read as an empty interval
    "bounds-infinite-interval": ("NonFinite", ["bounds", "--theorem", "continuous", "--P", "10",
                                               "--c", "3", "--interval", "0", "inf"]),
    "bounds-nan-interval": ("NonFinite", ["bounds", "--theorem", "continuous", "--P", "10",
                                          "--c", "3", "--interval", "0", "nan"]),
    # the gaussian density's square overflowed on the a' grid, and 100 halvings
    # of a cell 5e196 wide left a' at 1.97e66; its root lies past the support
    "bounds-wide-interval": ("RootNotFound", ["bounds", "--theorem", "continuous", "--P", "10",
                                              "--c", "3", "--interval", "-1", "1e200"]),
    # the density's spike, 1e-7 wide at 0.00025, falls between two points of
    # the a' grid, which never sees it cross P(I)/(b - a)
    "bounds-never-crosses": ("RootNotFound", [
        "bounds", "--theorem", "continuous", "--P", "1", "--c", "1",
        "--dist", '{"kind":"gaussian","mean":0.00025,"var":1e-14}', "--interval", "-1", "1"]),
    # gains and powers whose squares or products leave the float range
    "overflow-continuous-gain": ("NonFinite", ["bounds", "--theorem", "continuous", "--P", "10",
                                               "--c", "1e200", "--dist", "gaussian"]),
    # c^2 is finite but P c^2 is not, which quad would turn into a silent 0 bits
    "overflow-continuous-power-gain": ("NonFinite", ["bounds", "--theorem", "continuous",
                                                     "--P", "10", "--c", "1e154",
                                                     "--dist", "gaussian"]),
    "overflow-continuous-sweep-power-gain": ("NonFinite", ["sweep", "--theorem", "continuous",
                                                           "--dist", "gaussian", "--P-grid", "10",
                                                           "--c2-grid", "1e308"]),
    "overflow-strong-gain": ("NonFinite", ["bounds", "--theorem", "strong", "--P", "10",
                                           "--c", "1e200", "--dist", _STRONG4]),
    "overflow-phase-binomial-power": ("NonFinite", ["bounds", "--theorem", "phase-binomial",
                                                    "--P", "1e308", "--c", "1e154",
                                                    "--delta", "1.5"]),
    "overflow-mass-half-gain": ("NonFinite", ["bounds", "--theorem", "mass-half", "--P", "10",
                                              "--c", "1e200", "--dist", "two-point"]),
    "overflow-mi-norcsi-gain": ("NonFinite", ["mi", "--no-rcsi", "--P", "3", "--c", "1e200",
                                              "--dist", "gaussian", "--n", "10000"]),
    # numpy's ValueError and min() of an empty sequence ended in a traceback
    "nan-mass-mi": ("NonFinite", ["mi", "--P", "3", "--n", "10000", "--dist", _NAN_MASS]),
    "nan-mass-sweep": ("NonFinite", ["sweep", "--theorem", "mass-half", "--dist", _NAN_MASS]),
}
# law literals that fail their own checks, read by `bounds --theorem no-rcsi`
_BAD_LITERALS = {
    "discrete-no-atoms": ('{"kind":"discrete","atoms":[]}', "ZeroVariance"),
    "discrete-negative-mass": ('{"kind":"discrete","atoms":[[1,-0.5],[2,1.5]]}', "InvalidP"),
    "discrete-nan-atom": ('{"kind":"discrete","atoms":[[NaN,1]]}', "NonFinite"),
    "uniform-point": ('{"kind":"uniform","lo":1,"hi":1}', "ZeroVariance"),
    "tabulated-two-nodes": ('{"kind":"tabulated","grid":[[0,1],[1,1]]}', "ZeroVariance"),
    "discrete-unsorted": ('{"kind":"discrete","atoms":[[1,0.5],[-1,0.5]]}', "SpecInvalid"),
    "tabulated-unsorted": ('{"kind":"tabulated","grid":[[0,1],[2,1],[1,1]]}', "SpecInvalid"),
    "tabulated-negative-density": ('{"kind":"tabulated","grid":[[0,1],[1,-1],[2,1]]}',
                                   "InvalidP"),
    "rayleigh-zero-sigma": ('{"kind":"rayleigh","sigma":0}', "ZeroVariance"),
    "lognormal-zero-sigma2": ('{"kind":"lognormal","sigma2":0}', "ZeroVariance"),
    "discrete-mass-0.9": ('{"kind":"discrete","atoms":[[-1,0.45],[1,0.45]]}', "InvalidP"),
    "tabulated-mass-3": ('{"kind":"tabulated","grid":[[0,3],[0.5,3],[1,3]]}', "InvalidP"),
    "discrete-nan-mass": (_NAN_MASS, "NonFinite"),
    "discrete-infinite-mass": ('{"kind":"discrete","atoms":[[0,Infinity],[1,1]]}', "NonFinite"),
    "tabulated-nan-density": ('{"kind":"tabulated","grid":[[0,1],[1,NaN],[2,1]]}', "NonFinite"),
    "tabulated-infinite-node": ('{"kind":"tabulated","grid":[[-1,0],[0,1],[1,0],[Infinity,0]]}',
                                "NonFinite"),
    "unhashable-kind": ('{"kind":[1]}', "SpecInvalid"),
    "null-kind": ('{"kind":null}', "SpecInvalid"),
    "undeclared-key": ('{"kind":"gaussian","extra":1}', "SpecInvalid"),
    "misspelt-key": ('{"kind":"lognormal","sigma":0.5}', "SpecInvalid"),
    "huge-rayleigh": (_HUGE_RAYLEIGH, "NonFinite"),
    "huge-lognormal": (_HUGE_LOGNORMAL, "NonFinite"),
    "widest-lognormal": (_WIDEST_LOGNORMAL, "NonFinite"),
}
# continuous-law literals with a non-finite or non-positive parameter, a
# sigma whose square underflows, or moments past the float range, under both
# commands that integrate or sample the law, and the error each must name
_BAD_LAWS = {
    "gaussian-negative-var": ('{"kind":"gaussian","var":-1}', "ZeroVariance"),
    "gaussian-zero-var": ('{"kind":"gaussian","var":0}', "ZeroVariance"),
    "gaussian-nan-mean": ('{"kind":"gaussian","mean":"nan"}', "NonFinite"),
    "uniform-infinite": ('{"kind":"uniform","lo":"-inf","hi":1}', "NonFinite"),
    "rayleigh-infinite": ('{"kind":"rayleigh","sigma":"inf"}', "NonFinite"),
    "rayleigh-huge": (_HUGE_RAYLEIGH, "NonFinite"),
    "rayleigh-underflow": ('{"kind":"rayleigh","sigma":1e-170}', "ZeroVariance"),
    "lognormal-huge": (_HUGE_LOGNORMAL, "NonFinite"),
    "lognormal-widest": (_WIDEST_LOGNORMAL, "NonFinite"),
}
for _name, (_law, _kind) in _BAD_LITERALS.items():
    _BAD_INPUT[_name] = (_kind, ["bounds", "--theorem", "no-rcsi", "--P", "1", "--dist", _law])
for _name, (_law, _kind) in _BAD_LAWS.items():
    _BAD_INPUT[f"bounds-{_name}"] = (_kind, ["bounds", "--theorem", "continuous", "--P", "10",
                                             "--c", "3", "--dist", _law])
    _BAD_INPUT[f"mi-{_name}"] = (_kind, ["mi", "--no-rcsi", "--P", "10", "--c", "3",
                                         "--n", "10000", "--dist", _law])


def test_gp_instance_template_runs(capsys, tmp_path):
    # the instance-nan-* cases fail on their NaN alone
    path = tmp_path / "inst.json"
    path.write_text(_gp_instance())
    code, out, _ = run_cli(capsys, "gp", "--instance", str(path), "--restarts", "2")
    assert code == 0
    assert math.isfinite(json.loads(out)["value_bits"])


@pytest.mark.parametrize("name", list(_BAD_INPUT))
def test_bad_input_exit_3(capsys, tmp_path, name):
    paths = {"{missing}": tmp_path / "missing"}
    for i, (key, data) in enumerate(_INSTANCE_FILES.items()):
        paths[key] = tmp_path / f"inst{i}.json"
        paths[key].write_bytes(data)
    kind, argv = _BAD_INPUT[name]
    for key, path in paths.items():
        argv = [a.replace(key, str(path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    # one line: under warnings-as-errors a warning raises where it is issued,
    # and the traceback it starts escapes `main`
    line = re.fullmatch(r"error: (\w+): .*\n", err)
    assert line, err
    assert line.group(1) == kind, err
    assert issubclass(getattr(errors, kind), errors.ToolkitError)
    assert "np.float64(" not in err


# command lines that argparse rejects, and the part of its message that names
# the offending flag, worded alike on Python 3.10 and 3.11
_PARSE_ERRORS = {
    "bounds-bogus-flag": (["bounds", "--theorem", "no-rcsi", "--P", "3", "--bogus-flag"],
                          "unrecognized arguments: --bogus-flag"),
    # flags that the chosen mode would ignore
    "instance-and-atoms": (["gp", "--instance", "f.json", "--atoms", "[[1,1]]"],
                           "argument --atoms: not allowed with argument --instance"),
    "instance-and-no-rcsi": (["gp", "--instance", "f.json", "--no-rcsi"],
                             "argument --no-rcsi: not allowed with argument --instance"),
    "instance-and-aux-size": (["gp", "--instance", "f.json", "--aux-size", "4"],
                              "argument --aux-size: not allowed with argument --instance"),
    "example-and-instance": (["gp", "--example", "binary-nonoise", "--instance", "f.json"],
                             "argument --instance: not allowed with argument --example"),
    "mi-no-rcsi-and-a-target": (["mi", "--P", "3", "--no-rcsi", "--a-target", "5"],
                                "argument --a-target: not allowed with argument --no-rcsi"),
    "mi-k-and-a-target": (["mi", "--P", "3", "--dist", "two-point", "--k", "1",
                           "--a-target", "5"],
                          "argument --a-target: not allowed with argument --k"),
    # removed flags: the worker pool, the sweep seed, the fading mean and the
    # phase theorem's Q (which is c^2), and the printed-form switch
    "sweep-threads": (["sweep", "--theorem", "no-rcsi", "--dist", "gaussian", "--threads", "2"],
                      "unrecognized arguments: --threads 2"),
    "sweep-seed": (["sweep", "--theorem", "no-rcsi", "--dist", "gaussian", "--seed", "0"],
                   "unrecognized arguments: --seed 0"),
    "verify-threads": (["verify", "--preset", "phase-binomial", "--threads", "2"],
                       "unrecognized arguments: --threads 2"),
    "bounds-mu-A": (["bounds", "--theorem", "strong", "--P", "10", "--dist", "two-point",
                     "--mu-A", "1"], "unrecognized arguments: --mu-A 1"),
    "bounds-Q": (["bounds", "--theorem", "phase-binomial", "--P", "10", "--Q", "4"],
                 "unrecognized arguments: --Q 4"),
    "sweep-Q-grid": (["sweep", "--theorem", "phase-binomial", "--Q-grid", "4"],
                     "unrecognized arguments: --Q-grid 4"),
    "mi-mu-A": (["mi", "--P", "3", "--no-rcsi", "--mu-A", "0.5"],
                "unrecognized arguments: --mu-A 0.5"),
    "bounds-form-appendix": (["bounds", "--theorem", "mass-half", "--P", "3",
                              "--dist", "two-point", "--form", "appendix"],
                             "unrecognized arguments: --form appendix"),
    "bounds-form-theorem": (["bounds", "--theorem", "mass-half", "--P", "3",
                             "--dist", "two-point", "--form", "theorem"],
                            "unrecognized arguments: --form theorem"),
    # `verify --preset X --grid full` writes the claim grids
    "sweep-preset": (["sweep", "--theorem", "strong", "--preset", "strong"],
                     "unrecognized arguments: --preset strong"),
    "sweep-no-theorem": (["sweep", "--dist", "gaussian"],
                         "the following arguments are required: --theorem"),
    # the full grid is the only claim grid
    "verify-grid-smoke": (["verify", "--grid", "smoke"],
                          "argument --grid: invalid choice: 'smoke'"),
    # the same grid is `sweep --theorem no-rcsi --dist gaussian --P-grid
    # 1,10,100 --c2-grid 4,16,64`
    "verify-gaussian-smoke": (["verify", "--preset", "gaussian-smoke"],
                              "argument --preset: invalid choice: 'gaussian-smoke'"),
}


@pytest.mark.parametrize("name", list(_PARSE_ERRORS))
def test_parse_error_exit_2(capsys, name):
    argv, message = _PARSE_ERRORS[name]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err, err


# numbers that float() reads but argparse's negative-number pattern does not
# (it has no exponent or infinity), each against a spelling argparse reads:
# the `=` form, or for the two values of --interval the plain decimal
_EXPONENT_FORMS = {
    "bounds-gain": (["bounds", "--theorem", "no-rcsi", "--P", "10", "--c", "-1e-3"],
                    ["bounds", "--theorem", "no-rcsi", "--P", "10", "--c=-1e-3"]),
    "bounds-infinite-gain": (["bounds", "--theorem", "no-rcsi", "--P", "10", "--c", "-inf"],
                             ["bounds", "--theorem", "no-rcsi", "--P", "10", "--c=-inf"]),
    "bounds-interval": (["bounds", "--theorem", "continuous", "--P", "10", "--c", "3",
                         "--interval", "-1e0", "1"],
                        ["bounds", "--theorem", "continuous", "--P", "10", "--c", "3",
                         "--interval", "-1", "1"]),
    "sweep-delta": (["sweep", "--theorem", "phase-binomial", "--delta", "-1e-1"],
                    ["sweep", "--theorem", "phase-binomial", "--delta=-1e-1"]),
    "mi-a-target": (["mi", "--P", "3", "--a-target", "-1e-1", "--n", "10000"],
                    ["mi", "--P", "3", "--a-target=-1e-1", "--n", "10000"]),
    "mi-int-seed": (["mi", "--P", "3", "--seed", "-1e0"], ["mi", "--P", "3", "--seed=-1e0"]),
    "gp-tol": (["gp", "--example", "binary-nonoise", "--restarts", "2", "--tol", "-1E-3"],
               ["gp", "--example", "binary-nonoise", "--restarts", "2", "--tol=-1E-3"]),
}


@pytest.mark.parametrize("name", list(_EXPONENT_FORMS))
def test_exponent_negative_reads_as_its_value(capsys, name):
    spaced, joined = _EXPONENT_FORMS[name]
    assert run_cli(capsys, *spaced) == run_cli(capsys, *joined)


# laws of non-zero mean: the golden three-atom law (mean -0.25), the shifted
# strong support (mean 1) and a Gaussian of mean 0.5
_THREE_ATOMS = '{"kind":"discrete","atoms":[[-1.0,0.6],[0.5,0.3],[2.0,0.1]]}'
_GAUSSIAN_SHIFTED = '{"kind":"gaussian","mean":0.5,"var":1}'
# the flags of each theorem besides P and c: a law, or the phase half-angle
_FLAGS_OF = {"no-rcsi": ("--dist", _GAUSSIAN_SHIFTED), "mass-half": ("--dist", _THREE_ATOMS),
             "strong": ("--dist", _STRONG4_SHIFTED), "continuous": ("--dist", _GAUSSIAN_SHIFTED),
             "phase-binomial": ("--delta", "1.2")}


@pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("theorem", list(_FLAGS_OF))
def test_bounds_agrees_with_the_sweep_row(capsys, theorem, c):
    # both take the fading mean from the law; c has an exact square, which
    # the phase theorem reads as its state power
    flags = _FLAGS_OF[theorem]
    code, out, err = run_cli(capsys, "bounds", "--theorem", theorem, "--P", "10",
                             "--c", repr(c), *flags)
    _, swept, _ = run_cli(capsys, "sweep", "--theorem", theorem, *flags,
                          "--P-grid", "10", "--c2-grid", repr(c * c), "--format", "json")
    (row,) = json.loads(swept)
    if code == 3:  # the strong support fails its spacing condition at c = 8
        assert "ConditionNotVerified" in err and row["assumptions_ok"] is False
        return
    assert code == 0
    payload = json.loads(out)
    assert "%.12g" % payload["inner"]["bits"] == row["inner_bits"]
    assert "%.12g" % payload["outer"]["bits"] == row["outer_bits"]


def run_fresh_cli(*argv):
    """The command in a fresh interpreter that shows warnings: a traceback
    or a warning reaches stderr, where in process they raise."""
    src = str(Path(fadingdirt.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "default", "-m", "fadingdirt", *argv],
                          capture_output=True, env=env, timeout=120)


def test_quadpack_code_warns_and_exits_0(capsys):
    # the seeded tabulated law, whose kinks the bound integrals do not pass
    argv = ["bounds", "--theorem", "continuous", "--P", "10", "--c", "3",
            "--dist", TABULATED_0, "--interval", "-1", "1"]
    proc = run_fresh_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "QuadratureWarning: QUADPACK code 2" in proc.stderr.decode()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", errors.QuadratureWarning)
        code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout.decode() == out
    # one stderr line per warning, with no source line under it
    assert caught
    assert proc.stderr.decode().splitlines() == [
        f"warning: QuadratureWarning: {w.message}" for w in caught]


def _quick_start():
    """The `fadingdirt` command lines of README's Quick start block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("fadingdirt ")]


def test_readme_quick_start_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a relative --out lands
    commands = _quick_start()
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


# each theorem flag besides P and c under each command and theorem, and
# whether the theorem reads it; a flag that it does not read exits 2
_THEOREM_FLAGS = {
    ("bounds", "no-rcsi"): {"--dist": True, "--delta": False, "--interval": False},
    ("bounds", "mass-half"): {"--dist": True, "--delta": False, "--interval": False},
    ("bounds", "strong"): {"--dist": True, "--delta": False, "--interval": False},
    ("bounds", "phase-binomial"): {"--dist": False, "--delta": True, "--interval": False},
    ("bounds", "continuous"): {"--dist": True, "--delta": False, "--interval": True},
    ("sweep", "no-rcsi"): {"--dist": True, "--delta": False},
    ("sweep", "mass-half"): {"--dist": True, "--delta": False},
    ("sweep", "strong"): {"--dist": True, "--delta": False},
    ("sweep", "phase-binomial"): {"--dist": False, "--delta": True},
    ("sweep", "continuous"): {"--dist": True, "--delta": False},
}
# each flag's arguments and the value it parses to
_FLAG_VALUES = {"--dist": (["two-point"], "two-point"), "--delta": (["1.0"], 1.0),
                "--interval": (["-1", "1"], [-1.0, 1.0])}
_FLAG_CASES = [(command, theorem, flag, reads)
               for (command, theorem), flags in _THEOREM_FLAGS.items()
               for flag, reads in flags.items()]
_REJECTED_FLAGS = [case[:3] for case in _FLAG_CASES if not case[3]]


def _flag_argv(command, theorem, flag):
    return [command, "--theorem", theorem, *(["--P", "3"] if command == "bounds" else []),
            flag, *_FLAG_VALUES[flag][0]]


def test_flag_table_covers_every_theorem():
    for command in ("bounds", "sweep"):
        assert {t for c, t in _THEOREM_FLAGS if c == command} == set(harness.THEOREMS)
    assert sum(not reads for *_, reads in _FLAG_CASES) == 14


@pytest.mark.parametrize("command,theorem,flag,reads", _FLAG_CASES,
                         ids=["-".join(case[:3]) for case in _FLAG_CASES])
def test_theorem_flag_read_or_rejected(capsys, command, theorem, flag, reads):
    argv = _flag_argv(command, theorem, flag)
    if reads:
        assert getattr(cli._parse(argv), flag[2:]) == _FLAG_VALUES[flag][1]
        return
    with pytest.raises(SystemExit) as exc:
        cli._parse(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not allowed with argument --theorem {theorem}" in err


class TestSweepVerify:
    # the same rejections through main, which prints nothing to stdout
    @pytest.mark.parametrize("command,theorem,flag", _REJECTED_FLAGS,
                             ids=["-".join(case) for case in _REJECTED_FLAGS])
    def test_flags_the_mode_ignores_rejected(self, capsys, command, theorem, flag):
        code, out, err = run_cli(capsys, *_flag_argv(command, theorem, flag))
        assert (code, out) == (2, "")
        assert f"argument {flag}: not allowed with argument --theorem {theorem}" in err

    def test_preset_csv_shape(self, capsys):
        # two phase half-angles x 5 powers x 4 state powers, and the header
        code, out, _ = run_cli(capsys, "verify", "--preset", "phase-binomial",
                               "--grid", "full", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 41
        assert all(len(line.split(",")) == 13 for line in lines)

    def test_explicit_grids(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--theorem", "mass-half",
                               "--dist", "two-point", "--P-grid", "1,10",
                               "--c2-grid", "4", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_verify_runs_and_reports(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--preset", "phase-binomial",
                                 "--format", "csv")
        assert code == 0  # claim violations are results, not errors
        assert out.startswith("theorem,")
        assert "verify phase-binomial/full: 40 points" in err
        assert "violated" in err

    def test_byte_identical_stdout(self, capsys):
        argv = ("verify", "--preset", "mass-half", "--format", "csv")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_phase_strong_row_at_the_float_limit(self, capsys):
        # the moderate branch's square overflows here, but its condition fails
        code, out, _ = run_cli(capsys, "sweep", "--theorem", "phase-binomial",
                               "--P-grid", "1e308", "--c2-grid", "1e308", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["branch_outer"] == "strong-interference"

    def test_omitted_delta_is_a_right_angle(self, capsys):
        base = ("sweep", "--theorem", "phase-binomial", "--P-grid", "1,10", "--c2-grid", "4")
        _, omitted, _ = run_cli(capsys, *base)
        _, given, _ = run_cli(capsys, *base, "--delta", repr(math.pi / 2))
        _, other, _ = run_cli(capsys, *base, "--delta", "1.2")
        assert omitted == given != other

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "sweep", "--theorem", "no-rcsi", "--dist", "gaussian",
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

    def test_mi_power_split_matches_the_exact_rate(self, capsys):
        # X2 decoded first, then U with X2 stripped: with the fading known the
        # two-stage rate is exact
        code, out, _ = run_cli(capsys, "mi", "--P", "10", "--c", "2", "--dist", "two-point",
                               "--a-target", "1", "--split", "0.25", "--n", "200000",
                               "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        exact = costa_rate_exact(ChannelParams(P=10, c=2), parse_distribution("two-point"),
                                 CostaAssignment(a_target=1.0, split_delta=0.25))
        assert abs(payload["estimate_bits"] - exact) < 5 * payload["stderr_bits"]

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


class TestHelp:
    @pytest.mark.parametrize("cmd,flags", [
        ("bounds", ["--theorem", "--P", "--c", "--delta",
                    "--dist", "--interval"]),
        ("sweep", ["--theorem", "--dist", "--P-grid", "--c2-grid",
                   "--delta", "--format", "--out"]),
        ("verify", ["--preset", "--grid", "--format", "--out"]),
        ("mi", ["--P", "--c", "--dist", "--a-target", "--k",
                "--split", "--no-rcsi", "--n", "--seed"]),
        ("gp", ["--instance", "--example", "--atoms", "--no-rcsi",
                "--aux-size", "--restarts", "--seed", "--tol"]),
    ])
    def test_flags_documented(self, capsys, cmd, flags):
        code, out, _ = run_cli(capsys, cmd, "--help")
        assert code == 0
        for flag in flags:
            assert flag in out


def test_parser_built_once_per_process(capsys):
    # a parse, a rejected flag among them, reads the parser and leaves it as it was
    cli._build_parser.cache_clear()
    argv = ["bounds", "--theorem", "no-rcsi", "--P", "3", "--c", "2", "--dist", "gaussian"]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--delta", "1")[0] == 2
    assert run_cli(capsys, *argv)[:2] == (0, want)
    assert cli._build_parser.cache_info().misses == 1
