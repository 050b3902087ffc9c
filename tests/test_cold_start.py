"""The closed-form commands and every `mi` estimate never load scipy, and
quadrature loads only QUADPACK's extension, never the `scipy.integrate`
package with its optimize, sparse and special modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fadingdirt
from fadingdirt.fading import strong_support

from laws import TABULATED_9

SRC = str(Path(fadingdirt.__file__).resolve().parent.parent)

# runs one command in a fresh interpreter, then reports its exit code and
# the scipy modules it left in sys.modules on the last line of stderr
PROBE = """
import json, sys
from fadingdirt.cli import main
rc = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
sys.stderr.write("\\n" + json.dumps({"rc": rc, "scipy": loaded}) + "\\n")
"""

STRONG4 = json.dumps(strong_support(4, 2.0).to_json())
TRIANGLE = json.dumps({"kind": "tabulated", "grid": [[-1.5, 0.0], [0.0, 2.0 / 3.0], [1.5, 0.0]]})

CLOSED_FORM_COMMANDS = {
    "verify": ["verify"],
    "bounds-no-rcsi": ["bounds", "--theorem", "no-rcsi", "--P", "3", "--c", "2"],
    # the entropy of a tabulated law is its closed form, not a quadrature
    "bounds-no-rcsi-tabulated": ["bounds", "--theorem", "no-rcsi", "--P", "3", "--c", "2",
                                 "--dist", TABULATED_9],
    "bounds-mass-half": ["bounds", "--theorem", "mass-half", "--P", "15", "--c", "8",
                         "--dist", "two-point"],
    "bounds-strong": ["bounds", "--theorem", "strong", "--P", "10", "--c", "2",
                      "--dist", STRONG4],
    "bounds-phase-binomial": ["bounds", "--theorem", "phase-binomial", "--P", "3"],
    "gp": ["gp", "--example", "binary-nonoise", "--restarts", "2"],
    "mi-rcsi": ["mi", "--P", "3", "--c", "2", "--dist", "two-point", "--n", "10000"],
}

# the Gaussian-mixture estimate without receiver side information, on a
# density law and on a tabulated one (sampled through its trapezoid cdf)
MIXTURE_COMMANDS = {
    "mi-no-rcsi-gaussian": ["mi", "--P", "3", "--c", "2", "--dist", "gaussian", "--no-rcsi",
                            "--n", "10000"],
    "mi-no-rcsi-tabulated": ["mi", "--P", "3", "--c", "2", "--dist", TRIANGLE, "--no-rcsi",
                             "--n", "10000"],
}


def run_fresh(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE] + argv, capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-500:]
    return json.loads(proc.stderr.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_COMMANDS))
def test_closed_form_command_never_loads_scipy(name):
    report = run_fresh(CLOSED_FORM_COMMANDS[name])
    assert report == {"rc": 0, "scipy": []}


@pytest.mark.parametrize("name", sorted(MIXTURE_COMMANDS))
def test_mixture_estimate_never_loads_scipy(name):
    report = run_fresh(MIXTURE_COMMANDS[name])
    assert report == {"rc": 0, "scipy": []}


# what QUADPACK's extension itself loads on its first call: scipy's
# callback-type module, with the `scipy` package around it
CALLBACK_PROBE = """
import json, sys
import numpy, scipy._lib._ccallback
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_quadrature_command_loads_scipy():
    proc = subprocess.run([sys.executable, "-c", CALLBACK_PROBE], capture_output=True,
                          timeout=120, check=True)
    callback_modules = set(json.loads(proc.stdout.decode().strip().splitlines()[-1]))
    for argv in (["bounds", "--theorem", "continuous", "--P", "10", "--c", "3",
                  "--interval", "-1", "1"],
                 ["sweep", "--theorem", "continuous", "--dist", "rayleigh"]):
        report = run_fresh(argv)
        assert report["rc"] == 0
        assert set(report["scipy"]) - callback_modules == {"scipy.integrate._quadpack"}
