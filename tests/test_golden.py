"""Output bytes pinned by sha256: the full claim-verification report, every
sweep preset, the continuous sweeps (one on a log-normal law), one `bounds`
point per theorem, the interval bound on each continuous shorthand law and
the no-RCSI bound on a tabulated law.  A refactor of the bound,
sweep or emission layers must leave these hashes unchanged."""

import hashlib

import pytest

from fadingdirt.cli import main

# unit-variance log-normal with log-variance 1/4
_LOGNORMAL = '{"kind": "lognormal", "mu": 0.0, "sigma2": 0.25, "scale": 1.6559018331762287}'
# unit-variance two-hump density on 9 nodes; its entropy quadrature takes the
# 7 interior nodes as breakpoints
_TABULATED = ('{"kind":"tabulated","grid":[[-2.1492304319951656,0.0],'
              '[-1.6157335162516846,0.16066500702226996],[-1.0822366005082038,0.4284400187260533],'
              '[-0.5487396847647231,0.21422000936302665],[-0.015242769021242313,0.16066500702226996],'
              '[0.5182541467222385,0.3213300140445399],[1.0517510624657194,0.48199502106680997],'
              '[1.5852479782092002,0.10711000468151333],[2.1187448939526807,0.0]]}')

GOLDEN = {
    ("verify", "--preset", "all", "--grid", "full", "--format", "csv"):
        "fe70ed5cc58b712cf120192718096200d99c048d9dc249980d5633514a6e065e",
    ("verify", "--preset", "all", "--grid", "full", "--format", "svg"):
        "ea5c32d571989efa5b1bc56f598b2e36bbc61aa1b78804fa7bb470b80cf24fe5",
    ("sweep", "--preset", "gaussian-smoke", "--format", "csv"):
        "93d4cdcecb074802716bad7740ee509154bf3a2f2666d03ce67a59fbb3a30985",
    ("sweep", "--preset", "gaussian-smoke", "--format", "json"):
        "8ac03cd85e56dd6cb476e4533fb793a27512cf477e9ae4cb1189bd7a20087d41",
    ("sweep", "--preset", "no-rcsi", "--format", "csv"):
        "59b40c08df0b9f39013a2c8c49dae9f4dd7fcd4378ca5d0f77ccb5139fab14ea",
    ("sweep", "--preset", "no-rcsi", "--format", "json"):
        "d9f921537b941a7528a1b9c7c9a6049743932a3c77ba66c1e707208b296b6c78",
    ("sweep", "--preset", "mass-half", "--format", "csv"):
        "972d8236f02cebadc161304affbe7cb636b82994d42c82e4c17cbbc2fc3a8c37",
    ("sweep", "--preset", "mass-half", "--format", "json"):
        "825e478313cb320de5fa4b4de28cafb73f86ceb6c14375517ff10bf413d7fc61",
    ("sweep", "--preset", "strong", "--format", "csv"):
        "f4b8de8e09b3e97ad2e4a8c9aa1064bee181e6fae094d842478050d4e72016ef",
    ("sweep", "--preset", "strong", "--format", "json"):
        "0b6223f45be0396a8d5aba6bff767c1de3ce44be5720d38266624bb6e966fec2",
    ("sweep", "--preset", "phase-binomial", "--format", "csv"):
        "3d3d9ae358e58e6e55ff644d887fffcf0e86ee87a070a8af6ab7589250d1d2f2",
    ("sweep", "--preset", "phase-binomial", "--format", "json"):
        "f296f5f493ecb3b67a40d58ff14d212d613d56999821413961aab66c754ffa2a",
    ("sweep", "--theorem", "continuous", "--dist", "gaussian", "--format", "csv"):
        "b864d0fabb6341279904136d4804bc527bcc712e23174a7ddd9589b68a7d48ca",
    ("sweep", "--theorem", "continuous", "--dist", "rayleigh", "--format", "csv"):
        "e4b70926a6e3c205a08046451b7f5d87456cc13534de8b5c2f6807fadaa949eb",
    ("sweep", "--theorem", "continuous", "--dist", "uniform", "--format", "json"):
        "7ebe2b44f2438b4a8b54a8a76bdc6257cf4b8b9a04a54fb8a5440324c233da36",
    ("sweep", "--theorem", "continuous", "--dist", _LOGNORMAL, "--format", "csv"):
        "821d01e277a226bc254eeb598a3aab9acf7654d21d3459c1228a2eb2fc9c5c6c",
}

_THREE_ATOMS = '{"kind":"discrete","atoms":[[-1.0,0.6],[0.5,0.3],[2.0,0.1]]}'
_STRONG4 = ('{"kind":"discrete","atoms":[[-1.1832159566199232,0.25],[-0.50709255283711,0.25],'
            '[0.16903085094570325,0.25],[1.5212776585113297,0.25]]}')

# `bounds` prints one JSON object to stdout
BOUNDS_GOLDEN = {
    "no-rcsi": (
        ("--theorem", "no-rcsi", "--P", "3", "--c", "2", "--dist", "uniform"),
        "a9958fd2038dcb181f1f06df8538a0a41415b205dc68b70343584e518454c1ed"),
    "mass-half-appendix": (
        ("--theorem", "mass-half", "--P", "15", "--c", "8", "--dist", _THREE_ATOMS),
        "2e1ec3786131ad313fc3ce72a3a7364ca2f088c48dc961fc17f7945903e40512"),
    "strong-appendix": (
        ("--theorem", "strong", "--P", "10", "--c", "2", "--dist", _STRONG4),
        "af39eeef51fc3b1d1b75f02c1512907d9bce98f7dd54e318dbc8818b14f9f4e5"),
    "phase-binomial": (
        ("--theorem", "phase-binomial", "--P", "10", "--Q", "4", "--delta", "1.2"),
        "6303bc3a3f480f6ede16e68bdfaf3cf9fe2e5015445e75854e5fd08ab9a74a46"),
    "continuous": (
        ("--theorem", "continuous", "--P", "10", "--c", "8", "--dist", "gaussian",
         "--interval", "-1", "1"),
        "1c9f10fcad79c4b605f853ad5b4e67b9c0dff2d22c0c1b7f18f91ed14e78507d"),
    "continuous-uniform": (
        ("--theorem", "continuous", "--P", "10", "--c", "3", "--dist", "uniform",
         "--interval", "-1", "1"),
        "2c36feb33c4cfc78ab6a0e11bc7525f75dc49b8411360efdb014e4b6cba45067"),
    "continuous-rayleigh": (
        ("--theorem", "continuous", "--P", "10", "--c", "3", "--dist", "rayleigh",
         "--interval", "-1", "1"),
        "95b25628159d227e36299db3a5fe7c73d161b37b0d4087fd3ab83b43c3978aa6"),
    "no-rcsi-tabulated": (
        ("--theorem", "no-rcsi", "--P", "3", "--c", "2", "--dist", _TABULATED),
        "66096b34e0d32df4c87b6e9dcea909112d42e6fae13af83b4d960648d4f47190"),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: "-".join(argv[2::2]))
def test_output_sha256(argv, tmp_path, capsys):
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("name", list(BOUNDS_GOLDEN))
def test_bounds_sha256(name, capsys):
    argv, digest = BOUNDS_GOLDEN[name]
    assert main(["bounds", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
