"""Output bytes pinned by sha256: the full claim-verification report and
every sweep preset.  A refactor of the bound, sweep or emission layers must
leave these hashes unchanged."""

import hashlib

import pytest

from fadingdirt.cli import main

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
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: "-".join(argv[2::2]))
def test_output_sha256(argv, tmp_path, capsys):
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[argv]
