"""CLI output pinned byte for byte to the CSV files in tests/data.

Each case's stdout is ``data/<stem>.csv``; its stderr is
``data/<stem>.stderr``, or empty when that file does not exist. ``sample``
is left out: its last digits depend on the numpy version. Rewrite the files
(``python tests/test_golden.py``) only for an intended change of output.

These commands need neither numpy nor SciPy: this file runs without them
installed, and one test runs every case with both blocked.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from conftest import package_env
from uwacap.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"

GAP_BETAS = ["0.1", "0.2", "0.3", "0.5", "0.8", "1", "1.5", "2", "2.5", "3", "4", "6", "8"]
CAPACITY_BETAS = ["0.3", "0.5", "1", "2", "3.7"]
SECRECY_PAIRS = [("2", "2"), ("1", "2"), ("2", "1"), ("0.5", "1.5"), ("0.8", "3")]
# (alpha, mu, beta): Rayleigh, Nakagami-3, Weibull-3, the alpha = mu = 0.5
# corner and a concentrated law
ERGODIC_LAWS = [
    ("2", "1", "1"), ("2", "3", "0.5"), ("3", "1", "1.5"), ("0.5", "0.5", "0.8"), ("300", "5", "2"),
]

CASES = {"gap": ["gap", *GAP_BETAS]}
for beta in CAPACITY_BETAS:
    CASES["capacity_beta%s" % beta] = ["capacity", "--beta", beta, "--snr-db=-20:60:0.5"]
for alpha, mu, beta in ERGODIC_LAWS:
    argv = ["ergodic", "--alpha", alpha, "--mu", mu, "--beta", beta, "--snr-db=-10:60:1"]
    CASES["ergodic_a%s_m%s" % (alpha, mu)] = argv
for sd, se in SECRECY_PAIRS:
    argv = ["secrecy", "--beta-sd", sd, "--beta-se", se, "--snr-se-db", "3", "--snr-sd-db=-20:40:0.25"]
    CASES["secrecy_sd%s_se%s" % (sd, se)] = argv
    CASES["secrecy_sd%s_se%s_printed" % (sd, se)] = argv + ["--as-printed"]


@pytest.mark.parametrize("stem", sorted(CASES))
def test_output_matches_golden(stem, capsys):
    assert main(CASES[stem]) == 0
    captured = capsys.readouterr()
    stderr = DATA / (stem + ".stderr")
    assert captured.out == (DATA / (stem + ".csv")).read_text()
    assert captured.err == (stderr.read_text() if stderr.exists() else "")


BLOCKED_RUN = """
import contextlib, io, json, sys

sys.modules["numpy"] = sys.modules["scipy"] = None  # importing either now raises ImportError
from uwacap.cli import main

results = {}
for stem, argv in json.loads(sys.argv[1]).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results[stem] = [code, out.getvalue(), err.getvalue()]
json.dump(results, sys.stdout)
"""


def test_cases_run_with_numpy_and_scipy_blocked():
    run = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN, json.dumps(CASES)], env=package_env(), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)
    assert sorted(results) == sorted(CASES)
    for stem, (code, out, err) in results.items():
        stderr = DATA / (stem + ".stderr")
        assert code == 0, stem
        assert out == (DATA / (stem + ".csv")).read_text(), stem
        assert err == (stderr.read_text() if stderr.exists() else ""), stem


if __name__ == "__main__":
    import contextlib
    import io

    DATA.mkdir(exist_ok=True)
    for stem, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0, stem
        (DATA / (stem + ".csv")).write_text(out.getvalue())
        if err.getvalue():
            (DATA / (stem + ".stderr")).write_text(err.getvalue())
