"""CLI output pinned byte for byte to the CSV files in tests/data.

Each case's stdout is ``data/<stem>.csv``; its stderr is
``data/<stem>.stderr``, or empty when that file does not exist. ``ergodic``
and ``sample`` are left out: their last digits depend on the SciPy and numpy
versions. Rewrite the files (``python tests/test_golden.py``) only for an
intended change of output.
"""

import pathlib

import pytest

from uwacap.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"

GAP_BETAS = ["0.1", "0.2", "0.3", "0.5", "0.8", "1", "1.5", "2", "2.5", "3", "4", "6", "8"]
CAPACITY_BETAS = ["0.3", "0.5", "1", "2", "3.7"]
SECRECY_PAIRS = [("2", "2"), ("1", "2"), ("2", "1"), ("0.5", "1.5"), ("0.8", "3")]

CASES = {"gap": ["gap", *GAP_BETAS]}
for beta in CAPACITY_BETAS:
    CASES["capacity_beta%s" % beta] = ["capacity", "--beta", beta, "--snr-db=-20:60:0.5"]
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
