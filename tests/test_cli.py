import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from conftest import child_max_rss_mb, needs_numpy, package_env
from uwacap import capacity, cli, fading, gg_noise
from uwacap.cli import main
from uwacap.numerics import DomainError, QuadratureError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestGapCommand:
    def test_sweep(self, capsys):
        betas = [f"{b / 10:.1f}" for b in range(5, 31)]
        code, out, _ = run_cli(capsys, "gap", *betas)
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["beta", "gap_bits", "gap_nats"]
        assert len(rows) == 26
        two = [r for r in rows if float(r[0]) == 2.0]
        assert float(two[0][1]) == 0.0

    def test_single_beta(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "1")
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[0][1]) == pytest.approx(0.5 * math.log2(math.pi / math.e), abs=1e-9)

    def test_rows_sorted_ascending(self, capsys):
        _, out, _ = run_cli(capsys, "gap", "3", "0.5", "1")
        _, rows = parse_csv(out)
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 3.0]

    def test_empty_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gap")
        assert code == 1
        assert "usage error" in err

    def test_nonpositive_beta_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gap", "-1")
        assert code == 1

    def test_log_gamma_overflow_is_usage_error(self, capsys):
        # ln Gamma(3/beta) overflows a float: a usage error that names beta, not a silent 0
        code, out, err = run_cli(capsys, "gap", "1e-306")
        assert (code, out) == (1, "")
        assert err == "usage error: beta=1e-306 is out of range: ln Gamma(3/beta) overflows a float\n"


class TestTinyBeta:
    """A shape whose ln Gamma(3/beta) overflows a float is named, in every command that takes one."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["gap", "1e-320"], "beta"),
            (["capacity", "--beta", "1e-320", "--snr-db", "0"], "beta"),
            (["ergodic", "--alpha", "2", "--beta", "1e-320", "--snr-db", "0"], "beta"),
            (["secrecy", "--beta-sd", "1", "--beta-se", "1e-320", "--snr-se-db", "0", "--snr-sd-db", "0"], "beta_se"),
            (["secrecy", "--beta-sd", "1e-320", "--beta-se", "1", "--snr-se-db", "0", "--snr-sd-db", "0"], "beta_sd"),
        ],
        ids=["gap", "capacity", "ergodic", "secrecy", "secrecy-beta-sd"],
    )
    def test_names_beta(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "usage error: %s=1e-320 is out of range: ln Gamma(3/beta) overflows a float\n" % name


class TestGapNearTwo:
    """The closed form of gap() cancels near beta = 2; its printed digits must not."""

    def test_gap_prints_zero(self, capsys):
        # the mpmath value to 9 digits; the gap is zero only at beta = 2
        code, out, _ = run_cli(capsys, "gap", "1.9999999")
        assert code == 0
        assert parse_csv(out)[1] == [["1.9999999", "3.62660472e-16", "2.51377083e-16"]]

    def test_capacity_bounds_coincide(self, capsys):
        code, out, err = run_cli(capsys, "capacity", "--beta", "1.9999999", "--snr-db", "0")
        assert (code, err) == (0, "")
        assert parse_csv(out)[1] == [["0", "0.5", "0.5"]]

    def test_ergodic_bounds_coincide(self, capsys):
        code, out, err = run_cli(capsys, "ergodic", "--alpha", "2", "--beta", "2.00000004", "--snr-db", "0")
        assert (code, err) == (0, "")
        (row,) = parse_csv(out)[1]
        assert row[1] == row[2]


class TestCapacityCommand:
    def test_gaussian_row(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--beta", "2", "--snr-db", "0")
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-9)
        assert rows[0][1] == rows[0][2]

    def test_constant_width(self, capsys):
        _, out, _ = run_cli(capsys, "capacity", "--beta", "1", "--snr-db=-10:20:5")
        _, rows = parse_csv(out)
        for row in rows:
            width = float(row[2]) - float(row[1])
            assert width == pytest.approx(capacity.gap(1.0, "bits"), abs=1e-7)

    def test_descending_range_normalized(self, capsys):
        # either end may come first, and the sign of the step does not matter
        for snr_db in ("10:0:-5", "10:0:5", "0:10:-5"):
            _, out, _ = run_cli(capsys, "capacity", "--beta", "2", "--snr-db", snr_db)
            _, rows = parse_csv(out)
            assert [float(r[0]) for r in rows] == [0.0, 5.0, 10.0]

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "capacity", "--beta", "2", "--snr-db", "0:10")
        assert code == 1

    def test_tiny_beta_prints_row(self, capsys):
        # the noise variance is 1 even where its gamma ratio overflows a float
        code, out, err = run_cli(capsys, "capacity", "--beta", "0.008", "--snr-db", "0")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert rows[0][:2] == ["0", "0.5"]
        assert float(rows[0][2]) == pytest.approx(0.5 + capacity.gap(0.008, "bits"), rel=1e-8)


class TestErgodicCommand:
    def test_rayleigh_gaussian_noise(self, capsys):
        code, out, _ = run_cli(
            capsys, "ergodic", "--alpha", "2", "--mu", "1", "--beta", "2", "--snr-db", "0"
        )
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[0][1]) == pytest.approx(0.430174, abs=1e-5)
        assert rows[0][1] == rows[0][2]

    def test_beta_shifts_upper_by_gap(self, capsys):
        _, out1, _ = run_cli(capsys, "ergodic", "--alpha", "2", "--beta", "1", "--snr-db", "0:10:5")
        _, out2, _ = run_cli(capsys, "ergodic", "--alpha", "2", "--beta", "2", "--snr-db", "0:10:5")
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            assert float(r1[2]) - float(r2[2]) == pytest.approx(capacity.gap(1.0, "bits"), abs=1e-8)

    def test_lower_bound_monotone_in_alpha(self, capsys):
        lowers = []
        for alpha in ("1", "2", "3", "4"):
            _, out, _ = run_cli(capsys, "ergodic", "--alpha", alpha, "--beta", "1", "--snr-db", "10")
            _, rows = parse_csv(out)
            lowers.append(float(rows[0][1]))
        assert lowers == sorted(lowers)

    def test_huge_mu_is_the_unfaded_rate(self, capsys):
        # ln Gamma(mu) - ln Gamma(mu + 1) at mu = 1e15 cancels in doubles; h_root came out e**2
        code, out, _ = run_cli(capsys, "ergodic", "--alpha", "2", "--mu", "1e15", "--beta", "2", "--snr-db", "0")
        assert code == 0
        assert out.splitlines() == ["snr_db,lower,upper", "0,0.5,0.5"]


class TestSecrecyCommand:
    def test_gaussian_case_onset(self, capsys):
        code, out, err = run_cli(
            capsys,
            "secrecy",
            "--beta-sd", "2", "--beta-se", "2", "--snr-se-db", "-5",
            "--snr-sd-db=-7:0:1",
        )
        _, rows = parse_csv(out)
        assert code == 0
        by_db = {float(r[0]): (float(r[1]), r[2]) for r in rows}
        assert by_db[-5.0] == (0.0, "0")
        assert by_db[-6.0] == (0.0, "0")
        assert by_db[-4.0][0] > 0.0 and by_db[-4.0][1] == "1"
        assert "threshold" in err

    def test_symmetric_zero(self, capsys):
        _, out, _ = run_cli(
            capsys, "secrecy", "--beta-sd", "1.3", "--beta-se", "1.3",
            "--snr-se-db", "0", "--snr-sd-db", "0",
        )
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.0

    def test_threshold_reported_matches_column_flip(self, capsys):
        _, out, err = run_cli(
            capsys,
            "secrecy",
            "--beta-sd", "1.5", "--beta-se", "0.8", "--snr-se-db", "-5",
            "--snr-sd-db=-3:0:0.5",
        )
        threshold_db = float(err.split("(")[1].split(" dB")[0])
        _, rows = parse_csv(out)
        for row in rows:
            assert (row[2] == "1") == (float(row[0]) > threshold_db)

    def test_threshold_beyond_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "secrecy", "--beta-sd", "2", "--beta-se", "0.001",
            "--snr-se-db", "3", "--snr-sd-db", "0",
        )
        assert code == 0
        assert err == "# secrecy threshold: snr_sd = inf (inf dB)\n"
        assert out == "snr_sd_db,secrecy_rate,positive\n0,0,0\n"

    def test_as_printed_changes_positive_column(self, capsys):
        args = ["secrecy", "--beta-sd", "1.5", "--beta-se", "0.8",
                "--snr-se-db", "-5", "--snr-sd-db=-1.4:-1.4:1"]
        _, out_derived, _ = run_cli(capsys, *args)
        _, out_printed, _ = run_cli(capsys, *args, "--as-printed")
        _, rows_d = parse_csv(out_derived)
        _, rows_p = parse_csv(out_printed)
        assert rows_d[0][1] == rows_p[0][1]  # rate column unchanged
        assert rows_d[0][2] != rows_p[0][2]

    @pytest.mark.parametrize("bad", ["-1", "nan"])
    @pytest.mark.parametrize("shape", ["beta_sd", "beta_se"])
    def test_bad_shape_names_its_flag(self, capsys, shape, bad):
        shapes = {"beta_sd": "1", "beta_se": "1", shape: bad}
        code, out, err = run_cli(
            capsys, "secrecy", "--beta-sd", shapes["beta_sd"], "--beta-se", shapes["beta_se"],
            "--snr-se-db", "0", "--snr-sd-db", "0",
        )
        assert code == 1
        assert out == ""
        assert err == "usage error: %s must be a finite real > 0, got %s\n" % (shape, float(bad))


class TestSampleCommand:
    LAWS = [
        (["gg", "--beta", "0.8", "--scale", "2.5", "--mean", "-1.5"], gg_noise, gg_noise.GGNoise(0.8, 2.5, -1.5)),
        (["alpha-mu", "--alpha", "2.5", "--mu", "1.5", "--h-root", "0.7"], fading, fading.AlphaMuFading(2.5, 1.5, 0.7)),
    ]

    @needs_numpy
    def test_determinism_and_thread_invariance(self, capsys):
        args = ["--seed", "5", "sample", "--law", "gg", "--beta", "1", "--count", "50"]
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        _, out8, _ = run_cli(capsys, "--threads", "8", *args)
        assert out1 == out8

    @needs_numpy
    def test_fading_law(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--law", "alpha-mu", "--alpha", "2", "--mu", "1", "--count", "10"
        )
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["value"]
        assert len(rows) == 10
        assert all(float(r[0]) >= 0.0 for r in rows)

    def test_bad_params(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--law", "gg", "--beta", "-1")
        assert code == 1

    # --chunks is no flag: every CLI draw uses the samplers' plan of 8 chunks
    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--threads", "0"], ["--chunks", "8"]])
    def test_bad_global_flags(self, capsys, flags):
        code, out, err = run_cli(capsys, *flags, "sample", "--law", "gg", "--count", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error")
        assert err.count("\n") == 1
        assert flags[0].lstrip("-") in err

    @pytest.mark.parametrize(
        "argv,flag",
        [(["sample", "--law", "gg", "--count", "0"], "--count"), (["--samples", "0", "gap", "1"], "--samples")],
        ids=["count", "samples"],
    )
    def test_size_below_one_names_the_flag(self, capsys, argv, flag):
        assert run_cli(capsys, *argv) == (1, "", "usage error: %s must be an integer >= 1, got 0\n" % flag)

    @pytest.mark.parametrize("command", [["gap", "1"], ["sample", "--law", "gg", "--count", "10"]], ids=["gap", "sample"])
    @pytest.mark.parametrize("flags", [["--bogus", "8"], ["--chunks", "8"], ["--chunks=8"], ["-x", "8"]])
    def test_unknown_global_flag_is_named(self, capsys, flags, command):
        # the value after an unknown flag must not be reported as the subcommand
        code, out, err = run_cli(capsys, *flags, *command)
        assert (code, out) == (1, "")
        assert err == "usage error: unrecognized option: %s\n" % flags[0].split("=")[0]

    def test_global_flag_prefixes_still_parse(self, capsys):
        args = ["sample", "--law", "gg", "--count", "10"]
        assert run_cli(capsys, "--se", "5", *args) == run_cli(capsys, "--seed", "5", *args)
        assert run_cli(capsys, "--samp", "2000", "gap", "1")[0] == 0

    @needs_numpy
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("argv,module,law", LAWS, ids=["gg", "alpha-mu"])
    def test_draws_are_the_eight_chunk_library_draws(self, capsys, threads, argv, module, law):
        # sample's last digits follow numpy's version, so the golden files leave it out; this pins the plan
        code, out, _ = run_cli(capsys, "--seed", "7", "--threads", threads, "sample", "--law", *argv, "--count", "3000")
        assert code == 0
        expected = ["%.9g" % v for v in module.sample(law, 7, 3000, chunks=8, threads=1)]
        assert out.splitlines() == ["value"] + expected

    @needs_numpy
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "law,name", [(["gg", "--beta", "0.005"], "GGNoise"), (["alpha-mu", "--alpha", "1e-5"], "AlphaMuFading")]
    )
    def test_draws_past_the_float_range(self, capsys, threads, law, name):
        # these draws overflow to +-inf; numpy's overflow warning must not reach stderr either
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "--threads", threads, "sample", "--law", *law, "--count", "5")
        assert (code, out, caught) == (1, "", [])
        assert err.startswith("usage error: draws of %s(" % name)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "law,name",
        [
            (["gg", "--beta", "21"], "GGNoise(beta=21.0,"),
            (["gg", "--beta", "1000"], "GGNoise(beta=1000.0,"),
            (["alpha-mu", "--alpha", "1000", "--mu", "0.01"], "AlphaMuFading(alpha=1000.0, mu=0.01,"),
        ],
        ids=["gg21", "gg1000", "alpha-mu"],
    )
    def test_shapes_whose_gamma_zeros_matter_are_usage_errors(self, capsys, law, name):
        code, out, err = run_cli(capsys, "sample", "--law", *law, "--count", "5")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: %s" % name)
        assert err.count("\n") == 1

    @needs_numpy
    @pytest.mark.parametrize(
        "law", [["gg", "--beta", "20"], ["alpha-mu", "--alpha", "1000", "--mu", "0.05"]], ids=["gg20", "alpha-mu"]
    )
    def test_shapes_at_the_edge_still_draw(self, capsys, law):
        code, out, err = run_cli(capsys, "sample", "--law", *law, "--count", "5")
        assert (code, err) == (0, "")
        assert len(parse_csv(out)[1]) == 5

    @needs_numpy
    @pytest.mark.parametrize("position", [0, cli._BLOCK, -1], ids=["first", "second block", "last"])
    def test_a_non_finite_draw_in_any_block_writes_nothing(self, monkeypatch, tmp_path, capsys, position):
        # the draws are checked a block at a time, and every block before the file is opened
        import numpy as np

        def draws(law, seed, count, threads):
            out = np.ones(count)
            out[position] = math.nan
            return out

        monkeypatch.setattr(gg_noise, "sample", draws)
        target = tmp_path / "draws.csv"
        argv = ["--out", str(target), "sample", "--law", "gg", "--count", str(3 * cli._BLOCK + 7)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: draws of GGNoise(")
        assert not target.exists()

    @needs_numpy
    @pytest.mark.parametrize(
        "count", [1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 3 * cli._BLOCK + 7], ids=["1", "B-1", "B", "B+1", "3B+7"]
    )
    @pytest.mark.parametrize(
        "argv,module,law",
        [
            *LAWS,
            # about 8% of these rows print in e-notation, and a scale of 1e-200 gives 3-digit exponents
            (["alpha-mu", "--alpha", "0.5", "--mu", "0.5"], fading, fading.AlphaMuFading(0.5, 0.5)),
            (["gg", "--scale", "1e-200", "--mean", "0"], gg_noise, gg_noise.GGNoise(2.0, 1e-200, 0.0)),
        ],
        ids=["gg", "alpha-mu", "alpha-mu-e-notation", "gg-3-digit-exponents"],
    )
    def test_blocks_are_the_rows_of_the_draws(self, tmp_path, capsys, count, argv, module, law):
        expected = "value\n" + "".join("%.9g\n" % v for v in module.sample(law, 11, count))
        args = ["sample", "--law", *argv, "--count", str(count)]
        assert run_cli(capsys, "--seed", "11", *args) == (0, expected, "")
        target = tmp_path / "draws.csv"
        assert run_cli(capsys, "--seed", "11", "--out", str(target), *args) == (0, "", "")
        assert target.read_bytes() == expected.encode()

    @needs_numpy
    def test_output_is_not_held_whole(self, tmp_path, capsys):
        # 10**6 draws are 8 MB; their rows held as one list of strings would take about 100 MB,
        # and per-chunk draws joined by a copy would hold them twice
        args = ["--out", str(tmp_path / "draws.csv"), "sample", "--law", "gg", "--count"]
        assert main(args + ["10"]) == 0  # lazy imports load outside the measurement
        tracemalloc.start()
        try:
            code = main(args + ["1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.5 * 8_000_000  # the draws once, plus one chunk's signs and one block's rows
        assert (tmp_path / "draws.csv").stat().st_size > 10**7

    @needs_numpy
    def test_ten_million_draws_within_170_mb_of_rss(self):
        # the draws are 80 MB and are allocated once; a second copy of them would pass the bound
        rss = child_max_rss_mb("-m", "uwacap.cli", "--out", os.devnull, "sample", "--law", "gg", "--count", "10000000")
        assert rss <= 170, "sample --count 10000000: child max RSS %.1f MB" % rss

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["sample", "--law", "gg", "--count", "1000000"], marks=needs_numpy),
            pytest.param(["sample", "--law", "alpha-mu", "--count", "1000000"], marks=needs_numpy),
            ["capacity", "--beta", "2", "--snr-db", "0:100:0.001"],
        ],
        ids=["sample-gg", "sample-alpha-mu", "capacity"],
    )
    def test_reader_closing_the_pipe_ends_quietly(self, argv):
        # `cmd | head -n 1`: once the reader has gone, the command stops writing without a traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "uwacap.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env()
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert first in (b"value\n", b"snr_db,lower,upper\n")


@needs_numpy
class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "--samples", "5000", "verify", "--quick")
        assert code == 0
        assert "0 failed" in out
        assert "FAIL" not in out

    def test_small_sample_budget_still_passes(self, capsys):
        code, out, _ = run_cli(capsys, "--samples", "1000", "verify", "--quick")
        assert code == 0

    def test_sample_budget_below_the_floor_names_samples(self, capsys):
        assert run_cli(capsys, "--samples", "999", "verify", "--quick") == (
            1, "", "usage error: samples must be an integer >= 1000, got 999\n"
        )

    def test_seed_change_keeps_verdict(self, capsys):
        code1, out1, _ = run_cli(capsys, "--samples", "5000", "--seed", "1", "verify", "--quick")
        code2, out2, _ = run_cli(capsys, "--samples", "5000", "--seed", "2", "verify", "--quick")
        assert code1 == code2 == 0
        assert out1 != out2  # estimates move with the seed

    def test_missed_grid_mass_is_a_failed_row(self, capsys, monkeypatch):
        # values 0.5% too high put a GG grid's mass at 1.005, outside its window
        from uwacap import verify

        landed = verify.gg_density_grid

        def too_heavy(law):
            grid = landed(law)
            return verify.DensityGrid(grid.points, 1.005 * grid.values, grid.truncation_mass, grid.weights)

        monkeypatch.setattr(verify, "gg_density_grid", too_heavy)
        code, out, err = run_cli(capsys, "--samples", "2000", "verify", "--quick")
        assert (code, err) == (3, "")
        grid_rows = [line for line in out.splitlines() if line.startswith("grid_mass")]
        assert len(grid_rows) == 2
        assert all(line.endswith(" FAIL") for line in grid_rows)
        assert [line for line in out.splitlines() if line.startswith("output_mass")][0].endswith(" PASS")


@needs_numpy
class TestVerifyQuadRtol:
    @pytest.mark.parametrize("flags", [["--quad-rtol", "0.5"], ["--threads", "2"]], ids=["quad-rtol", "threads"])
    @pytest.mark.parametrize("suite", [["--quick"], []], ids=["quick", "full"])
    def test_tuning_flags_do_not_change_verify(self, capsys, suite, flags):
        # --quad-rtol tunes only the ergodic rule, which no verify row reads, and --threads never changes output
        default = run_cli(capsys, "--seed", "7", "verify", *suite)
        assert default[0] == 0
        assert run_cli(capsys, "--seed", "7", *flags, "verify", *suite) == default


class TestWithoutNumpy:
    """`sample` and `verify` on a Python without numpy: one usage error line that names it, after the arguments."""

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["sample", "--law", "gg", "--count", "5"], b"usage error: sample needs numpy, which is not installed\n"),
            (["sample", "--law", "gg", "--count", "0"], b"usage error: --count must be an integer >= 1, got 0\n"),
            (
                ["sample", "--law", "gg", "--beta", "21", "--count", "5"],
                b"usage error: GGNoise(beta=21.0, scale=1.0, mean=0.0) is out of range for sampling: its"
                b" Gamma(0.047619047619047616) variates round to 0 with probability 2**-51.19, each in place of"
                b" a draw up to 2**-51.19 of its scale\n",
            ),
            (["verify", "--quick"], b"usage error: verify needs numpy, which is not installed\n"),
        ],
        ids=["sample", "sample-count", "sample-beta", "verify"],
    )
    def test_one_line_names_numpy(self, argv, err):
        # None in sys.modules makes `import numpy` raise ModuleNotFoundError, as a Python without numpy does
        code = "import sys; sys.modules['numpy'] = None; from uwacap.cli import run; run()"
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=package_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", err)


class TestDecibelOverflow:
    """An SNR past the float range in linear terms, or not a number, is a one-line usage error."""

    # every dB input; "{}" is the value under test
    DB_ARGVS = [
        ["capacity", "--beta", "1", "--snr-db", "{}"],
        ["ergodic", "--alpha", "2", "--snr-db", "{}"],
        ["secrecy", "--beta-sd", "1", "--beta-se", "2", "--snr-se-db", "{}", "--snr-sd-db", "0"],
        ["secrecy", "--beta-sd", "1", "--beta-se", "2", "--snr-se-db", "0", "--snr-sd-db", "{}"],
    ]

    @pytest.mark.parametrize("argv", DB_ARGVS)
    def test_db_over_float_range(self, capsys, argv):
        code, out, err = run_cli(capsys, *(a.format("4000") for a in argv))
        assert (code, out) == (1, "")
        assert err == "usage error: 4000 dB is past the float range as a linear SNR\n"

    @pytest.mark.parametrize(
        "value,message",
        [("nan", "nan dB is not a number"), ("inf", "inf dB is past the float range as a linear SNR")],
        ids=["nan", "inf"],
    )
    @pytest.mark.parametrize("argv", DB_ARGVS)
    def test_db_not_finite_names_the_value(self, capsys, argv, value, message):
        # not "signal_power must be ..." or "snr_se must be ...": the message names what was typed
        code, out, err = run_cli(capsys, *(a.format(value) for a in argv))
        assert (code, out) == (1, "")
        assert err == "usage error: %s\n" % message

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--beta", "1", "--snr-db=0:4000:1000"],
            ["ergodic", "--alpha", "2", "--snr-db=0:4000:1000"],
            ["secrecy", "--beta-sd", "1", "--beta-se", "2", "--snr-se-db", "0", "--snr-sd-db=0:4000:1000"],
        ],
        ids=["capacity", "ergodic", "secrecy"],
    )
    def test_a_later_row_over_range_writes_nothing(self, tmp_path, capsys, argv, to_file):
        # rows 0 to 3000 dB are fine; the table is built whole, so the 4000 dB row stops it before any write
        target = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, *(["--out", str(target)] if to_file else []), *argv)
        assert (code, out) == (1, "")
        assert err == "usage error: 4000 dB is past the float range as a linear SNR\n"
        assert not target.exists()

    @pytest.mark.parametrize("snr_db", ["-inf:0:1", "0:nan:1", "0:1:inf"])
    def test_range_values_not_finite(self, capsys, snr_db):
        code, out, err = run_cli(capsys, "capacity", "--beta", "1", "--snr-db=" + snr_db)
        assert (code, out) == (1, "")
        assert err == "usage error: range values must be finite, got %r\n" % snr_db

    def test_range_step_zero(self, capsys):
        code, out, err = run_cli(capsys, "capacity", "--beta", "1", "--snr-db=0:1:0")
        assert (code, out, err) == (1, "", "usage error: range step must be nonzero\n")

    def test_minus_inf_db_is_zero_snr(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--beta", "2", "--snr-db=-inf")
        assert (code, parse_csv(out)[1]) == (0, [["-inf", "0", "0"]])

    def test_db_inside_float_range_prints_row(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--beta", "1", "--snr-db", "3080")
        assert code == 0
        assert parse_csv(out)[1][0][0] == "3080"


class TestRowCap:
    """Sizes over the cap are usage errors raised before anything is built."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ROWS", 100)

        def refuse(*args, **kwargs):
            raise AssertionError("sampler called past the row cap")

        monkeypatch.setattr(gg_noise, "sample", refuse)
        monkeypatch.setattr(fading, "sample", refuse)

    def test_range_at_cap(self, capsys):
        code, out, _ = run_cli(capsys, "--samples", "100", "capacity", "--beta", "2", "--snr-db=0:99:1")
        assert code == 0
        assert len(parse_csv(out)[1]) == 100

    @pytest.mark.parametrize("snr_db", ["0:100:1", "0:1e9:1e-9", "-1e308:1e308:1"])
    def test_range_over_cap(self, capsys, snr_db):
        code, out, err = run_cli(capsys, "--samples", "100", "capacity", "--beta", "2", "--snr-db=" + snr_db)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: range size must not exceed 100")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--samples", "100", "sample", "--law", "gg", "--count", "101"],
            ["--samples", "100", "sample", "--law", "alpha-mu", "--count", "101"],
            ["--samples", "101", "verify", "--quick"],
        ],
    )
    def test_sizes_over_cap(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "must not exceed 100" in err


class TestQuadRtol:
    """--quad-rtol must lie in (0, 1): a tolerance of 1 or more would print digits the rule never resolved."""

    @pytest.mark.parametrize("rtol", ["1", "1e300"])
    def test_one_or_more_is_a_usage_error(self, capsys, rtol):
        code, out, err = run_cli(capsys, "--quad-rtol", rtol, "ergodic", "--alpha", "2", "--snr-db", "0:10:5")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: quad_rtol must be a finite real in (0, 1)")
        assert err.count("\n") == 1

    def test_below_one_prints_rows(self, capsys):
        code, out, _ = run_cli(capsys, "--quad-rtol", "0.5", "ergodic", "--alpha", "2", "--snr-db", "0:10:5")
        assert code == 0
        assert len(parse_csv(out)[1]) == 3


class TestOutputFile:
    def test_out_flag_writes_lf_file(self, tmp_path, capsys):
        target = tmp_path / "gap.csv"
        code, out, _ = run_cli(capsys, "--out", str(target), "gap", "1", "2")
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")
        assert data.decode().splitlines()[0] == "beta,gap_bits,gap_nats"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "1"],
            ["capacity", "--beta", "1", "--snr-db", "0"],
            ["ergodic", "--alpha", "2", "--snr-db", "0"],
            ["secrecy", "--beta-sd", "1", "--beta-se", "2", "--snr-se-db", "0", "--snr-sd-db", "0"],
            pytest.param(["sample", "--law", "gg", "--count", "10"], marks=needs_numpy),
            pytest.param(["verify", "--quick"], marks=needs_numpy),
        ],
        ids=["gap", "capacity", "ergodic", "secrecy", "sample", "verify"],
    )
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, argv):
        # in every command the usage error is the only stderr line: secrecy's threshold note is not written either
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "--out", str(target), *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: cannot write %s: " % target)
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert not target.parent.exists()

    @staticmethod
    def run_process(argv, stderr=subprocess.PIPE, **kwargs):
        # Python's default stdio buffering, as a shell starts it: a buffered stderr keeps what a failed write left
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run(
            [sys.executable, "-m", "uwacap.cli", *argv], stderr=stderr, env=env, timeout=120, **kwargs
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "1"],
            ["secrecy", "--beta-sd", "1", "--beta-se", "2", "--snr-se-db", "0", "--snr-sd-db", "0"],
            pytest.param(["sample", "--law", "gg", "--count", "100000"], marks=needs_numpy),
            pytest.param(["verify", "--quick"], marks=needs_numpy),
        ],
        ids=["gap", "secrecy", "sample", "verify"],
    )
    def test_full_stdout_is_usage_error(self, argv):
        # a stdout on a full device is one usage error line, not a traceback; secrecy writes no threshold note
        with open("/dev/full", "w") as full:
            proc = self.run_process(argv, stdout=full)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(b"usage error: cannot write stdout: "), proc.stderr
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n"), proc.stderr

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
    def test_closed_stdout_is_usage_error(self):
        # `uwacap gap 1 >&-`: Python starts with sys.stdout None
        proc = self.run_process(["gap", "1"], preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == b"usage error: cannot write stdout: it is closed\n"

    @pytest.mark.parametrize(
        "argv", [["--help"], ["gap", "-h"], ["--seed", "3", "verify", "--help"], ["--out", "missing/x.csv", "-h"]]
    )
    def test_help_is_argparse_help_written_by_main(self, capsys, monkeypatch, tmp_path, argv):
        # main returns 0 with argparse's own help text on stdout and nothing on stderr; --out does not divert it
        monkeypatch.chdir(tmp_path)
        with monkeypatch.context() as patch:
            patch.delattr(cli._Parser, "print_help")  # argparse writes the help itself, then exits
            with pytest.raises(SystemExit) as info:
                main(argv)
        want = capsys.readouterr()
        assert (info.value.code, want.err) == (0, "") and want.out.startswith("usage: uwacap")
        assert run_cli(capsys, *argv) == (0, want.out, "")
        assert not os.path.exists("missing")

    def test_help_reaches_a_pipe_whole(self, capsys, monkeypatch):
        # `uwacap --help | cat`: the bytes main writes in process; COLUMNS fixes argparse's line width in both
        monkeypatch.setenv("COLUMNS", "100")
        proc = self.run_process(["--help"], stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == run_cli(capsys, "--help")[1]

    def test_help_into_a_pipe_closed_early_ends_quietly(self):
        # `uwacap --help | head -n 1`
        proc = subprocess.Popen(
            [sys.executable, "-m", "uwacap.cli", "--help"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env()
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
        assert first.startswith(b"usage: uwacap")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["gap", "--help"]])
    def test_help_to_full_stdout_is_usage_error(self, argv):
        # argparse alone would lose the help and exit 0
        with open("/dev/full", "w") as full:
            proc = self.run_process(argv, stdout=full)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(b"usage error: cannot write stdout: "), proc.stderr
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n"), proc.stderr

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
    @pytest.mark.parametrize("argv", [["--help"], ["gap", "--help"]])
    def test_help_to_closed_stdout_is_usage_error(self, argv):
        # argparse alone would write the help to stderr and exit 0
        proc = self.run_process(argv, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == b"usage error: cannot write stdout: it is closed\n"

    @pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")), reason="needs /dev/full and /proc")
    def test_failed_stdout_leaks_no_descriptor(self, monkeypatch):
        # a failed stdout is pointed at the null device, and the descriptor opened for that is closed again
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with open("/dev/full", "w") as full:
                monkeypatch.setattr(sys, "stdout", full)
                with pytest.raises(DomainError, match="cannot write stdout"):
                    cli._emit(["gap\n"], None)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_closed_stderr_keeps_quadrature_exit_code(self, capsys, monkeypatch):
        # `2>&-` starts Python with sys.stderr None; a quadrature failure still exits 2
        monkeypatch.setattr(sys, "stderr", None)

        def diverge(*args):
            raise QuadratureError("did not converge", 0.5, 1.0)

        monkeypatch.setattr(cli, "ergodic_bounds", diverge)
        assert run_cli(capsys, "ergodic", "--alpha", "2", "--snr-db", "0")[:2] == (2, "")

    @classmethod
    def run_without_stderr(cls, stderr, argv, stdout=subprocess.PIPE):
        # `uwacap ... 2>&-` or `2>/dev/full`
        if stderr == "closed":
            return cls.run_process(argv, stderr=None, stdout=stdout, preexec_fn=lambda: os.close(2))
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "w") as full:
            return cls.run_process(argv, stderr=full, stdout=stdout)

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 2 before exec")
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "1"],
            ["secrecy", "--beta-sd", "1", "--beta-se", "2", "--snr-se-db", "0", "--snr-sd-db", "0"],
            pytest.param(["sample", "--law", "gg", "--count", "10"], marks=needs_numpy),
            pytest.param(["verify", "--quick"], marks=needs_numpy),
        ],
        ids=["gap", "secrecy", "sample", "verify"],
    )
    @pytest.mark.parametrize("stderr", ["closed", "full"])
    def test_unwritable_stderr_keeps_stdout_and_exit_code(self, stderr, argv):
        # each command prints what it prints with stderr open and keeps its code
        want = self.run_process(argv, stdout=subprocess.PIPE)
        assert want.returncode == 0, want.stderr
        got = self.run_without_stderr(stderr, argv)
        assert (got.returncode, got.stdout) == (0, want.stdout)

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 2 before exec")
    @pytest.mark.parametrize("stderr", ["closed", "full"])
    def test_unwritable_stderr_keeps_usage_error_exit_code(self, stderr):
        # a usage error whose note finds no stderr still exits 1 and writes no stdout
        got = self.run_without_stderr(stderr, ["gap", "1e-320"])
        assert (got.returncode, got.stdout) == (1, b"")
        if os.path.exists("/dev/full"):  # a full stdout is such a usage error too
            with open("/dev/full", "w") as full:
                assert self.run_without_stderr(stderr, ["gap", "1"], stdout=full).returncode == 1
