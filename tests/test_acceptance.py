"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import time

import pytest

np = pytest.importorskip("numpy")

from conftest import rayleigh_ergodic_bits
from uwacap import capacity, fading, gg_noise as gg, secrecy, verify
from uwacap.cli import main
from uwacap.config import SimConfig

ENTROPY_BETAS = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0]


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("[ACCEPTANCE] criterion %d %-24s %s%s" % (number, name, status, suffix))
    assert passed, "criterion %d (%s) failed%s" % (number, name, suffix)


def test_criterion_1_gap_function():
    start = time.perf_counter()
    ok = abs(capacity.gap(2.0, "bits")) <= 1e-12
    # analytic oracle: f(1) = 0.5 * log2(pi/e) bits
    oracle = 0.5 * math.log2(math.pi / math.e)
    ok &= abs(capacity.gap(1.0, "bits") - oracle) <= 1e-9
    for beta in np.arange(0.1, 5.05, 0.1):
        if abs(beta - 2.0) < 1e-9:
            continue
        ok &= capacity.gap(float(beta), "bits") > 0.0
    elapsed = time.perf_counter() - start
    report(1, "gap function", ok and elapsed < 1.0, "%.2fs" % elapsed)


def test_criterion_2_entropy_consistency():
    start = time.perf_counter()
    config = SimConfig(seed=20260823, samples=100_000)
    worst = 0.0
    for beta in ENTROPY_BETAS:
        law = gg.with_variance(beta, 1.0)
        estimate, stderr = verify.mc_entropy(law, config)
        worst = max(worst, abs(estimate - gg.entropy(law, "nats")) / stderr)
    elapsed = time.perf_counter() - start
    report(2, "entropy consistency", worst < 4.0 and elapsed < 10.0,
           "max |z|=%.2f, %.1fs" % (worst, elapsed))


def test_criterion_3_equal_variance_identity():
    start = time.perf_counter()
    gaussian = verify.grid_entropy(verify.gg_density_grid(gg.with_variance(2.0, 1.0)))
    worst = 0.0
    for beta in ENTROPY_BETAS:
        shaped = verify.grid_entropy(verify.gg_density_grid(gg.with_variance(beta, 1.0)))
        worst = max(worst, abs((gaussian - shaped) - capacity.gap(beta, "nats")))
    elapsed = time.perf_counter() - start
    report(3, "entropy-gap identity", worst <= 1e-6 and elapsed < 30.0,
           "max err=%.1e nats, %.1fs" % (worst, elapsed))


def test_criterion_4_capacity_sandwich():
    start = time.perf_counter()
    ok = True
    worst_slack = 0.0
    worst_collapse = 0.0
    for beta in ENTROPY_BETAS:
        for snr in (0.1, 1.0, 10.0, 100.0):
            config = capacity.ChannelConfig(snr, gg.with_variance(beta, 1.0))
            mi = verify.gaussian_input_mi(config, "bits")
            bounds = capacity.awggn_bounds(config, "bits")
            slack = max(bounds.lower - mi, mi - bounds.upper, 0.0)
            worst_slack = max(worst_slack, slack)
            ok &= slack <= verify._MI_SLACK
            if beta == 2.0:
                worst_collapse = max(worst_collapse, abs(mi - bounds.lower))
    ok &= worst_collapse <= verify._MI_SLACK
    elapsed = time.perf_counter() - start
    report(4, "capacity sandwich", ok and elapsed < 120.0,
           "max slack=%.1e, collapse=%.1e, %.1fs" % (worst_slack, worst_collapse, elapsed))


def test_criterion_5_ergodic_oracle():
    pytest.importorskip("mpmath")  # the Rayleigh reference
    start = time.perf_counter()
    rayleigh = fading.unit_power(2.0, 1.0)
    ok = True
    for snr in (0.1, 1.0, 10.0):
        ok &= abs(capacity.ergodic_awgn_capacity(snr, rayleigh) - rayleigh_ergodic_bits(snr)) <= 1e-6
    worst_z = 0.0
    for alpha in (1.0, 2.0):
        for mu in (1.0, 2.0):
            law = fading.unit_power(alpha, mu)
            gains = fading.sample(law, 555, 1_000_000)
            rates = 0.5 * np.log2(1.0 + gains * gains)
            stderr = rates.std(ddof=1) / math.sqrt(len(rates))
            z = abs(capacity.ergodic_awgn_capacity(1.0, law) - rates.mean()) / stderr
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - start
    report(5, "ergodic oracle", ok and worst_z < 4.0 and elapsed < 60.0,
           "max |z|=%.2f, %.1fs" % (worst_z, elapsed))


def test_criterion_6_ergodic_sandwich():
    start = time.perf_counter()
    ok = True
    snrs = [10.0 ** (db / 10.0) for db in (-10.0, 0.0, 10.0, 20.0, 30.0)]
    for beta in (0.5, 1.0, 2.0):
        for alpha in (1.0, 2.0, 3.0, 4.0):
            law = fading.unit_power(alpha, 1.0)
            for snr in snrs:
                bounds = capacity.ergodic_bounds(snr, law, beta)
                ok &= abs(bounds.width - capacity.gap(beta, "bits")) <= 1e-12
    for snr in snrs:
        lowers = [
            capacity.ergodic_bounds(snr, fading.unit_power(a, 1.0), 1.0).lower
            for a in (1.0, 2.0, 3.0, 4.0)
        ]
        ok &= all(a <= b for a, b in zip(lowers, lowers[1:]))
    elapsed = time.perf_counter() - start
    report(6, "ergodic sandwich", ok and elapsed < 60.0, "%.1fs" % elapsed)


def test_criterion_7_secrecy_reproduction():
    start = time.perf_counter()
    snr_se = 10.0 ** (-0.5)  # -5 dB

    # case 1: equal Gaussian shapes, onset exactly at the eavesdropper SNR
    ok = True
    for db in np.arange(-10.0, 0.05, 0.5):
        scenario = secrecy.SecrecyScenario(10.0 ** (db / 10.0), snr_se, 2.0, 2.0)
        rate = secrecy.secrecy_rate_awggn(scenario)
        ok &= (rate == 0.0) if db <= -5.0 else (rate > 0.0)

    # sign equivalence on random scenarios
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        scenario = secrecy.SecrecyScenario(
            10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2),
            10.0 ** rng.uniform(-0.6, 0.6), 10.0 ** rng.uniform(-0.6, 0.6),
        )
        ok &= secrecy.secrecy_positive(scenario) == (secrecy.secrecy_rate_awggn(scenario) > 0.0)

    # gap cancellation
    for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
        scenario = secrecy.SecrecyScenario(3.0, 1.0, beta, beta)
        ok &= secrecy.secrecy_rate_awggn(scenario) == secrecy.secrecy_rate_awgn(3.0, 1.0)

    # threshold consistency
    eps = 1e-6
    for beta_sd, beta_se, se in [(2.0, 1.0, 1.0), (1.5, 0.8, snr_se), (1.0, 3.0, 5.0)]:
        threshold = secrecy.secrecy_threshold(beta_sd, beta_se, se)
        below = secrecy.SecrecyScenario(threshold * (1 - eps), se, beta_sd, beta_se)
        above = secrecy.SecrecyScenario(threshold * (1 + eps), se, beta_sd, beta_se)
        ok &= secrecy.secrecy_rate_awggn(below) == 0.0
        ok &= secrecy.secrecy_rate_awggn(above) > 0.0

    # case 2: report the computed threshold and sign instead of assuming it
    threshold = secrecy.secrecy_threshold(1.5, 0.8, snr_se)
    threshold_db = 10.0 * math.log10(threshold)
    at_minus_6db = secrecy.secrecy_rate_awggn(
        secrecy.SecrecyScenario(10.0 ** (-0.6), snr_se, 1.5, 0.8)
    )
    print(
        "[ACCEPTANCE]   case (beta_sd=1.5, beta_se=0.8, snr_se=-5dB): "
        "threshold snr_sd = %.6f dB; rate at -6 dB = %.6f bits (%s below -5 dB)"
        % (threshold_db, at_minus_6db, "positive" if at_minus_6db > 0 else "zero")
    )
    ok &= secrecy.secrecy_positive(
        secrecy.SecrecyScenario(threshold * (1 + eps), snr_se, 1.5, 0.8)
    )

    elapsed = time.perf_counter() - start
    report(7, "secrecy reproduction", ok and elapsed < 10.0, "%.1fs" % elapsed)


def test_criterion_8_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()
    commands = [
        ["gap", "0.5", "1", "2", "3"],
        ["capacity", "--beta", "1", "--snr-db=-10:10:5"],
        ["ergodic", "--alpha", "2", "--mu", "1", "--beta", "1", "--snr-db", "0:10:5"],
        ["secrecy", "--beta-sd", "2", "--beta-se", "2", "--snr-se-db", "-5", "--snr-sd-db=-7:0:1"],
        ["sample", "--law", "gg", "--beta", "0.8", "--count", "1000"],
        ["sample", "--law", "alpha-mu", "--alpha", "2", "--count", "1000"],
        ["--samples", "2000", "verify", "--quick"],
    ]
    ok = True
    for index, command in enumerate(commands):
        outputs = []
        for threads in ("1", "8"):
            for repeat in range(2):
                target = tmp_path / ("c%d_t%s_r%d.csv" % (index, threads, repeat))
                code = main(["--seed", "7", "--threads", threads, "--out", str(target)] + command)
                capsys.readouterr()
                ok &= code == 0
                outputs.append(target.read_bytes())
        ok &= all(o == outputs[0] for o in outputs[1:])
    elapsed = time.perf_counter() - start
    report(8, "CLI determinism", ok, "%.1fs" % elapsed)
