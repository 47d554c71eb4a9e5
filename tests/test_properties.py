"""Property tests of the closed forms and the ergodic rule over their supported domain.

Shapes range over beta in [1e-3, 20] and linear SNRs over [0, 1e12]. Laws
built by ``with_variance`` start at beta = 0.0078: below that their scale
underflows the normal floats and ``with_variance`` raises DomainError; laws
built directly take scales in [1e-3, 1e3]. Unit-power fading laws take
alpha in [0.3, 50] and mu in [0.2, 100], at SNRs in [1e-6, 1e12]. The CLI
properties take any finite float for each numeric argument. The shape
properties take every positive float, on both sides of the floor of
``numerics.shape``. Like tests/test_golden.py, this file needs neither numpy
nor SciPy.
"""

import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from uwacap import capacity, cli, fading, gg_noise, secrecy
from uwacap.numerics import ABSOLUTE_TOLERANCE, DEFAULT_RTOL, LN2, DomainError

BETA = st.floats(1e-3, 20.0)
BETA_WITH_VARIANCE = st.floats(0.0078, 20.0)
SNR = st.floats(0.0, 1e12)
SCENARIO = st.builds(secrecy.SecrecyScenario, SNR, SNR, BETA, BETA)
FADING = st.builds(fading.unit_power, st.floats(0.3, 50.0), st.floats(0.2, 100.0))
ERGODIC_SNR = st.floats(1e-6, 1e12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOOR = 1.1718826319535557e-305  # the smallest shape whose ln Gamma(3/beta) is a float
# each entry point that takes a shape, and the name its messages give that shape
SHAPE_TAKERS = st.sampled_from([
    (capacity.gap, "beta"),
    (lambda beta: gg_noise.with_variance(beta, 1.0), "beta"),
    (lambda beta: gg_noise.GGNoise(beta, 1.0), "GGNoise.beta"),
    (lambda beta: secrecy.SecrecyScenario(1.0, 1.0, beta, 2.0), "SecrecyScenario.beta_sd"),
    (lambda beta: secrecy.SecrecyScenario(1.0, 1.0, 2.0, beta), "SecrecyScenario.beta_se"),
    (lambda beta: secrecy.secrecy_threshold(beta, 2.0, 1.0), "beta_sd"),
    (lambda beta: secrecy.secrecy_threshold(2.0, beta, 1.0), "beta_se"),
])
FLOOR_MESSAGE = "is out of range: ln Gamma(3/beta) overflows a float"

# the same 100 examples on every run, so the tier-1 suite stays deterministic
closed_form = settings(max_examples=100, deadline=None, derandomize=True)


@closed_form
@given(BETA)
def test_gap_is_positive_except_at_two(beta):
    value = capacity.gap(beta, "nats")
    assert value > 0.0 if beta != 2.0 else value == 0.0


@closed_form
@given(BETA_WITH_VARIANCE, SNR)
def test_awggn_bounds_width_is_gap(beta, snr):
    bounds = capacity.awggn_bounds(capacity.ChannelConfig(snr, gg_noise.with_variance(beta, 1.0)))
    assert bounds.lower <= bounds.upper
    assert abs(bounds.width - capacity.gap(beta)) <= 1e-12


@closed_form
@given(BETA, st.floats(1e-3, 1e3), SNR)
def test_user_built_law_never_raises(beta, scale, power):
    # a law built directly is not held to with_variance's box: a variance past
    # the float range is inf and the SNR reads 0
    law = gg_noise.GGNoise(beta, scale)
    assert gg_noise.variance(law) > 0.0
    bounds = capacity.awggn_bounds(capacity.ChannelConfig(power, law))
    assert bounds.lower <= bounds.upper


@closed_form
@given(BETA)
def test_with_variance_round_trips_or_raises(beta):
    try:
        law = gg_noise.with_variance(beta, 1.0)
    except DomainError:
        assert beta < 0.0078
    else:
        assert abs(gg_noise.variance(law) - 1.0) <= 1e-12


@closed_form
@given(SCENARIO)
def test_positive_iff_rate_is_positive(scenario):
    assert secrecy.secrecy_positive(scenario) == (secrecy.secrecy_rate_awggn(scenario) > 0.0)


@closed_form
@given(SCENARIO, SNR)
def test_rate_never_decreases_in_snr_sd(scenario, other):
    lo, hi = sorted((scenario.snr_sd, other))
    rates = [
        secrecy.secrecy_rate_awggn(secrecy.SecrecyScenario(s, scenario.snr_se, scenario.beta_sd, scenario.beta_se))
        for s in (lo, hi)
    ]
    assert rates[0] <= rates[1]


@closed_form
@given(BETA, BETA, SNR)
def test_threshold_never_raises(beta_sd, beta_se, snr_se):
    threshold = secrecy.secrecy_threshold(beta_sd, beta_se, snr_se)
    assert threshold >= 0.0 and not math.isnan(threshold)


@closed_form
@given(SHAPE_TAKERS, st.floats(0.0, FLOOR, exclude_min=True, exclude_max=True))
def test_shape_below_the_floor_is_refused_by_name(taker, beta):
    call, name = taker
    try:
        call(beta)
    except DomainError as exc:
        assert str(exc) == "%s=%r %s" % (name, beta, FLOOR_MESSAGE)
    else:
        raise AssertionError("%s=%r was accepted" % (name, beta))


@closed_form
@given(SHAPE_TAKERS, st.floats(min_value=FLOOR))
def test_shape_at_or_above_the_floor_passes_the_floor(taker, beta):
    # with_variance may still refuse a scale that underflows, and every check refuses inf
    call, _ = taker
    try:
        call(beta)
    except DomainError as exc:
        assert FLOOR_MESSAGE not in str(exc)


def ergodic_slack(bits):
    """What the ergodic rule may be off by: its relative and absolute (nats) tolerances."""
    return DEFAULT_RTOL * bits + ABSOLUTE_TOLERANCE / LN2


@closed_form
@given(FADING, ERGODIC_SNR, ERGODIC_SNR, BETA)
def test_ergodic_is_bounded_monotone_and_keeps_the_gap(law, snr, other, beta):
    lo, hi = sorted((snr, other))
    low, high = (capacity.ergodic_awgn_capacity(s, law) for s in (lo, hi))
    for value, s in ((low, lo), (high, hi)):
        jensen = capacity.awgn_capacity(s)  # E{h**2} = 1 and log is concave
        assert 0.0 <= value <= jensen + ergodic_slack(jensen)
    assert high >= low - ergodic_slack(low)
    bounds = capacity.ergodic_bounds(lo, law, beta)
    assert bounds.lower == low
    assert abs(bounds.width - capacity.gap(beta)) <= 1e-12


def run_cli(command, *values):
    """Exit code of ``uwacap <command>`` with each (flag, value) pair passed as flag=repr(value)."""
    flags = ["%s=%r" % pair for pair in zip(values[::2], values[1::2])]
    return cli.main(["--out", os.devnull, command, *flags])


@closed_form
@given(FINITE)
def test_gap_cli_never_raises(beta):
    assert cli.main(["--out", os.devnull, "gap", "--", repr(beta)]) in (0, 1)


@closed_form
@given(FINITE, FINITE)
def test_capacity_cli_never_raises(beta, snr_db):
    assert run_cli("capacity", "--beta", beta, "--snr-db", snr_db) in (0, 1)


@closed_form
@given(FINITE, FINITE, FINITE, FINITE)
def test_secrecy_cli_never_raises(beta_sd, beta_se, snr_se_db, snr_sd_db):
    code = run_cli(
        "secrecy", "--beta-sd", beta_sd, "--beta-se", beta_se, "--snr-se-db", snr_se_db, "--snr-sd-db", snr_sd_db
    )
    assert code in (0, 1)


@closed_form
@given(FINITE, FINITE, FINITE, FINITE)
def test_ergodic_cli_never_raises(beta, alpha, mu, snr_db):
    # 2 is the exit code of a quadrature that did not converge
    assert run_cli("ergodic", "--beta", beta, "--alpha", alpha, "--mu", mu, "--snr-db", snr_db) in (0, 1, 2)
