"""Secrecy rates for wiretap settings with generalized-Gaussian noise.

The rate is the clamped difference of the legitimate and eavesdropper
capacity-bound expressions; it is a bound-difference figure of merit, not a
proven secrecy capacity for non-Gaussian wiretap channels.
"""

import math

from .capacity import gap
from .numerics import DomainError, Record, real, shape, to_units


class SecrecyScenario(Record):
    """Linear SNRs and noise shapes of the destination (SD) and eavesdropper (SE) links."""

    _fields = ("snr_sd", "snr_se", "beta_sd", "beta_se")

    def __init__(self, snr_sd, snr_se, beta_sd, beta_se):
        self._set("snr_sd", real("SecrecyScenario.snr_sd", snr_sd, 0.0, strict=False))
        self._set("snr_se", real("SecrecyScenario.snr_se", snr_se, 0.0, strict=False))
        self._set("beta_sd", shape("SecrecyScenario.beta_sd", beta_sd))
        self._set("beta_se", shape("SecrecyScenario.beta_se", beta_se))


def secrecy_rate_awgn(snr_sd, snr_se, units="bits"):
    """max(0, 0.5*log(1+snr_sd) - 0.5*log(1+snr_se))."""
    snr_sd = real("snr_sd", snr_sd, 0.0, strict=False)
    snr_se = real("snr_se", snr_se, 0.0, strict=False)
    nats = 0.5 * (math.log1p(snr_sd) - math.log1p(snr_se))
    return to_units(max(0.0, nats), units)


def _margin(scenario):
    """Unclamped difference of the two links' upper-bound expressions, in nats.

    gap(beta) - gap(beta) is exactly 0, so equal shapes reduce exactly to
    the AWGN difference.
    """
    return 0.5 * (math.log1p(scenario.snr_sd) - math.log1p(scenario.snr_se)) + (
        gap(scenario.beta_sd, "nats") - gap(scenario.beta_se, "nats")
    )


def secrecy_rate_awggn(scenario, units="bits"):
    """Clamped difference of the two links' capacity upper-bound expressions.

    Reduces exactly to the AWGN rate when both shapes are equal (the gaps
    cancel), in particular at beta_sd = beta_se = 2.
    """
    return to_units(max(0.0, _margin(scenario)), units)


def secrecy_positive(scenario, condition="derived"):
    """Whether a positive secrecy rate exists.

    ``condition='derived'`` (default) tests the condition implied by the
    rate formula itself: gap(beta_sd) + 0.5*log(1+snr_sd) strictly exceeds
    the same expression for the eavesdropper link; it is computed from the
    same margin as secrecy_rate_awggn, so it is exactly equivalent to
    secrecy_rate_awggn > 0. ``condition='printed'`` evaluates the variant
    with e**(1 - 1/beta) in the shape factor, kept for comparison: it adds
    0.5*(1/beta_sd - 1/beta_se) to the margin, so the two differ whenever
    beta_sd != beta_se.
    """
    if condition == "derived":
        return _margin(scenario) > 0.0
    if condition == "printed":
        return _margin(scenario) + 0.5 * (1.0 / scenario.beta_sd - 1.0 / scenario.beta_se) > 0.0
    raise DomainError("condition must be 'derived' or 'printed'")


def secrecy_threshold(beta_sd, beta_se, snr_se):
    """Smallest linear SNR_SD beyond which the secrecy rate turns positive.

    Closed form (1 + snr_se) * exp(2*(gap(beta_se) - gap(beta_sd))) - 1,
    clamped at 0; the rate is zero at the threshold and positive above it.
    A threshold beyond the float range is inf: the rate is then zero at
    every finite snr_sd.
    """
    beta_sd, beta_se = shape("beta_sd", beta_sd), shape("beta_se", beta_se)
    snr_se = real("snr_se", snr_se, 0.0, strict=False)
    shift = 2.0 * (gap(beta_se, "nats") - gap(beta_sd, "nats"))
    try:
        return max(0.0, math.expm1(math.log1p(snr_se) + shift))
    except OverflowError:
        return math.inf
