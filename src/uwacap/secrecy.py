"""Secrecy rates for wiretap settings with generalized-Gaussian noise.

The rate is the clamped difference of the legitimate and eavesdropper
capacity-bound expressions; it is a bound-difference figure of merit, not a
proven secrecy capacity for non-Gaussian wiretap channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .capacity import gap
from .numerics import DomainError, log_gamma, real, to_units


@dataclass(frozen=True)
class SecrecyScenario:
    """Linear SNRs and noise shapes of the destination (SD) and eavesdropper (SE) links."""

    snr_sd: float
    snr_se: float
    beta_sd: float
    beta_se: float

    def __post_init__(self):
        real("SecrecyScenario.snr_sd", self.snr_sd, 0.0, strict=False)
        real("SecrecyScenario.snr_se", self.snr_se, 0.0, strict=False)
        real("SecrecyScenario.beta_sd", self.beta_sd, 0.0)
        real("SecrecyScenario.beta_se", self.beta_se, 0.0)


def secrecy_rate_awgn(snr_sd, snr_se, units="bits"):
    """max(0, 0.5*log(1+snr_sd) - 0.5*log(1+snr_se))."""
    snr_sd = real("snr_sd", snr_sd, 0.0, strict=False)
    snr_se = real("snr_se", snr_se, 0.0, strict=False)
    nats = 0.5 * (math.log1p(snr_sd) - math.log1p(snr_se))
    return to_units(max(0.0, nats), units)


def secrecy_rate_awggn(scenario, units="bits"):
    """Clamped difference of the two links' capacity upper-bound expressions.

    Reduces exactly to the AWGN rate when both shapes are equal (the gaps
    cancel), in particular at beta_sd = beta_se = 2.
    """
    if scenario.beta_sd == scenario.beta_se:
        return secrecy_rate_awgn(scenario.snr_sd, scenario.snr_se, units)
    nats = (
        0.5 * math.log1p(scenario.snr_sd)
        + gap(scenario.beta_sd, "nats")
        - 0.5 * math.log1p(scenario.snr_se)
        - gap(scenario.beta_se, "nats")
    )
    return to_units(max(0.0, nats), units)


def _log_printed_factor(beta):
    # beta**2 * e**(1 - 1/beta) * Gamma(3/beta) / Gamma(1/beta)**3, in log form
    return (
        2.0 * math.log(beta)
        + (1.0 - 1.0 / beta)
        + log_gamma(3.0 / beta)
        - 3.0 * log_gamma(1.0 / beta)
    )


def secrecy_positive(scenario, condition="derived"):
    """Whether a positive secrecy rate exists.

    ``condition='derived'`` (default) tests the condition implied by the
    rate formula itself: gap(beta_sd) + 0.5*log(1+snr_sd) strictly exceeds
    the same expression for the eavesdropper link; it is exactly equivalent
    to secrecy_rate_awggn > 0. ``condition='printed'`` evaluates the variant
    with e**(1 - 1/beta) in the shape factor, kept for comparison; the two
    differ whenever beta_sd != beta_se.
    """
    if condition == "derived":
        lhs = 2.0 * gap(scenario.beta_sd, "nats") + math.log1p(scenario.snr_sd)
        rhs = 2.0 * gap(scenario.beta_se, "nats") + math.log1p(scenario.snr_se)
        return lhs > rhs
    if condition == "printed":
        lhs = _log_printed_factor(scenario.beta_sd) + math.log1p(scenario.snr_sd)
        rhs = _log_printed_factor(scenario.beta_se) + math.log1p(scenario.snr_se)
        return lhs > rhs
    raise DomainError("condition must be 'derived' or 'printed'")


def secrecy_threshold(beta_sd, beta_se, snr_se):
    """Smallest linear SNR_SD beyond which the secrecy rate turns positive.

    Closed form (1 + snr_se) * exp(2*(gap(beta_se) - gap(beta_sd))) - 1,
    clamped at 0; the rate is zero at the threshold and positive above it.
    """
    snr_se = real("snr_se", snr_se, 0.0, strict=False)
    shift = 2.0 * (gap(beta_se, "nats") - gap(beta_sd, "nats"))
    return max(0.0, math.expm1(math.log1p(snr_se) + shift))
