"""Capacity sandwich for generalized-Gaussian-noise channels.

The channel capacity is squeezed between the equal-variance AWGN capacity
and that capacity plus a shape-only gap

    gap(beta) = 0.5 * log(beta**2 * pi * e**(1 - 2/beta) * Gamma(3/beta)
                          / (2 * Gamma(1/beta)**3)),

which vanishes exactly at beta = 2. Ergodic quantities average the
conditional capacity over an alpha-mu fading gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gg_noise as _gg
from .numerics import DEFAULT_RTOL, DomainError, integrate, log_gamma, real, to_units


def gap(beta, units="bits"):
    """The shape-only capacity gap; >= 0 everywhere, zero only at beta = 2."""
    b = real("beta", beta, 0.0)
    nats = 0.5 * (
        2.0 * math.log(b)
        + math.log(math.pi)
        + (1.0 - 2.0 / b)
        + log_gamma(3.0 / b)
        - math.log(2.0)
        - 3.0 * log_gamma(1.0 / b)
    )
    # rounding leaves about -1e-16 for some beta within 1.3e-7 of 2
    return to_units(max(0.0, nats), units)


def awgn_capacity(snr, units="bits"):
    """0.5 * log(1 + snr) for a linear power ratio snr >= 0."""
    return to_units(0.5 * math.log1p(real("snr", snr, 0.0, strict=False)), units)


@dataclass(frozen=True)
class CapacityBounds:
    """A (lower, upper) rate pair; upper - lower is the generating law's gap."""

    lower: float
    upper: float
    units: str = "bits"

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise DomainError("CapacityBounds requires lower <= upper")
        if self.units not in ("bits", "nats"):
            raise DomainError("units must be 'bits' or 'nats'")

    @property
    def width(self):
        return self.upper - self.lower


@dataclass(frozen=True)
class ChannelConfig:
    """Signal power P together with the additive GG noise law."""

    signal_power: float
    noise: _gg.GGNoise

    def __post_init__(self):
        real("signal_power", self.signal_power, 0.0, strict=False)

    @property
    def snr(self):
        return self.signal_power / _gg.variance(self.noise)


def awggn_bounds(config, units="bits"):
    """Capacity sandwich at SNR = P / noise variance."""
    lower = awgn_capacity(config.snr, units)
    return CapacityBounds(lower, lower + gap(config.noise.beta, units), units)


def conditional_bounds(config, h, units="bits"):
    """Sandwich conditioned on a fading gain h: P is replaced by P*h**2."""
    h = real("channel gain h", h, 0.0, strict=False)
    lower = awgn_capacity(config.snr * h * h, units)
    return CapacityBounds(lower, lower + gap(config.noise.beta, units), units)


def ergodic_awgn_capacity(snr_avg, fading, rtol=DEFAULT_RTOL, units="bits"):
    """E_h{0.5 * log(1 + snr * h**2)} by adaptive quadrature against the fading pdf.

    ``snr_avg`` is the average received SNR when the law carries unit average
    power gain (E{h**2} = 1); with an unnormalized law it is the raw P/sigma**2.
    """
    rho = real("snr_avg", snr_avg, 0.0, strict=False)
    if rho == 0:
        return 0.0
    am1 = fading.alpha * fading.mu - 1.0
    c0 = fading.log_norm
    mu, alpha, h_root = fading.mu, fading.alpha, fading.h_root

    def integrand(h):
        if h <= 0.0:
            return 0.0
        lp = c0 + am1 * math.log(h) - mu * (h / h_root) ** alpha
        return 0.5 * math.log1p(rho * h * h) * math.exp(lp)

    nats = integrate(integrand, 0.0, math.inf, rtol)
    return to_units(nats, units)


def ergodic_bounds(snr_avg, fading, beta, rtol=DEFAULT_RTOL, units="bits"):
    """Ergodic sandwich: the gap is constant in h, so it commutes with E_h."""
    lower = ergodic_awgn_capacity(snr_avg, fading, rtol, units)
    return CapacityBounds(lower, lower + gap(beta, units), units)
