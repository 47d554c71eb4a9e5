"""Capacity sandwich for generalized-Gaussian-noise channels.

The channel capacity is squeezed between the equal-variance AWGN capacity
and that capacity plus a shape-only gap

    gap(beta) = 0.5 * log(beta**2 * pi * e**(1 - 2/beta) * Gamma(3/beta)
                          / (2 * Gamma(1/beta)**3)),

which vanishes exactly at beta = 2. Ergodic quantities average the
conditional capacity over an alpha-mu fading gain, by a trapezoid rule in
ln G (G = mu * (h / h_root)**alpha ~ Gamma(mu, 1)) that needs only ``math``.
"""

import math

from . import gg_noise as _gg
from .numerics import (
    DEFAULT_RTOL,
    MAX_EVALUATIONS,
    DomainError,
    Record,
    halving_trapezoid,
    log_gamma,
    real,
    stirling_remainder,
    to_units,
    tolerance,
)


# c_2 ... c_24 of the Taylor series gap(beta) = sum_k c_k * h**k nats in
# h = 1/beta - 1/2 (DLMF 5.15):
#     c_k = (2*(-2)**k/k + (3**k * psi^(k-1)(3/2) - 3 * psi^(k-1)(1/2)) / k!) / 2.
# The constant and linear terms vanish, and so do the log singularities of the
# three terms at h = -1/2, so the series converges for |h| < 5/6.
_GAP_SERIES = (
    0.40220330081701894, -0.32425995513530664, 0.2897729302539605, -0.2742498266672252,
    0.2697474203945627, -0.27302634779790247, 0.28262476627120625, -0.2979048688482027,
    0.3186853040520077, -0.3450837463348079, 0.37744628324713503, -0.41631746768705913,
    0.4624320868655208, -0.5167203731094735, 0.5803229638202839, -0.6546140666027508,
    0.7412324017528423, -0.8421201544415571, 0.9595706258910397, -1.0962856450763578,
    1.2554441502721962, -1.4407837074519358, 1.6566971229285532,
)


def gap(beta, units="bits"):
    """The shape-only capacity gap; > 0 everywhere except at beta = 2, where it is 0.

    For 1.5 <= beta <= 2.5 it is the Taylor series above, summed to k = 24 in
    h = (2 - beta) / (2 * beta), where 2 - beta is exact; elsewhere it is the
    closed form. The closed form adds O(1) log-gamma terms whose sum is
    O((beta - 2)**2), so it loses digits as beta nears 2 (4e-8 relative at
    beta = 2.001). For beta in [0.1, 20] the result is within 1e-12 relative
    of the exact gap.
    """
    b = real("beta", beta, 0.0)
    if 1.5 <= b <= 2.5:
        h = (2.0 - b) / (2.0 * b)
        poly = 0.0
        for c in reversed(_GAP_SERIES):
            poly = poly * h + c
        return to_units(poly * h * h, units)
    if b < 1.1718826319535557e-305:  # below it ln Gamma(3 / beta) overflows a float
        raise DomainError("beta=%r is out of range: ln Gamma(3/beta) overflows a float" % b)
    nats = 0.5 * (
        2.0 * math.log(b)
        + math.log(math.pi)
        + (1.0 - 2.0 / b)
        + log_gamma(3.0 / b)
        - math.log(2.0)
        - 3.0 * log_gamma(1.0 / b)
    )
    return to_units(nats, units)


def awgn_capacity(snr, units="bits"):
    """0.5 * log(1 + snr) for a linear power ratio snr >= 0."""
    return to_units(0.5 * math.log1p(real("snr", snr, 0.0, strict=False)), units)


class CapacityBounds(Record):
    """A (lower, upper) rate pair in the producer's units; upper - lower is the generating law's gap."""

    _fields = ("lower", "upper")

    def __init__(self, lower, upper):
        if not lower <= upper:
            raise DomainError("CapacityBounds requires lower <= upper")
        self._set("lower", real("CapacityBounds.lower", lower))
        self._set("upper", real("CapacityBounds.upper", upper))

    @property
    def width(self):
        return self.upper - self.lower


class ChannelConfig(Record):
    """Signal power P together with the additive GG noise law."""

    _fields = ("signal_power", "noise")

    def __init__(self, signal_power, noise):
        self._set("signal_power", real("signal_power", signal_power, 0.0, strict=False))
        self._set("noise", noise)

    @property
    def snr(self):
        return self.signal_power / _gg.variance(self.noise)


def awggn_bounds(config, units="bits"):
    """Capacity sandwich at SNR = P / noise variance."""
    lower = awgn_capacity(config.snr, units)
    return CapacityBounds(lower, lower + gap(config.noise.beta, units))


def _softplus_slope(z):
    """q = sigmoid(z) / softplus(z), which falls from 1 to 0, and dq/dz = q * d / softplus.

    d = (1 - sigmoid) * softplus - sigmoid is formed so that it cannot round above 0.
    """
    t = math.exp(-abs(z))
    if z > 0.0:
        softplus = z + math.log1p(t)
        sigmoid, d = 1.0 / (1.0 + t), (t * softplus - 1.0) / (1.0 + t)
    else:
        softplus = math.log1p(t)
        if softplus == 0.0:  # z below -745, where q is 1 to the last bit
            return 1.0, 0.0
        sigmoid, d = t / (1.0 + t), (softplus - t) / (1.0 + t)
    q = sigmoid / softplus
    return q, q * d / softplus


def ergodic_awgn_capacity(snr_avg, fading, rtol=DEFAULT_RTOL, units="bits"):
    """E_h{0.5 * log(1 + snr * h**2)} by a trapezoid rule in v = ln(G / mu).

    ``snr_avg`` is the average received SNR when the law carries unit average
    power gain (E{h**2} = 1); with an unnormalized law it is the raw P/sigma**2.

    G = mu * (h / h_root)**alpha is Gamma(mu, 1), so with ln c = ln snr + 2 ln h_root

        E = mu**mu e**-mu / Gamma(mu) * Int 0.5 * softplus(2v/alpha + ln c) * e**(mu * (v - expm1(v))) dv

    over the real line. The integrand is analytic for |Im v| < (pi/2) * min(1, alpha),
    so each halving of the step roughly squares the error: ``halving_trapezoid``
    halves it until |T(h/2) - T(h)| <= rtol * |T|, with no absolute floor, so
    a tiny average keeps rtol (below about 1e-4 nats it takes extra halvings).
    It is also log-concave, so once the lattice values fall their ratios keep
    falling, and each side is cut where a geometric bound puts the rest below
    rtol/1000 of the sum. The lattice is centred on the mode, with a first
    step no wider than the integrand there. Past MAX_EVALUATIONS integrand
    values it raises QuadratureError carrying the last estimate and indicator
    in nats.
    """
    rho = real("snr_avg", snr_avg, 0.0, strict=False)
    rtol = tolerance("rtol", rtol)
    if rho == 0:
        return 0.0
    mu, a = fading.mu, 2.0 / fading.alpha
    log_c = math.log(rho) + 2.0 * math.log(fading.h_root)

    peak = None

    def phi(v):  # ln of the integrand, up to a constant; once peak is set, e**(that - peak)
        z = a * v + log_c
        if z > 0.0:
            log_softplus = math.log(z + math.log1p(math.exp(-z)))
        else:
            log_softplus = z if z < -37.0 else math.log(math.log1p(math.exp(z)))
        if abs(v) < 1e-4:  # v - expm1(v) cancels, and a huge mu puts the lattice at v ~ 1/sqrt(mu)
            ln_f = log_softplus - mu * v * v * (0.5 + v * (1.0 / 6.0 + v / 24.0))
        else:
            try:
                ln_f = log_softplus + mu * (v - math.expm1(v))
            except OverflowError:  # e**v past the float range: the weight is 0
                ln_f = -math.inf
        return ln_f if peak is None else math.exp(ln_f - peak)

    # phi is concave, and its slope a * q - mu * expm1(v) is > 0 at v = 0 and < 0
    # at log1p(a / mu): Newton steps inside that bracket find the mode
    lo, hi = 0.0, math.log1p(a / mu)
    centre = 0.5 * hi
    for _ in range(64):
        q, dq = _softplus_slope(a * centre + log_c)
        slope, curvature = a * q - mu * math.expm1(centre), a * a * dq - mu * math.exp(centre)
        lo, hi = (centre, hi) if slope > 0.0 else (lo, centre)
        width = 1.0 / math.sqrt(-curvature)
        newton = centre - slope / curvature
        step = (newton if lo < newton < hi else 0.5 * (lo + hi)) - centre
        if abs(step) <= 0.01 * width:
            break
        centre += step

    peak = phi(centre)  # from here on phi(v) is the integrand over its value at the centre
    # the integrand at the centre, in nats: mu**mu e**-mu / Gamma(mu) = sqrt(mu / 2 pi) e**-J(mu) by Stirling
    scale = math.exp(peak + 0.5 * math.log(mu / (2.0 * math.pi)) - stirling_remainder(mu)) / 2.0

    h = min(width, 0.5 * math.pi * min(1.0, fading.alpha))
    nats = halving_trapezoid(phi, centre, h, rtol, 0.0, 1e-3 * rtol, MAX_EVALUATIONS, log_concave=True, scale=scale)
    return to_units(nats, units)


def ergodic_bounds(snr_avg, fading, beta, rtol=DEFAULT_RTOL, units="bits"):
    """Ergodic sandwich: the gap is constant in h, so it commutes with E_h."""
    lower = ergodic_awgn_capacity(snr_avg, fading, rtol, units)
    return CapacityBounds(lower, lower + gap(beta, units))
