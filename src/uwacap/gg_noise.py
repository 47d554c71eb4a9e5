"""Generalized Gaussian noise law: density, variance, entropy, exact sampling.

pdf(n) = beta / (2 * scale * Gamma(1/beta)) * exp(-(|n - mean| / scale)**beta)

beta = 2 is the Gaussian case, beta = 1 the Laplacian; smaller beta gives a
more peaked, heavier-tailed law.
"""

import math
import sys

from .numerics import DomainError, Record, log_gamma, real, to_units

_EPS = sys.float_info.epsilon
_TINY = 1e-300  # Lentz's stand-in for a zero denominator
_LOG_X_MAX = math.log(sys.float_info.max)  # tail_radius never lets e**x overflow
_MAX_STEPS = 200  # Newton and bisection steps of tail_radius
_MAX_TERMS = 10_000  # series or continued-fraction terms of Q; enough for 1/beta up to about 1e6


class GGNoise(Record):
    """A generalized Gaussian law with shape ``beta``, scale and mean."""

    _fields = ("beta", "scale", "mean")

    def __init__(self, beta, scale, mean=0.0):
        self._set("beta", real("GGNoise.beta", beta, 0.0))
        self._set("scale", real("GGNoise.scale", scale, 0.0))
        self._set("mean", real("GGNoise.mean", mean))

    @property
    def log_norm(self):
        """ln of the density's normalizing constant beta/(2*scale*Gamma(1/beta))."""
        return (
            math.log(self.beta)
            - math.log(2.0 * self.scale)
            - log_gamma(1.0 / self.beta)
        )


def log_pdf(law, n):
    """ln pdf evaluated directly; never round-trips through pdf().

    Where z**beta overflows (z = |n - mean| / scale past 2.6e15 at beta = 20),
    ln pdf is -inf and pdf is 0, without a RuntimeWarning.
    """
    import numpy as np  # loaded on first use, so the closed forms never import it

    arr = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("noise amplitude must be finite")
    z = np.abs(arr - law.mean) / law.scale
    with np.errstate(over="ignore"):
        out = law.log_norm - z**law.beta
    return float(out) if out.ndim == 0 else out


def pdf(law, n):
    import numpy as np

    return np.exp(log_pdf(law, n))


def variance(law):
    """scale**2 * Gamma(3/beta) / Gamma(1/beta), summed in logs.

    For beta near 0.01 the gamma ratio alone overflows a float while the
    variance does not. A variance beyond the float range is inf, so the
    SNR of a law built directly with a smaller shape reads 0. A variance
    under the normal floats (a tiny scale) raises DomainError: an SNR
    divided by it would be a division by zero or lose digits.
    """
    b = law.beta
    try:
        var = math.exp(2.0 * math.log(law.scale) + log_gamma(3.0 / b) - log_gamma(1.0 / b))
    except OverflowError:
        return math.inf
    if var < sys.float_info.min:
        raise DomainError(
            "GG law with beta=%r and scale=%r is out of range: its variance underflows the normal floats"
            % (law.beta, law.scale)
        )
    return var


def with_variance(beta, target_variance, mean=0.0):
    """The GG law of shape ``beta`` whose variance is ``target_variance``."""
    beta = real("beta", beta, 0.0)
    target_variance = real("target_variance", target_variance, 0.0)
    if beta < 1.1718826319535557e-305:  # below it ln Gamma(3 / beta) overflows a float
        raise DomainError("beta=%r is out of range: ln Gamma(3/beta) overflows a float" % beta)
    scale = math.sqrt(target_variance) * math.exp(0.5 * (log_gamma(1.0 / beta) - log_gamma(3.0 / beta)))
    if scale < sys.float_info.min:  # a subnormal scale has lost digits: 0.99983 variance at beta 0.0075
        raise DomainError(
            "beta=%r with target_variance=%r is out of range: the GG scale underflows the normal floats"
            % (beta, target_variance)
        )
    return GGNoise(beta=beta, scale=scale, mean=mean)


def entropy(law, units="nats"):
    """Differential entropy 1/beta + ln(2*scale*Gamma(1/beta)/beta).

    Location-invariant: the mean does not enter.
    """
    b = law.beta
    nats = 1.0 / b + math.log(2.0 * law.scale) + log_gamma(1.0 / b) - math.log(b)
    return to_units(nats, units)


def _log_q(a, y, log_gamma_a):
    """ln Q(a, x) at x = e**y, with ln(x**a * e**-x / Gamma(a)) for its slope.

    Q = 1 - P with P by its power series below x = a + 1 (DLMF 8.7.1);
    above it, Q by Lentz's evaluation of its continued fraction (DLMF 8.9.2).
    Either needs O(sqrt(a)) terms; past _MAX_TERMS it raises DomainError.
    """
    x = math.exp(y)
    log_front = a * y - x - log_gamma_a
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _MAX_TERMS):
            term *= x / (a + n)
            total += term
            if term <= _EPS * total:
                p = math.exp(log_front + math.log(total))
                return (math.log1p(-p) if p < 1.0 else -math.inf), log_front
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        fraction = d
        for i in range(1, _MAX_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = b + an / c
            c = c if abs(c) > _TINY else _TINY
            delta = c * d
            fraction *= delta
            if abs(delta - 1.0) <= _EPS:
                return log_front + math.log(fraction), log_front
    raise DomainError("beta=%r is out of range: Q(1/beta, x) needs more than %d terms" % (1.0 / a, _MAX_TERMS))


def tail_radius(law, mass):
    """Radius t with P(|N - mean| > t) = mass: t = scale * x**(1/beta) where Q(1/beta, x) = mass.

    Q is the regularized upper incomplete gamma function (``_log_q``). ln Q is
    concave and decreasing in y = ln x, so Newton steps on ln Q - ln mass
    from the right of the root never pass it. From the first guess
    x = 1/beta - ln mass, y climbs in steps that double until it is right of
    the root; then Newton steps inside the bisection bracket so found
    converge to it. A y past 709, where e**x would overflow, no convergence
    within 200 steps, a shape 1/beta past about 1e6 (too many terms of Q),
    or a radius that leaves the positive floats, raises DomainError.
    """
    if not 0.0 < real("tail mass", mass) < 1.0:
        raise DomainError("tail mass must lie in (0, 1), got %r" % (mass,))
    a = 1.0 / law.beta
    log_gamma_a = log_gamma(a)
    target = math.log(mass)

    def excess(y):  # ln Q - ln mass at x = e**y, and its slope in y
        log_q, log_front = _log_q(a, y, log_gamma_a)
        return log_q - target, -math.exp(log_front - log_q)

    lo, hi = -math.inf, math.inf  # the excess is > 0 at lo and < 0 at hi
    # where P(a, x) = x**a / Gamma(a + 1) * (1 + O(x)) puts the root at a tiny x,
    # as for a large beta at a moderate mass, that is the guess; else the tail's
    y, reach = (math.log1p(-mass) + log_gamma(a + 1.0)) / a, 1.0
    if y > -40.0:
        y = math.log(a - target)
    for _ in range(_MAX_STEPS):
        if y > _LOG_X_MAX:
            raise DomainError("beta=%r with tail mass %r is out of range: the radius overflows" % (law.beta, mass))
        g, slope = excess(y)
        if g == 0.0:
            break
        lo, hi = (y, hi) if g > 0.0 else (lo, y)
        newton = y - g / slope
        if hi == math.inf:  # left of the root a Newton step can overshoot without bound
            step, reach = reach, 2.0 * reach
        elif lo < newton < hi or abs(newton - y) <= _EPS * max(1.0, abs(y)):
            step = newton - y
        else:
            step = 0.5 * (lo + hi) - y
        y += step
        if abs(step) <= _EPS * max(1.0, abs(y)):
            break
    else:
        raise DomainError("beta=%r with tail mass %r is out of range: Q cannot be inverted" % (law.beta, mass))
    try:
        radius = law.scale * math.exp(a * y)
    except OverflowError:
        radius = math.inf
    if not 0.0 < radius < math.inf:
        raise DomainError("beta=%r with tail mass %r is out of range: the radius leaves the floats" % (law.beta, mass))
    return radius


def sample(law, seed, count, chunks=8, threads=1):
    """``count`` i.i.d. draws, deterministic given (seed, count, chunks).

    Uses the exact representation N = mean + S * scale * G**(1/beta) with S a
    fair sign and G ~ Gamma(1/beta, 1). G is drawn straight into the output
    and transformed in place, so a draw allocates its output once plus, per
    running thread, one chunk's signs. Each chunk costs about 1.7 KB and
    70-100 us beyond its draws (measured at 10**5 chunks), and at most one
    thread runs per chunk. A shape beta > 1075/53, whose gamma variates would
    round to 0 in place of draws that matter, raises DomainError.
    """
    from .sampling import check_gamma_zeros, chunked_draw

    inv = 1.0 / law.beta
    check_gamma_zeros(law, inv, inv)

    def draw(rng, out):
        rng.standard_gamma(inv, out=out)
        signs = rng.integers(0, 2, len(out))
        signs *= -2
        signs += 1
        # mean + S * scale * G**inv, bit for bit: multiplying by +-1 is exact
        out **= inv
        out *= law.scale
        out *= signs
        out += law.mean

    return chunked_draw(draw, seed, count, chunks=chunks, threads=threads)
