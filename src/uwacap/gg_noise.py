"""Generalized Gaussian noise law: density, variance, entropy, exact sampling.

pdf(n) = beta / (2 * scale * Gamma(1/beta)) * exp(-(|n - mean| / scale)**beta)

beta = 2 is the Gaussian case, beta = 1 the Laplacian; smaller beta gives a
more peaked, heavier-tailed law.
"""

import math
import sys

from .numerics import DomainError, Record, gamma_tail_log_quantile, log_gamma, real, shape, to_units


class GGNoise(Record):
    """A generalized Gaussian law with shape ``beta``, scale and mean."""

    _fields = ("beta", "scale", "mean")

    def __init__(self, beta, scale, mean=0.0):
        self._set("beta", shape("GGNoise.beta", beta))
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
    ln pdf is -inf and pdf is 0, without a RuntimeWarning. An array result is
    built in place in the one array that ``n - mean`` fills, never in ``n``;
    a 0-d or float input takes the same array loops and gives a float.
    """
    import numpy as np  # loaded on first use, so the closed forms never import it

    arr = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("noise amplitude must be finite")
    z = np.subtract(arr, law.mean, out=np.empty_like(arr))
    np.abs(z, out=z)
    z /= law.scale
    with np.errstate(over="ignore"):
        z **= law.beta
    np.subtract(law.log_norm, z, out=z)
    return float(z) if z.ndim == 0 else z


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
    """The GG law of shape ``beta`` (checked by ``numerics.shape``) whose variance is ``target_variance``."""
    beta = shape("beta", beta)
    target_variance = real("target_variance", target_variance, 0.0)
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


def tail_radius(law, mass):
    """Radius t with P(|N - mean| > t) = mass: t = scale * x**(1/beta) where Q(1/beta, x) = mass.

    |N - mean| = scale * G**(1/beta) with G ~ Gamma(1/beta), so ln x is
    ``numerics.gamma_tail_log_quantile(1/beta, mass)``, whose DomainErrors
    pass through; a radius that leaves the positive floats raises one too.
    """
    a = 1.0 / law.beta
    y = gamma_tail_log_quantile(a, mass)
    try:
        radius = law.scale * math.exp(a * y)  # a * y, not y / beta: the radii stay bit for bit
    except OverflowError:
        radius = math.inf
    if not 0.0 < radius < math.inf:
        raise DomainError("beta=%r with tail mass %r is out of range: the radius leaves the floats" % (law.beta, mass))
    return radius


def sample(law, seed, count, chunks=8, threads=1):
    """``count`` i.i.d. draws, deterministic given (seed, count, chunks).

    Uses the exact representation N = mean + S * scale * G**(1/beta) with S a
    fair sign and G ~ Gamma(1/beta, 1), drawn by ``sampling.standard_gamma``
    (for beta > 1 as Gamma(1/beta + 1) * U**beta, Marsaglia and Tsang's boost).
    G is drawn straight into the output and transformed in place, so a draw
    allocates its output once plus, per running thread, one chunk's int8
    signs and, for beta > 1, 64 KB of uniforms. Each chunk costs about 1.7 KB and
    70-100 us beyond its draws (measured at 10**5 chunks), and at most one
    thread runs per chunk; one thread draws every chunk in the calling
    thread, starting none. A shape beta > 1075/53, whose gamma variates would
    round to 0 in place of draws that matter, raises DomainError.
    """
    from .sampling import check_gamma_zeros, chunked_draw, standard_gamma

    inv = 1.0 / law.beta
    check_gamma_zeros(law, inv, inv)

    def draw(rng, out):
        standard_gamma(rng, inv, out)
        signs = rng.integers(0, 2, len(out), dtype="int8")
        signs *= -2
        signs += 1
        # mean + S * scale * G**inv, bit for bit: multiplying by +-1 is exact
        out **= inv
        out *= law.scale
        out *= signs
        out += law.mean

    return chunked_draw(draw, seed, count, chunks=chunks, threads=threads)
