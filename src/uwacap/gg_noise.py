"""Generalized Gaussian noise law: density, variance, entropy, exact sampling.

pdf(n) = beta / (2 * scale * Gamma(1/beta)) * exp(-(|n - mean| / scale)**beta)

beta = 2 is the Gaussian case, beta = 1 the Laplacian; smaller beta gives a
more peaked, heavier-tailed law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

from .numerics import DomainError, log_gamma, real, to_units
from .sampling import chunked_draw


@dataclass(frozen=True)
class GGNoise:
    """A generalized Gaussian law with shape ``beta``, scale and mean."""

    beta: float
    scale: float
    mean: float = 0.0

    def __post_init__(self):
        real("GGNoise.beta", self.beta, 0.0)
        real("GGNoise.scale", self.scale, 0.0)
        real("GGNoise.mean", self.mean)

    @property
    def log_norm(self):
        """ln of the density's normalizing constant beta/(2*scale*Gamma(1/beta))."""
        return (
            math.log(self.beta)
            - math.log(2.0 * self.scale)
            - log_gamma(1.0 / self.beta)
        )


def log_pdf(law, n):
    """ln pdf evaluated directly; never round-trips through pdf()."""
    arr = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("noise amplitude must be finite")
    z = np.abs(arr - law.mean) / law.scale
    out = law.log_norm - z**law.beta
    return float(out) if out.ndim == 0 else out


def pdf(law, n):
    return np.exp(log_pdf(law, n))


def variance(law):
    """scale**2 * Gamma(3/beta) / Gamma(1/beta), via log-gamma."""
    b = law.beta
    return law.scale**2 * math.exp(log_gamma(3.0 / b) - log_gamma(1.0 / b))


def with_variance(beta, target_variance, mean=0.0):
    """The GG law of shape ``beta`` whose variance is ``target_variance``."""
    beta = real("beta", beta, 0.0)
    scale = math.sqrt(real("target_variance", target_variance, 0.0)) * math.exp(
        0.5 * (log_gamma(1.0 / beta) - log_gamma(3.0 / beta))
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
    """Radius t with P(|N - mean| > t) = mass, via the inverse incomplete gamma."""
    if not 0.0 < mass < 1.0:
        raise DomainError("tail mass must lie in (0, 1)")
    inv = 1.0 / law.beta
    return law.scale * float(_special.gammainccinv(inv, mass)) ** inv


def sample(law, seed, count, chunks=8, threads=1):
    """``count`` i.i.d. draws, deterministic given (seed, count, chunks).

    Uses the exact representation N = mean + S * scale * G**(1/beta) with S a
    fair sign and G ~ Gamma(1/beta, 1).
    """
    inv = 1.0 / law.beta

    def draw(rng, n):
        g = rng.standard_gamma(inv, n)
        signs = 1.0 - 2.0 * rng.integers(0, 2, n)
        return law.mean + signs * law.scale * g**inv

    return chunked_draw(draw, seed, count, chunks=chunks, threads=threads)
