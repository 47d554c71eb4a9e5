"""Alpha-mu fading law: its parameters, unit-power normalization and exact sampling.

pdf(h) = alpha * mu**mu * h**(alpha*mu - 1) / (h_root**(alpha*mu) * Gamma(mu))
         * exp(-mu * (h / h_root)**alpha),      h >= 0

so G = mu * (h / h_root)**alpha is Gamma(mu, 1): the law is a generalized
gamma law (Yacoub 2007). The sampler draws G, and
``capacity.ergodic_awgn_capacity`` integrates over ln G, where the Gamma
weight is analytic and log-concave. Rayleigh is (alpha=2, mu=1), Nakagami-m
is (alpha=2, mu=m), Weibull-k is (alpha=k, mu=1). ``h_root`` is the
alpha-root mean value (E{h**alpha})**(1/alpha).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .numerics import DomainError, real, stirling_remainder


@dataclass(frozen=True)
class AlphaMuFading:
    alpha: float
    mu: float
    h_root: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "mu", "h_root"):
            real("AlphaMuFading." + name, getattr(self, name), 0.0)


def sample(law, seed, count, chunks=8, threads=1):
    """``count`` i.i.d. draws via h = h_root * (G/mu)**(1/alpha), G ~ Gamma(mu, 1)."""
    from .sampling import chunked_draw

    inv = 1.0 / law.alpha

    def draw(rng, n):
        g = rng.standard_gamma(law.mu, n)
        return law.h_root * (g / law.mu) ** inv

    return chunked_draw(draw, seed, count, chunks=chunks, threads=threads)


def unit_power(alpha, mu):
    """The (alpha, mu) law normalized so the average power gain E{h**2} is 1."""
    alpha, mu = real("alpha", alpha, 0.0), real("mu", mu, 0.0)
    r = 2.0 / alpha
    # ln Gamma(mu + r) - ln Gamma(mu) - r ln mu by Stirling plus J: at large mu the log-gammas would cancel
    log_ratio = (mu + r - 0.5) * math.log1p(r / mu) - r + stirling_remainder(mu + r) - stirling_remainder(mu)
    h_root = math.exp(-0.5 * log_ratio)
    if not h_root >= sys.float_info.min:  # nan, or subnormal and short of digits: E{h**2} = 0.82 at alpha 0.0064
        raise DomainError(
            "alpha=%r with mu=%r is out of range: the unit-power h_root underflows the normal floats" % (alpha, mu)
        )
    return AlphaMuFading(alpha=alpha, mu=mu, h_root=h_root)
