"""Alpha-mu fading law: density, moments, special cases, exact sampling.

pdf(h) = alpha * mu**mu * h**(alpha*mu - 1) / (h_root**(alpha*mu) * Gamma(mu))
         * exp(-mu * (h / h_root)**alpha),      h >= 0

Rayleigh is (alpha=2, mu=1), Nakagami-m is (alpha=2, mu=m), Weibull-k is
(alpha=k, mu=1). ``h_root`` is the alpha-root mean value (E{h**alpha})**(1/alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

from .numerics import DomainError, log_gamma, real
from .sampling import chunked_draw


@dataclass(frozen=True)
class AlphaMuFading:
    alpha: float
    mu: float
    h_root: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "mu", "h_root"):
            real("AlphaMuFading." + name, getattr(self, name), 0.0)

    @property
    def log_norm(self):
        """ln of alpha * mu**mu / (h_root**(alpha*mu) * Gamma(mu))."""
        return (
            math.log(self.alpha)
            + self.mu * math.log(self.mu)
            - self.alpha * self.mu * math.log(self.h_root)
            - log_gamma(self.mu)
        )


def log_pdf(law, h):
    arr = np.asarray(h, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise DomainError("channel gain must be finite and >= 0")
    am = law.alpha * law.mu
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h = np.log(arr)
        out = np.where(
            arr > 0,
            law.log_norm + (am - 1.0) * log_h - law.mu * (arr / law.h_root) ** law.alpha,
            _log_pdf_at_zero(law),
        )
    return float(out) if out.ndim == 0 else out


def _log_pdf_at_zero(law):
    am = law.alpha * law.mu
    if am > 1.0:
        return -math.inf
    if am == 1.0:
        return law.log_norm
    return math.inf


def pdf(law, h):
    return np.exp(log_pdf(law, h))


def cdf(law, h):
    """P(H <= h): regularized lower incomplete gamma of mu*(h/h_root)**alpha."""
    arr = np.asarray(h, dtype=float)
    if np.any(arr < 0):
        raise DomainError("channel gain must be >= 0")
    out = _special.gammainc(law.mu, law.mu * (arr / law.h_root) ** law.alpha)
    return float(out) if out.ndim == 0 else out


def moment(law, k):
    """E{h**k} = h_root**k * Gamma(mu + k/alpha) / (mu**(k/alpha) * Gamma(mu))."""
    k = real("moment order k", k, 0.0)
    r = k / law.alpha
    return law.h_root**k * math.exp(log_gamma(law.mu + r) - log_gamma(law.mu) - r * math.log(law.mu))


def sample(law, seed, count, chunks=8, threads=1):
    """``count`` i.i.d. draws via h = h_root * (G/mu)**(1/alpha), G ~ Gamma(mu, 1)."""
    inv = 1.0 / law.alpha

    def draw(rng, n):
        g = rng.standard_gamma(law.mu, n)
        return law.h_root * (g / law.mu) ** inv

    return chunked_draw(draw, seed, count, chunks=chunks, threads=threads)


def rayleigh(h_root=1.0):
    return AlphaMuFading(alpha=2.0, mu=1.0, h_root=h_root)


def nakagami(m, h_root=1.0):
    return AlphaMuFading(alpha=2.0, mu=real("Nakagami m", m, 0.0), h_root=h_root)


def weibull(k, h_root=1.0):
    return AlphaMuFading(alpha=real("Weibull k", k, 0.0), mu=1.0, h_root=h_root)


def unit_power(alpha, mu):
    """The (alpha, mu) law normalized so the average power gain E{h**2} is 1."""
    alpha, mu = real("alpha", alpha, 0.0), real("mu", mu, 0.0)
    r = 2.0 / alpha
    log_h_root = 0.5 * (r * math.log(mu) + log_gamma(mu) - log_gamma(mu + r))
    return AlphaMuFading(alpha=alpha, mu=mu, h_root=math.exp(log_h_root))
