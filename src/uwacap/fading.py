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

import math
import sys

from .numerics import DomainError, Record, real, stirling_remainder


class AlphaMuFading(Record):
    _fields = ("alpha", "mu", "h_root")

    def __init__(self, alpha, mu, h_root=1.0):
        self._set("alpha", real("AlphaMuFading.alpha", alpha, 0.0))
        self._set("mu", real("AlphaMuFading.mu", mu, 0.0))
        self._set("h_root", real("AlphaMuFading.h_root", h_root, 0.0))


def sample(law, seed, count, chunks=8, threads=1):
    """``count`` i.i.d. draws via h = h_root * (G/mu)**(1/alpha), G ~ Gamma(mu, 1).

    Deterministic given (seed, count, chunks). G is drawn by
    ``sampling.standard_gamma`` (for mu < 1 as Gamma(mu + 1) * U**(1/mu),
    Marsaglia and Tsang's boost) straight into the output and transformed in
    place, so a draw allocates little beyond its output: at mu < 1, 64 KB of
    uniforms per running thread. Each chunk costs about 1.7 KB and 70-100 us
    beyond its draws (measured at 10**5 chunks), and at most one thread runs
    per chunk; one thread draws every chunk in the calling thread, starting
    none. A law with mu < 53/1075 and alpha > (1075 + log2 mu)/53, whose
    gamma variates would round to 0 in place of draws that matter, raises
    DomainError.
    """
    from .sampling import check_gamma_zeros, chunked_draw, standard_gamma

    inv = 1.0 / law.alpha
    check_gamma_zeros(law, law.mu, inv, law.mu)

    def draw(rng, out):
        standard_gamma(rng, law.mu, out)
        out /= law.mu
        out **= inv
        out *= law.h_root

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
