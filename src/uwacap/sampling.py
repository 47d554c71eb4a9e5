"""Deterministic chunked sampling shared by the noise and fading laws.

Each chunk draws from an independent stream derived from (seed, chunk index),
so output depends only on (seed, count, chunks) and not on thread count.
One thread draws every chunk in the calling thread; more start a pool.
"""

import math

from .numerics import DomainError, integer

_ZERO_BITS = 1075  # a gamma variate below 2**-1075 rounds to 0.0
_KEPT_BITS = 53  # zeros rarer than 2**-53, or standing for less than 2**-53 of the scale, are harmless
_BOOST_BLOCK = 8192  # uniforms drawn at a time below shape 1: 64 KB, so a draw allocates little beyond its output


def chunk_rng(seed, index):
    """Independent generator for one chunk of a (seed, chunks) sampling plan."""
    import numpy as np  # here and in chunked_draw, so that check_gamma_zeros runs without numpy

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def check_gamma_zeros(law, shape, power, divisor=1.0):
    """Refuse ``law`` if the zeros of its Gamma(``shape``) variates G stand for draws that matter.

    A sampler maps G to (G / ``divisor``)**``power`` times the law's scale. For a
    shape below 1, ``standard_gamma`` draws G as Gamma(shape + 1) times a power
    U**(1/shape) of a uniform U, which rounds to 0 with probability about
    2**(-1075 * shape), as the law's own P(G < 2**-1075) does. Each such zero stands
    for a draw up to (2**-1075 / divisor)**power of the scale. A law where both
    exceed 2**-53 raises DomainError: GG laws with beta > 1075/53, and alpha-mu
    laws with mu < 53/1075 and alpha > (1075 + log2 mu)/53.
    """
    odds, reach = _ZERO_BITS * shape, (_ZERO_BITS + math.log2(divisor)) * power
    if odds < _KEPT_BITS and reach < _KEPT_BITS:
        raise DomainError(
            "%r is out of range for sampling: its Gamma(%r) variates round to 0 with probability 2**-%.4g,"
            " each in place of a draw up to 2**-%.4g of its scale" % (law, shape, odds, reach)
        )


def standard_gamma(rng, shape, out):
    """Fill the float64 array ``out`` with Gamma(``shape``, 1) variates in place and return it.

    At shape >= 1 this is ``rng.standard_gamma(shape, out=out)``. Below 1,
    where numpy's own sampler is slow, it draws Gamma(shape + 1) into ``out``
    and multiplies in U**(1/shape) with U uniform on [0, 1), the exact identity
    of Marsaglia and Tsang (ACM TOMS 26, 2000). The uniforms are drawn in
    fixed blocks, which give the same stream as one call.
    """
    if shape >= 1.0:
        return rng.standard_gamma(shape, out=out)
    rng.standard_gamma(shape + 1.0, out=out)
    inv = 1.0 / shape
    for start in range(0, len(out), _BOOST_BLOCK):
        block = out[start : start + _BOOST_BLOCK]
        boost = rng.random(len(block))
        boost **= inv
        block *= boost
    return out


def chunked_draw(draw, seed, count, chunks=8, threads=1):
    """``count`` variates, drawn chunk by chunk into one preallocated array.

    ``draw(rng, out)`` must fill the float64 slice ``out`` with variates in
    place. Each chunk owns the slice at its offset, so any thread count yields
    identical output, and the output is allocated once and never copied.
    At ``threads=1`` the chunks are drawn in order in the calling thread, which
    starts no worker thread; a chunk's error is raised unchanged either way.
    """
    chunks = integer("chunks", chunks, 1)
    base, extra = divmod(integer("count", count, 1), chunks)
    seed, threads = integer("seed", seed, 0), integer("threads", threads, 1)
    edges = [i * base + min(i, extra) for i in range(chunks + 1)]  # the first `extra` chunks draw one more
    import numpy as np

    out = np.empty(edges[-1])

    def one(i):
        draw(chunk_rng(seed, i), out[edges[i] : edges[i + 1]])

    if threads == 1:
        for i in range(chunks):
            one(i)
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported only when a pool starts

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, range(chunks)))  # consumed, so a chunk's error is raised here
    return out
