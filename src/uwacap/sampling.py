"""Deterministic chunked sampling shared by the noise and fading laws.

Each chunk draws from an independent stream derived from (seed, chunk index),
so output depends only on (seed, count, chunks) and not on thread count.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .numerics import integer


def chunk_rng(seed, index):
    """Independent generator for one chunk of a (seed, chunks) sampling plan."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def chunk_sizes(count, chunks):
    chunks = integer("chunks", chunks, 1)
    base, extra = divmod(integer("count", count, 1), chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def chunked_draw(draw, seed, count, chunks=8, threads=1):
    """Concatenate per-chunk draws in chunk order.

    ``draw(rng, n)`` must return an array of n variates. Results are placed
    by chunk index, so any thread count yields identical output.
    """
    sizes = chunk_sizes(count, chunks)
    seed, threads = integer("seed", seed, 0), integer("threads", threads, 1)

    def one(i):
        return draw(chunk_rng(seed, i), sizes[i])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(one, range(len(sizes)))))
