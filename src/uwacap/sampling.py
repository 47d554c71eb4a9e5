"""Deterministic chunked sampling shared by the noise and fading laws.

Each chunk draws from an independent stream derived from (seed, chunk index),
so output depends only on (seed, count, chunks) and not on thread count.
"""

import itertools
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
    """``count`` variates, drawn chunk by chunk into one preallocated array.

    ``draw(rng, out)`` must fill the float64 slice ``out`` with variates in
    place. Each chunk owns the slice at its offset, so any thread count yields
    identical output, and the output is allocated once and never copied.
    """
    sizes = chunk_sizes(count, chunks)
    seed, threads = integer("seed", seed, 0), integer("threads", threads, 1)
    edges = [0, *itertools.accumulate(sizes)]
    out = np.empty(edges[-1])

    def one(i):
        draw(chunk_rng(seed, i), out[edges[i] : edges[i + 1]])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(one, range(len(sizes))))  # consumed, so a chunk's error is raised here
    return out
