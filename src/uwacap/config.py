"""Run configuration for the stochastic and numeric estimators."""

from .numerics import DEFAULT_RTOL, DomainError, Record, integer, tolerance


class SimConfig(Record):
    """Seed, sample budget, quadrature tolerance and threads; identical configs give identical output.

    Draws use the samplers' default plan of 8 chunks, so more than 8 threads add nothing.
    """

    _fields = ("seed", "samples", "quad_rtol", "threads")

    def __init__(self, seed=0, samples=100_000, quad_rtol=DEFAULT_RTOL, threads=1):
        self._set("seed", integer("seed", seed, 0))
        self._set("samples", integer("samples", samples, 1))
        self._set("threads", integer("threads", threads, 1))
        if self.seed >= 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        self._set("quad_rtol", tolerance("quad_rtol", quad_rtol))
