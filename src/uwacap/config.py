"""Run configuration for the stochastic and numeric estimators."""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import DEFAULT_RTOL, DomainError, integer, tolerance


@dataclass(frozen=True)
class SimConfig:
    """Seed, sample budget, quadrature tolerance and threads; identical configs give identical output.

    Draws use the samplers' default plan of 8 chunks, so more than 8 threads add nothing.
    """

    seed: int = 0
    samples: int = 100_000
    quad_rtol: float = DEFAULT_RTOL
    threads: int = 1

    def __post_init__(self):
        for name, lowest in (("seed", 0), ("samples", 1), ("threads", 1)):
            integer(name, getattr(self, name), lowest)
        if self.seed >= 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        tolerance("quad_rtol", self.quad_rtol)
