"""Run configuration for the stochastic and numeric estimators."""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import DEFAULT_RTOL, DomainError, integer, real


@dataclass(frozen=True)
class SimConfig:
    """Seed, sample budget and tolerances; identical configs give identical output."""

    seed: int = 0
    samples: int = 100_000
    chunks: int = 8
    quad_rtol: float = DEFAULT_RTOL
    threads: int = 1

    def __post_init__(self):
        for name, lowest in (("seed", 0), ("samples", 1), ("chunks", 1), ("threads", 1)):
            integer(name, getattr(self, name), lowest)
        if self.seed >= 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        real("quad_rtol", self.quad_rtol, 0.0)
