"""Run configuration for the stochastic and numeric estimators."""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import DEFAULT_RTOL, DomainError, real


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
            value = getattr(self, name)
            real(name, value, lowest, strict=False)
            if value != int(value):
                raise DomainError("%s must be an integer, got %r" % (name, value))
        if self.seed >= 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        real("quad_rtol", self.quad_rtol, 0.0)
