"""Capacity and secrecy-rate bounds for generalized-Gaussian-noise channels with alpha-mu fading."""

from .capacity import (
    CapacityBounds,
    ChannelConfig,
    awgn_capacity,
    awggn_bounds,
    conditional_bounds,
    ergodic_awgn_capacity,
    ergodic_bounds,
    gap,
)
from .config import SimConfig
from .fading import AlphaMuFading
from .gg_noise import GGNoise, with_variance
from .numerics import DomainError, QuadratureError
from .secrecy import (
    SecrecyScenario,
    secrecy_positive,
    secrecy_rate_awggn,
    secrecy_rate_awgn,
    secrecy_threshold,
)

__all__ = [
    "AlphaMuFading",
    "CapacityBounds",
    "ChannelConfig",
    "DomainError",
    "GGNoise",
    "QuadratureError",
    "SecrecyScenario",
    "SimConfig",
    "awgn_capacity",
    "awggn_bounds",
    "conditional_bounds",
    "ergodic_awgn_capacity",
    "ergodic_bounds",
    "gap",
    "secrecy_positive",
    "secrecy_rate_awggn",
    "secrecy_rate_awgn",
    "secrecy_threshold",
    "with_variance",
]

__version__ = "0.1.0"
