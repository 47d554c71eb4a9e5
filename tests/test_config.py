import math

import pytest

from uwacap.config import SimConfig
from uwacap.numerics import DEFAULT_RTOL, DomainError


def test_defaults():
    config = SimConfig()
    assert (config.seed, config.samples, config.quad_rtol, config.threads) == (0, 100_000, DEFAULT_RTOL, 1)
    assert SimConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"seed": 2**64},
        {"seed": 1.5},
        {"seed": "7"},
        {"samples": 0},
        {"threads": 0},
        {"threads": 2.5},
        {"quad_rtol": 0.0},
        {"quad_rtol": -1e-8},
        {"quad_rtol": math.nan},
        {"quad_rtol": "1e-8"},
        {"samples": "abc"},
        {"samples": math.inf},
        {"quad_rtol": 1.0},
        {"quad_rtol": 1e300},
    ],
)
def test_invalid(kwargs):
    with pytest.raises(DomainError):
        SimConfig(**kwargs)
