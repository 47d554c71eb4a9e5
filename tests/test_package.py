import inspect
import pickle
import re

import pytest

import uwacap
from conftest import run_fresh
from uwacap import (
    AlphaMuFading,
    CapacityBounds,
    ChannelConfig,
    DomainError,
    GGNoise,
    SecrecyScenario,
    SimConfig,
)


def test_exports_are_unique_and_resolve():
    assert len(uwacap.__all__) == len(set(uwacap.__all__))
    for name in uwacap.__all__:
        assert getattr(uwacap, name).__name__ == name


def test_cli_import_leaves_dataclasses_unloaded():
    # importing dataclasses pulls in inspect, ast, dis and tokenize: 9-15 ms of a cold call
    assert run_fresh("import sys, uwacap.cli; print('dataclasses' in sys.modules)") == "False\n"


# (type, positional arguments, the same as keywords, repr with the defaults filled in)
VALUES = [
    (GGNoise, (0.005, 1.0), {"beta": 0.005, "scale": 1.0}, "GGNoise(beta=0.005, scale=1.0, mean=0.0)"),
    (AlphaMuFading, (2.0, 1.5), {"alpha": 2.0, "mu": 1.5}, "AlphaMuFading(alpha=2.0, mu=1.5, h_root=1.0)"),
    (CapacityBounds, (0.5, 1.25), {"lower": 0.5, "upper": 1.25}, "CapacityBounds(lower=0.5, upper=1.25)"),
    (
        ChannelConfig,
        (1.0, GGNoise(0.005, 1.0)),
        {"signal_power": 1.0, "noise": GGNoise(beta=0.005, scale=1.0)},
        "ChannelConfig(signal_power=1.0, noise=GGNoise(beta=0.005, scale=1.0, mean=0.0))",
    ),
    (SimConfig, (), {}, "SimConfig(seed=0, samples=100000, quad_rtol=1e-08, threads=1)"),
    (
        SecrecyScenario,
        (10.0, 0.5, 1.0, 2.0),
        {"snr_sd": 10.0, "snr_se": 0.5, "beta_sd": 1.0, "beta_se": 2.0},
        "SecrecyScenario(snr_sd=10.0, snr_se=0.5, beta_sd=1.0, beta_se=2.0)",
    ),
]
IDS = [case[0].__name__ for case in VALUES]


@pytest.mark.parametrize("cls, args, kwargs, text", VALUES, ids=IDS)
class TestValueTypes:
    def test_positional_and_keyword_construction(self, cls, args, kwargs, text):
        assert repr(cls(*args)) == repr(cls(**kwargs)) == text
        b = cls(**kwargs)
        for name, value in kwargs.items():
            assert getattr(b, name) is value

    def test_value_equality_and_hash(self, cls, args, kwargs, text):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_to_another_type_with_the_same_values(self, cls, args, kwargs, text):
        other = type("Other", (cls,), {})(*args)
        a = cls(*args)
        assert a != other and other != a
        assert a.__eq__(other) is NotImplemented
        assert a != tuple(getattr(a, name) for name in inspect.signature(cls).parameters)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, kwargs, text):
        a = cls(*args)
        for name in inspect.signature(cls).parameters:
            value = getattr(a, name)
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is value
        with pytest.raises(AttributeError):
            a.extra = 1
        assert repr(a) == text

    def test_pickle_round_trip(self, cls, args, kwargs, text):
        a = cls(*args)
        b = pickle.loads(pickle.dumps(a))
        assert type(b) is cls and b == a and repr(b) == text


def test_unequal_across_the_types():
    assert GGNoise(2.0, 1.0, 1.0) != AlphaMuFading(2.0, 1.0, 1.0)
    assert CapacityBounds(0.5, 1.0) != ChannelConfig(0.5, 1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GGNoise(0.0, 1.0), "GGNoise.beta must be a finite real > 0, got 0.0"),
        (lambda: GGNoise(1.0, -1.0), "GGNoise.scale must be a finite real > 0, got -1.0"),
        (lambda: GGNoise(1.0, 1.0, float("inf")), "GGNoise.mean must be a finite real, got inf"),
        (lambda: GGNoise("1", 1.0), "GGNoise.beta must be a finite real > 0, got '1'"),
        (lambda: AlphaMuFading(-2.0, 1.0), "AlphaMuFading.alpha must be a finite real > 0, got -2.0"),
        (lambda: AlphaMuFading(2.0, float("nan")), "AlphaMuFading.mu must be a finite real > 0, got nan"),
        (lambda: AlphaMuFading(2.0, 1.0, 0), "AlphaMuFading.h_root must be a finite real > 0, got 0"),
        (lambda: CapacityBounds(1.0, 0.5), "CapacityBounds requires lower <= upper"),
        (lambda: CapacityBounds(float("nan"), 1.0), "CapacityBounds requires lower <= upper"),
        (lambda: ChannelConfig(-1.0, GGNoise(2.0, 1.0)), "signal_power must be a finite real >= 0, got -1.0"),
        (lambda: SimConfig(seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda: SimConfig(seed=1.5), "seed must be an integer >= 0, got 1.5"),
        (lambda: SimConfig(seed=2**64), "seed must be a 64-bit unsigned integer"),
        (lambda: SimConfig(samples=0), "samples must be an integer >= 1, got 0"),
        (lambda: SimConfig(threads=0), "threads must be an integer >= 1, got 0"),
        (lambda: SimConfig(quad_rtol=0.0), "quad_rtol must be a finite real > 0, got 0.0"),
        (lambda: SimConfig(quad_rtol=1.0), "quad_rtol must be a finite real in (0, 1), got 1.0"),
        (lambda: SimConfig(samples=0, seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda: SimConfig(seed=2**64, quad_rtol=2.0), "seed must be a 64-bit unsigned integer"),
        (lambda: SecrecyScenario(-1.0, 1.0, 1.0, 1.0), "SecrecyScenario.snr_sd must be a finite real >= 0, got -1.0"),
        (lambda: SecrecyScenario(1.0, -1.0, 1.0, 1.0), "SecrecyScenario.snr_se must be a finite real >= 0, got -1.0"),
        (lambda: SecrecyScenario(1.0, 1.0, 0.0, 1.0), "SecrecyScenario.beta_sd must be a finite real > 0, got 0.0"),
        (lambda: SecrecyScenario(1.0, 1.0, 1.0, 0.0), "SecrecyScenario.beta_se must be a finite real > 0, got 0.0"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
        make()
