import math

import numpy as np
import pytest
from scipy.special import exp1

from uwacap import capacity, fading, gg_noise as gg
from uwacap.numerics import DomainError

# every 0.1 dB from -10 to 60 dB; -10, 0 and 10 dB land exactly on 0.1, 1 and 10
RAYLEIGH_SNRS = [10.0 ** (k / 100.0) for k in range(-100, 601)]


def rayleigh_ergodic_bits(snr_avg):
    """Closed-form Rayleigh ergodic capacity e**(1/r) E1(1/r) / (2 ln 2)."""
    return math.exp(1.0 / snr_avg) * float(exp1(1.0 / snr_avg)) / (2.0 * math.log(2.0))


class TestGap:
    def test_gaussian_shape_is_zero(self):
        assert abs(capacity.gap(2.0, "bits")) <= 1e-12
        assert abs(capacity.gap(2.0, "nats")) <= 1e-12

    def test_laplace_shape(self):
        # analytic simplification: f(1) = 0.5 * log2(pi/e) bits
        assert capacity.gap(1.0, "bits") == pytest.approx(0.5 * math.log2(math.pi / math.e), abs=1e-12)
        assert capacity.gap(1.0, "nats") == pytest.approx(0.5 * math.log(math.pi / math.e), abs=1e-12)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9, 1.0, 1.7, 2.0, 3.3])
    def test_equals_entropy_difference_at_equal_variance(self, beta):
        gaussian = gg.entropy(gg.with_variance(2.0, 1.0), "nats")
        shaped = gg.entropy(gg.with_variance(beta, 1.0), "nats")
        assert capacity.gap(beta, "nats") == pytest.approx(gaussian - shaped, abs=1e-10)

    def test_nonnegative_grid(self):
        for beta in np.arange(0.1, 5.05, 0.1):
            value = capacity.gap(float(beta), "nats")
            if abs(beta - 2.0) < 1e-9:
                assert abs(value) <= 1e-12
            else:
                assert value > 0.0

    def test_domain(self):
        for bad in (0.0, "1", None, math.nan, np.array([1.0])):
            with pytest.raises(DomainError):
                capacity.gap(bad)
        with pytest.raises(DomainError):
            capacity.gap(2.0, "decibans")


class TestAwgnCapacity:
    def test_known_values(self):
        assert capacity.awgn_capacity(0.0) == 0.0
        assert capacity.awgn_capacity(1.0) == pytest.approx(0.5, rel=1e-12)
        assert capacity.awgn_capacity(15.0) == pytest.approx(2.0, rel=1e-12)

    def test_negative_snr(self):
        for bad in (-0.1, "abc", math.inf):
            with pytest.raises(DomainError):
                capacity.awgn_capacity(bad)


class TestBoundsTypes:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            capacity.CapacityBounds(1.0, 0.5)

    def test_channel_config_snr(self):
        config = capacity.ChannelConfig(3.0, gg.with_variance(1.0, 1.5))
        assert config.snr == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(DomainError):
            capacity.ChannelConfig(-1.0, gg.GGNoise(2.0, 1.0))


class TestAwggnBounds:
    def test_gaussian_collapse(self):
        config = capacity.ChannelConfig(1.0, gg.with_variance(2.0, 1.0))
        bounds = capacity.awggn_bounds(config)
        assert bounds.lower == pytest.approx(0.5, rel=1e-12)
        assert bounds.upper == bounds.lower

    def test_zero_power_boundary(self):
        config = capacity.ChannelConfig(0.0, gg.with_variance(1.0, 3.0))
        bounds = capacity.awggn_bounds(config)
        assert bounds.lower == 0.0
        assert bounds.upper == pytest.approx(capacity.gap(1.0, "bits"), rel=1e-12)

    def test_sandwich_additivity(self):
        for beta in (0.5, 1.0, 1.5, 3.0):
            for power in (0.1, 1.0, 50.0):
                config = capacity.ChannelConfig(power, gg.with_variance(beta, 1.0))
                bounds = capacity.awggn_bounds(config)
                assert abs(bounds.width - capacity.gap(beta, "bits")) <= 1e-12


class TestConditionalBounds:
    def test_zero_gain(self):
        config = capacity.ChannelConfig(1.0, gg.with_variance(1.0, 1.0))
        bounds = capacity.conditional_bounds(config, 0.0)
        assert bounds.lower == 0.0
        assert bounds.upper == pytest.approx(capacity.gap(1.0, "bits"), rel=1e-12)

    def test_identity_gain(self):
        config = capacity.ChannelConfig(2.0, gg.with_variance(1.5, 1.0))
        assert capacity.conditional_bounds(config, 1.0) == capacity.awggn_bounds(config)

    def test_gain_scales_power(self):
        config = capacity.ChannelConfig(1.0, gg.with_variance(2.0, 1.0))
        bounds = capacity.conditional_bounds(config, math.sqrt(3.0))
        assert bounds.lower == pytest.approx(1.0, rel=1e-12)
        assert bounds.upper == pytest.approx(1.0, rel=1e-12)

    def test_negative_gain(self):
        config = capacity.ChannelConfig(1.0, gg.with_variance(2.0, 1.0))
        with pytest.raises(DomainError):
            capacity.conditional_bounds(config, -1.0)


class TestErgodicCapacity:
    def test_zero_snr(self):
        assert capacity.ergodic_awgn_capacity(0.0, fading.rayleigh()) == 0.0

    @pytest.mark.parametrize("snr", RAYLEIGH_SNRS)
    def test_rayleigh_closed_form(self, snr):
        # the quadrature must meet its own relative tolerance 1e-8
        law = fading.unit_power(2.0, 1.0)
        value = capacity.ergodic_awgn_capacity(snr, law)
        expected = rayleigh_ergodic_bits(snr)
        assert abs(value - expected) <= 1e-8 * expected

    def test_channel_hardening(self):
        value = capacity.ergodic_awgn_capacity(1.0, fading.unit_power(2.0, 64.0))
        assert abs(value - 0.5) < 0.01

    def test_monte_carlo_agreement(self):
        for alpha, mu in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0)):
            law = fading.unit_power(alpha, mu)
            h = fading.sample(law, 77, 200_000)
            rates = 0.5 * np.log2(1.0 + h * h)
            se = rates.std(ddof=1) / math.sqrt(len(rates))
            quad = capacity.ergodic_awgn_capacity(1.0, law)
            assert abs(quad - rates.mean()) < 4.0 * se

    def test_monotone_in_snr(self):
        law = fading.unit_power(2.0, 1.0)
        values = [capacity.ergodic_awgn_capacity(s, law) for s in (0.01, 0.1, 1.0, 10.0, 100.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_monotone_in_alpha(self):
        values = [
            capacity.ergodic_awgn_capacity(1.0, fading.unit_power(a, 1.0))
            for a in (1.0, 2.0, 3.0, 4.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_domain(self):
        for bad in (-1.0, "1", math.nan):
            with pytest.raises(DomainError):
                capacity.ergodic_awgn_capacity(bad, fading.rayleigh())


class TestErgodicBounds:
    def test_gaussian_collapse(self):
        bounds = capacity.ergodic_bounds(1.0, fading.unit_power(2.0, 1.0), 2.0)
        assert bounds.lower == bounds.upper

    def test_rayleigh_with_laplace_noise(self):
        bounds = capacity.ergodic_bounds(1.0, fading.unit_power(2.0, 1.0), 1.0)
        assert bounds.lower == pytest.approx(rayleigh_ergodic_bits(1.0), abs=1e-6)
        assert bounds.upper == pytest.approx(
            rayleigh_ergodic_bits(1.0) + capacity.gap(1.0, "bits"), abs=1e-6
        )

    def test_zero_snr_boundary(self):
        bounds = capacity.ergodic_bounds(0.0, fading.unit_power(1.0, 2.0), 0.5)
        assert bounds.lower == 0.0
        assert bounds.upper == pytest.approx(capacity.gap(0.5, "bits"), rel=1e-12)

    def test_width_is_gap(self):
        for beta in (0.5, 1.0, 2.0, 3.0):
            bounds = capacity.ergodic_bounds(3.0, fading.unit_power(2.0, 1.0), beta)
            assert abs(bounds.width - capacity.gap(beta, "bits")) <= 1e-12
