import math

import numpy as np
import pytest
from scipy import stats

from uwacap import fading
from uwacap.numerics import DomainError, integrate

PARAM_GRID = [0.5, 1.0, 2.0, 4.0]


class TestLaw:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0, "mu": 1.0},
        {"alpha": 2.0, "mu": -1.0},
        {"alpha": 2.0, "mu": 1.0, "h_root": 0.0},
        {"alpha": math.inf, "mu": 1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            fading.AlphaMuFading(**kwargs)


class TestPdf:
    def test_rayleigh_point(self):
        law = fading.AlphaMuFading(2.0, 1.0, 1.0)
        assert fading.pdf(law, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_two_cluster_point(self):
        law = fading.AlphaMuFading(1.0, 2.0, 1.0)
        assert fading.pdf(law, 1.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-12)

    def test_zero_gain(self):
        assert fading.pdf(fading.AlphaMuFading(2.0, 1.0), 0.0) == 0.0
        # alpha*mu = 1: finite positive density at the origin
        assert fading.pdf(fading.AlphaMuFading(1.0, 1.0), 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_negative_gain(self):
        with pytest.raises(DomainError):
            fading.pdf(fading.AlphaMuFading(2.0, 1.0), -0.5)

    @pytest.mark.parametrize("alpha", PARAM_GRID)
    @pytest.mark.parametrize("mu", PARAM_GRID)
    def test_normalization(self, alpha, mu):
        law = fading.AlphaMuFading(alpha, mu, 1.3)
        mass = integrate(lambda h: fading.pdf(law, h) if h > 0 else 0.0, 0.0, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestMoments:
    def test_definition_of_h_root(self):
        law = fading.AlphaMuFading(2.0, 1.0, 1.0)
        assert fading.moment(law, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_rayleigh_mean(self):
        law = fading.AlphaMuFading(2.0, 1.0, 1.0)
        assert fading.moment(law, 1.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)

    def test_nakagami_fourth_moment(self):
        # Gamma(5) / (9 * Gamma(3)) = 4/3
        law = fading.AlphaMuFading(2.0, 3.0, 1.0)
        assert fading.moment(law, 4.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_alpha_moment_is_exact_power(self):
        law = fading.AlphaMuFading(1.7, 2.4, 0.8)
        assert fading.moment(law, law.alpha) == pytest.approx(law.h_root**law.alpha, rel=1e-12)

    @pytest.mark.parametrize("alpha,mu", [(2.0, 1.0), (0.5, 2.0), (4.0, 0.5), (1.0, 1.0)])
    def test_against_quadrature(self, alpha, mu):
        law = fading.AlphaMuFading(alpha, mu, 1.1)
        for k in (1.0, 2.0, alpha, 2.0 * alpha):
            numeric = integrate(
                lambda h: h**k * fading.pdf(law, h) if h > 0 else 0.0, 0.0, math.inf
            )
            assert numeric == pytest.approx(fading.moment(law, k), rel=1e-7)

    def test_mu_identity(self):
        # mu = E^2{h^alpha} / V{h^alpha} by construction
        law = fading.AlphaMuFading(1.4, 2.7, 0.9)
        m1 = fading.moment(law, law.alpha)
        m2 = fading.moment(law, 2.0 * law.alpha)
        assert m1**2 / (m2 - m1**2) == pytest.approx(law.mu, rel=1e-10)

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            fading.moment(fading.AlphaMuFading(2.0, 1.0), 0.0)


class TestSampling:
    def test_determinism(self):
        law = fading.AlphaMuFading(1.3, 0.6, 1.2)
        assert np.array_equal(fading.sample(law, 5, 7), fading.sample(law, 5, 7))

    def test_thread_invariance(self):
        law = fading.AlphaMuFading(2.0, 2.0)
        a = fading.sample(law, 5, 9999, chunks=8, threads=1)
        b = fading.sample(law, 5, 9999, chunks=8, threads=8)
        assert np.array_equal(a, b)

    def test_power_moment(self):
        law = fading.AlphaMuFading(2.0, 1.0, 1.0)
        h2 = fading.sample(law, 21, 100_000) ** 2
        se = h2.std(ddof=1) / math.sqrt(len(h2))
        assert abs(h2.mean() - 1.0) < 4.0 * se

    @pytest.mark.parametrize("mu", PARAM_GRID)
    def test_recovered_mu(self, mu):
        law = fading.AlphaMuFading(1.5, mu, 1.0)
        ha = fading.sample(law, 33, 100_000) ** law.alpha
        mu_hat = ha.mean() ** 2 / ha.var(ddof=1)
        assert abs(mu_hat - mu) < 0.05 * mu

    @pytest.mark.parametrize("alpha,mu", [(2.0, 1.0), (1.0, 0.5), (4.0, 2.0)])
    def test_distribution_ks(self, alpha, mu):
        n = 10_000
        law = fading.AlphaMuFading(alpha, mu, 1.0)
        draws = fading.sample(law, 7, n)
        statistic = stats.kstest(draws, lambda h: fading.cdf(law, h)).statistic
        assert statistic < 1.6276 / math.sqrt(n)


class TestSpecialCases:
    def test_rayleigh(self):
        law = fading.rayleigh()
        assert (law.alpha, law.mu, law.h_root) == (2.0, 1.0, 1.0)

    def test_nakagami_one_is_rayleigh(self):
        assert fading.nakagami(1.0) == fading.rayleigh()

    def test_weibull_two_is_rayleigh(self):
        assert fading.weibull(2.0) == fading.rayleigh()

    def test_invalid(self):
        for bad in (-1.0, 0.0, math.inf, "1"):
            with pytest.raises(DomainError):
                fading.nakagami(bad)
            with pytest.raises(DomainError):
                fading.weibull(bad)
        with pytest.raises(DomainError):
            fading.rayleigh(h_root=0.0)


class TestUnitPower:
    @pytest.mark.parametrize("alpha", PARAM_GRID)
    @pytest.mark.parametrize("mu", PARAM_GRID)
    def test_unit_second_moment(self, alpha, mu):
        law = fading.unit_power(alpha, mu)
        assert fading.moment(law, 2.0) == pytest.approx(1.0, rel=1e-12)
