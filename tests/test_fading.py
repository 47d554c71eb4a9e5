import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import stats

from uwacap import fading, sampling
from uwacap.numerics import DomainError

PARAM_GRID = [0.5, 1.0, 2.0, 4.0]


def gengamma(law):
    """The same law in SciPy's parametrization: mu * (h / h_root)**alpha ~ Gamma(mu, 1)."""
    return stats.gengamma(a=law.mu, c=law.alpha, scale=law.h_root * law.mu ** (-1.0 / law.alpha))


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


class TestSampling:
    def test_determinism(self):
        law = fading.AlphaMuFading(1.3, 0.6, 1.2)
        assert np.array_equal(fading.sample(law, 5, 7), fading.sample(law, 5, 7))

    def test_thread_invariance(self):
        law = fading.AlphaMuFading(2.0, 2.0)
        a = fading.sample(law, 5, 9999, chunks=8, threads=1)
        b = fading.sample(law, 5, 9999, chunks=8, threads=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("count,chunks", [(1, 8), (3, 8), (9, 8), (10_001, 3)])
    @pytest.mark.parametrize(
        "law",
        [fading.AlphaMuFading(1.3, 0.6, 1.2), fading.AlphaMuFading(2.0, 1.0, 0.7), fading.AlphaMuFading(0.5, 1.5)],
        ids=["alpha1.3", "alpha2", "alpha0.5"],
    )
    def test_draws_are_the_chunkwise_expression_bit_for_bit(self, law, count, chunks, threads):
        inv, parts = 1.0 / law.alpha, []
        for i, n in enumerate(sampling.chunk_sizes(count, chunks)):
            g = sampling.chunk_rng(5, i).standard_gamma(law.mu, n)
            parts.append(law.h_root * (g / law.mu) ** inv)
        expected = np.concatenate(parts)
        x = fading.sample(law, 5, count, chunks=chunks, threads=threads)
        assert np.array_equal(x.view(np.int64), expected.view(np.int64))

    def test_draw_allocates_nothing_beyond_its_output(self):
        law = fading.AlphaMuFading(2.0, 1.0)
        fading.sample(law, 0, 10)  # lazy imports load outside the measurement
        tracemalloc.start()
        try:
            x = fading.sample(law, 0, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * x.nbytes

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
        statistic = stats.kstest(draws, gengamma(law).cdf).statistic
        assert statistic < 1.6276 / math.sqrt(n)


class TestSpecialCases:
    def test_unit_power_underflow_names_arguments(self):
        with pytest.raises(DomainError, match="^alpha=0.001 with mu=0.001"):
            fading.unit_power(1e-3, 1e-3)

    def test_unit_power_subnormal_h_root_is_rejected(self):
        # a subnormal h_root would carry E{h**2} = 0.82
        with pytest.raises(DomainError, match="^alpha=0.0064 with mu=1.0"):
            fading.unit_power(0.0064, 1.0)
        law = fading.unit_power(0.0068, 1.0)  # E{h**2} = h_root**2 * Gamma(1 + 2/alpha), in logs
        assert 2.0 * math.log(law.h_root) + math.lgamma(1.0 + 2.0 / law.alpha) == pytest.approx(0.0, abs=1e-10)


    def test_unit_power_infinite_exponent_is_rejected(self):
        # 2/alpha overflows, and the Stirling formula forms inf - inf
        with pytest.raises(DomainError, match="^alpha=5e-324 with mu=1000.0"):
            fading.unit_power(5e-324, 1e3)


class TestUnitPower:
    @pytest.mark.parametrize("alpha", PARAM_GRID)
    @pytest.mark.parametrize("mu", PARAM_GRID)
    def test_unit_second_moment(self, alpha, mu):
        law = fading.unit_power(alpha, mu)
        assert gengamma(law).moment(2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 2.0, 5.0, 20.0])
    def test_h_root_at_large_mu(self, alpha):
        # ln h_root = (r ln mu + ln Gamma(mu) - ln Gamma(mu + r)) / 2 with r = 2/alpha:
        # the log-gammas are near mu ln mu, so the oracle carries k + 40 digits
        for k in range(2, 301):
            mu = 10.0**k
            with mpmath.workdps(k + 40):
                m, r = mpmath.mpf(mu), 2 / mpmath.mpf(alpha)
                exact = mpmath.exp((r * mpmath.log(m) + mpmath.loggamma(m) - mpmath.loggamma(m + r)) / 2)
                assert abs(fading.unit_power(alpha, mu).h_root / exact - 1) <= 1e-13, mu

    @pytest.mark.parametrize("alpha", [0.0067, 0.05, 0.5, 2.0, 5.0, 20.0, 300.0])
    def test_h_root_below_mu_100(self, alpha):
        # the Stirling-plus-J formula serves small mu too, where J is log_gamma minus Stirling's bracket
        for k in range(-30, 21):
            mu = 10.0 ** (k / 10.0)
            with mpmath.workdps(60):
                m, r = mpmath.mpf(mu), 2 / mpmath.mpf(alpha)
                ln_exact = (r * mpmath.log(m) + mpmath.loggamma(m) - mpmath.loggamma(m + r)) / 2
            if ln_exact < math.log(sys.float_info.min):  # h_root underflows: at least 28 below the floor here
                with pytest.raises(DomainError, match="underflows"):
                    fading.unit_power(alpha, mu)
                continue
            ln_h_root = math.log(fading.unit_power(alpha, mu).h_root)
            assert abs(ln_h_root - ln_exact) <= 1e-13 * max(1.0, abs(ln_exact)), mu

