import math
import sys
import tracemalloc

import pytest

mpmath = pytest.importorskip("mpmath")
np = pytest.importorskip("numpy")

from conftest import gamma_ks_statistic
from uwacap import fading, sampling
from uwacap.numerics import DomainError

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
        # below mu = 1, G is Gamma(mu + 1) boosted by U**(1/mu)
        inv, mu, parts = 1.0 / law.alpha, law.mu, []
        for i, n in enumerate(map(len, np.array_split(np.empty(count), chunks))):
            rng = sampling.chunk_rng(5, i)
            if mu >= 1.0:
                g = rng.standard_gamma(mu, n)
            else:
                g = rng.standard_gamma(mu + 1, n) * rng.random(n) ** (1 / mu)
            parts.append(law.h_root * (g / law.mu) ** inv)
        expected = np.concatenate(parts)
        x = fading.sample(law, 5, count, chunks=chunks, threads=threads)
        assert np.array_equal(x.view(np.int64), expected.view(np.int64))

    def test_draw_allocates_nothing_beyond_its_output(self):
        for law in (fading.AlphaMuFading(2.0, 1.0), fading.AlphaMuFading(2.0, 0.5)):
            fading.sample(law, 0, 10)  # lazy imports load outside the measurement
            tracemalloc.start()
            try:
                x = fading.sample(law, 0, 10**6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # measured 1.0003x, and 1.017x at mu 0.5 with its 64 KB blocks of uniforms;
            # one chunk-sized temporary would be 1.125x
            assert peak <= 1.05 * x.nbytes, "%r: %.3fx" % (law, peak / x.nbytes)

    def test_shapes_whose_gamma_zeros_matter_are_refused(self):
        # Gamma(0.01) rounds to 0 with probability 2**-10.75, each zero in place of a draw up to 0.48 h_root
        with pytest.raises(DomainError, match=r"^AlphaMuFading\(alpha=1000.0, mu=0.01, h_root=1.0\) is out of range"):
            fading.sample(fading.AlphaMuFading(1000.0, 0.01), 0, 10)

    def test_shape_at_the_edge_still_draws(self):
        # Gamma(0.05) rounds to 0 with probability 2**-53.75
        assert np.all(fading.sample(fading.AlphaMuFading(1000.0, 0.05), 3, 100_000) > 0.0)

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
        # mu * (h / h_root)**alpha ~ Gamma(mu, 1), and D is the same for any increasing map of the draws
        statistic = gamma_ks_statistic(law.mu * (draws / law.h_root) ** law.alpha, law.mu)
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
        with mpmath.workdps(30):  # E h**2 = h_root**2 mu**(-2/alpha) Gamma(mu + 2/alpha) / Gamma(mu)
            r = 2 / mpmath.mpf(alpha)
            moment = law.h_root**2 * mpmath.gamma(mu + r) / (mpmath.gamma(mu) * mpmath.mpf(mu) ** r)
        assert float(moment) == pytest.approx(1.0, rel=1e-12)

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

