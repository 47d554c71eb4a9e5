import math
import tracemalloc

import pytest

mpmath = pytest.importorskip("mpmath")
np = pytest.importorskip("numpy")

from conftest import gamma_ks_statistic, gamma_tail_quantile
from uwacap import capacity, gg_noise as gg, sampling
from uwacap.numerics import DomainError

BETA_GRID = [0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 5.0]
BELOW_FLOOR = math.nextafter(1.1718826319535557e-305, 0.0)  # the largest shape whose ln Gamma(3/beta) overflows


class TestLaw:
    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0, "scale": 1.0},
        {"beta": -1.0, "scale": 1.0},
        {"beta": 1.0, "scale": 0.0},
        {"beta": 1.0, "scale": 1.0, "mean": math.inf},
        {"beta": math.nan, "scale": 1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            gg.GGNoise(**kwargs)

    @pytest.mark.parametrize("beta", [5e-324, 1e-320, BELOW_FLOOR])
    def test_log_gamma_overflow_names_beta(self, beta):
        # refused when built, not later by entropy, variance or log_norm with a message about log_gamma
        with pytest.raises(DomainError, match=r"^GGNoise.beta=%r is out of range: ln Gamma\(3/beta\) overflows" % beta):
            gg.GGNoise(beta, 1.0)


class TestPdf:
    def test_standard_gaussian_mode(self):
        law = gg.GGNoise(beta=2.0, scale=math.sqrt(2.0))
        assert gg.pdf(law, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_unit_laplace_mode(self):
        assert gg.pdf(gg.GGNoise(beta=1.0, scale=1.0), 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_heavy_shape_point(self):
        # beta=0.5, s=1 at n=1: (0.5 / (2 * Gamma(2))) * e**-1 = 0.25/e
        law = gg.GGNoise(beta=0.5, scale=1.0)
        assert gg.pdf(law, 1.0) == pytest.approx(0.25 * math.exp(-1.0), rel=1e-12)

    def test_log_pdf_does_not_underflow(self):
        law = gg.GGNoise(beta=2.0, scale=1.0)
        assert gg.pdf(law, 100.0) == 0.0
        assert gg.log_pdf(law, 100.0) == pytest.approx(law.log_norm - 100.0**2, rel=1e-12)

    def test_nonfinite_argument(self):
        with pytest.raises(DomainError):
            gg.pdf(gg.GGNoise(2.0, 1.0), math.inf)

    @pytest.mark.parametrize(
        "beta,n",
        [
            (1.5, np.linspace(-7.0, 9.0, 1001)),
            (2.0, np.linspace(-7.0, 9.0, 1001)),
            (0.5, np.linspace(-7.0, 9.0, 1001)),
            (1.5, np.array(-6.84)),
            (2.0, np.array(6.85)),
            (0.5, 4.89),
            (2.0, 18.25),
            (20.0, np.array([1e16, -3e15, 1.0, 0.2])),
            (20.0, 1e16),
        ],
        ids=["1d-beta1.5", "1d-beta2", "1d-beta0.5", "0d-beta1.5", "0d-beta2", "float-beta0.5", "float-beta2",
             "1d-overflow-beta20", "float-overflow-beta20"],
    )
    def test_log_pdf_is_the_out_of_place_expression_bit_for_bit(self, beta, n):
        # the reference is the array expression: numpy's scalar pow differs from its array loop in
        # the last bit at each 0-d and float input here, and log_pdf takes the array loop for those too
        law = gg.GGNoise(beta, 1.3, mean=0.4)
        with np.errstate(over="ignore"):
            want = law.log_norm - (np.abs(np.array(n, dtype=float, ndmin=1) - law.mean) / law.scale) ** law.beta
        got = gg.log_pdf(law, n)  # an overflow is -inf with no RuntimeWarning, which this suite makes an error
        if np.ndim(n) == 0:
            assert type(got) is float and np.float64(got).view(np.int64) == want[0].view(np.int64)
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, 3.3])
    def test_log_pdf_of_a_point_is_its_bits_in_an_array(self, beta):
        law, n = gg.GGNoise(beta, 1.3, mean=0.4), np.random.default_rng(7).normal(0.4, 3.0, 20_000)
        alone = np.array([gg.log_pdf(law, x) for x in n.tolist()])
        assert np.array_equal(alone.view(np.int64), gg.log_pdf(law, n).view(np.int64))

    def test_log_pdf_leaves_its_argument_unchanged(self):
        n = np.linspace(-5.0, 5.0, 101)
        kept = n.copy()
        gg.log_pdf(gg.GGNoise(1.5, 1.0, mean=0.5), n)
        assert np.array_equal(n, kept)

    def test_log_pdf_allocates_only_its_result(self):
        law, n = gg.GGNoise(1.5, 1.0, mean=0.5), np.linspace(-5.0, 5.0, 10**6)
        gg.log_pdf(law, n[:10])  # the lazy numpy import loads outside the measurement
        tracemalloc.start()
        try:
            out = gg.log_pdf(law, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes  # three result-sized temporaries, 3.0x, when built out of place

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_normalization(self, beta):
        law = gg.with_variance(beta, 1.0)
        mass = mpmath.quad(lambda n: gg.pdf(law, float(n)), [-mpmath.inf, law.mean, mpmath.inf])
        assert float(mass) == pytest.approx(1.0, abs=1e-8)


class TestVariance:
    def test_known_values(self):
        assert gg.variance(gg.GGNoise(2.0, math.sqrt(2.0))) == pytest.approx(1.0, rel=1e-12)
        assert gg.variance(gg.GGNoise(1.0, 1.0)) == pytest.approx(2.0, rel=1e-12)
        # Gamma(6)/Gamma(2) = 120
        assert gg.variance(gg.GGNoise(0.5, 1.0)) == pytest.approx(120.0, rel=1e-12)

    def test_with_variance_known_scales(self):
        assert gg.with_variance(2.0, 1.0).scale == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert gg.with_variance(1.0, 2.0).scale == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("target", [0.01, 1.0, 37.5])
    def test_round_trip(self, beta, target):
        law = gg.with_variance(beta, target)
        assert gg.variance(law) == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0078, 0.008, 0.01, 0.0138])
    def test_round_trip_where_gamma_ratio_overflows(self, beta):
        # Gamma(3/beta) / Gamma(1/beta) alone is above the float range here
        assert gg.variance(gg.with_variance(beta, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_variance_past_float_range_is_inf(self):
        # a law built directly, bypassing with_variance's box: its SNR reads 0
        law = gg.GGNoise(0.005, 1.0)
        assert gg.variance(law) == math.inf
        assert capacity.ChannelConfig(1.0, law).snr == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            gg.with_variance(-1.0, 1.0)
        with pytest.raises(DomainError):
            gg.with_variance(1.0, 0.0)
        # the scale underflows; the message names the caller's arguments
        with pytest.raises(DomainError, match="^beta=0.001 with target_variance=1.0"):
            gg.with_variance(1e-3, 1.0)
        # a subnormal scale would carry a variance of 0.99983
        with pytest.raises(DomainError, match="^beta=0.0075 with target_variance=1.0"):
            gg.with_variance(0.0075, 1.0)

    @pytest.mark.parametrize("beta", [5e-324, 1e-320, 1e-306, BELOW_FLOOR])
    def test_log_gamma_overflow_names_beta(self, beta):
        # ln Gamma(3/beta) is past the float range (3/beta is inf at 5e-324)
        with pytest.raises(DomainError, match=r"^beta=%r is out of range: ln Gamma\(3/beta\) overflows" % beta):
            gg.with_variance(beta, 1.0)


class TestEntropy:
    def test_gaussian(self):
        law = gg.GGNoise(2.0, math.sqrt(2.0))
        assert gg.entropy(law) == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e), rel=1e-12)

    def test_laplace(self):
        assert gg.entropy(gg.GGNoise(1.0, 1.0)) == pytest.approx(1.0 + math.log(2.0), rel=1e-12)

    def test_heavy_shape(self):
        assert gg.entropy(gg.GGNoise(0.5, 1.0)) == pytest.approx(2.0 + math.log(4.0), rel=1e-12)

    def test_units_conversion(self):
        law = gg.GGNoise(1.3, 0.7)
        assert gg.entropy(law, "bits") == pytest.approx(gg.entropy(law, "nats") / math.log(2.0), rel=1e-14)

    def test_location_invariance(self):
        assert gg.entropy(gg.GGNoise(1.5, 2.0, mean=9.0)) == gg.entropy(gg.GGNoise(1.5, 2.0))


class TestSampling:
    def test_determinism(self):
        law = gg.GGNoise(1.2, 0.8, mean=0.3)
        a = gg.sample(law, 321, 5)
        b = gg.sample(law, 321, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gg.sample(law, 322, 5))

    def test_thread_count_does_not_change_output(self):
        law = gg.GGNoise(0.7, 1.4)
        a = gg.sample(law, 9, 10001, chunks=8, threads=1)
        b = gg.sample(law, 9, 10001, chunks=8, threads=8)
        assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("count,chunks", [(1, 8), (3, 8), (9, 8), (10_001, 3)])
    @pytest.mark.parametrize(
        "law",
        [gg.GGNoise(0.7, 1.4, mean=-1.5), gg.GGNoise(2.0, 2.5, mean=0.3), gg.GGNoise(0.5, 0.9, mean=4.0),
         gg.GGNoise(0.005, 1.0, mean=2.0)],
        ids=["beta0.7", "beta2", "beta0.5", "beta0.005-overflows"],
    )
    def test_draws_are_the_chunkwise_expression_bit_for_bit(self, law, count, chunks, threads):
        # the per-chunk expression, concatenated; beta 0.005 draws overflow to +-inf.
        # Below shape 1, G is Gamma(inv + 1) boosted by U**(1/inv); the signs are int8
        inv, parts = 1.0 / law.beta, []
        for i, n in enumerate(map(len, np.array_split(np.empty(count), chunks))):
            rng = sampling.chunk_rng(5, i)
            if inv >= 1.0:
                g = rng.standard_gamma(inv, n)
            else:
                g = rng.standard_gamma(inv + 1, n) * rng.random(n) ** (1 / inv)
            signs = 1.0 - 2.0 * rng.integers(0, 2, n, dtype="int8")
            parts.append(law.mean + signs * law.scale * g**inv)
        expected = np.concatenate(parts)
        x = gg.sample(law, 5, count, chunks=chunks, threads=threads)
        assert np.array_equal(x.view(np.int64), expected.view(np.int64))

    def test_draw_allocates_little_beyond_its_output(self):
        for law in (gg.GGNoise(1.0, 1.0), gg.GGNoise(2.0, 1.0)):
            gg.sample(law, 0, 10)  # lazy imports load outside the measurement
            tracemalloc.start()
            try:
                x = gg.sample(law, 0, 10**6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the output plus one chunk's int8 signs, 1.024x; at beta 2 the 64 KB blocks of uniforms are freed first.
            # int64 signs would be 1.125x
            assert peak <= 1.05 * x.nbytes, "%r: %.3fx" % (law, peak / x.nbytes)

    def test_sample_variance(self):
        law = gg.GGNoise(2.0, math.sqrt(2.0))
        x = gg.sample(law, 11, 100_000)
        var = x.var(ddof=1)
        # variance of the sample variance for a Gaussian: 2 sigma^4 / n
        se = math.sqrt(2.0 / 100_000)
        assert abs(var - 1.0) < 4.0 * se

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
    def test_normalized_power_mean(self, beta):
        # E |N/s|^beta equals the mean 1/beta of the driving gamma variate
        law = gg.GGNoise(beta, 1.7)
        z = np.abs(gg.sample(law, 13, 100_000) / law.scale) ** beta
        se = z.std(ddof=1) / math.sqrt(len(z))
        assert abs(z.mean() - 1.0 / beta) < 4.0 * se

    @pytest.mark.parametrize("shape", [0.2, 0.5, 2.0])
    def test_gamma_variate_exactness(self, shape):
        # the driving gamma variate (shape 1/beta) recovered as |N/s|^beta
        # must pass a KS test against the analytic gamma CDF at the 1% level
        n = 10_000
        law = gg.GGNoise(1.0 / shape, 1.0)
        g = np.abs(gg.sample(law, 42, n)) ** law.beta
        statistic = gamma_ks_statistic(g, shape)
        assert statistic < 1.6276 / math.sqrt(n)

    @pytest.mark.parametrize("beta", [21.0, 1000.0])
    def test_shapes_whose_gamma_zeros_matter_are_refused(self, beta):
        # at beta 1000, 47% of the draws would be exact zeros standing for draws up to 0.48 scale
        with pytest.raises(DomainError, match=r"^GGNoise\(beta=%r, scale=1.0, mean=0.0\) is out of range" % beta):
            gg.sample(gg.GGNoise(beta, 1.0), 0, 10)

    def test_shape_at_the_edge_still_draws(self):
        assert np.all(gg.sample(gg.GGNoise(20.0, 1.0), 3, 100_000) != 0.0)

    def test_bad_count(self):
        with pytest.raises(DomainError):
            gg.sample(gg.GGNoise(2.0, 1.0), 0, 0)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"threads": 0}, "threads"),
            ({"count": "abc"}, "count"),
            ({"count": None}, "count"),
            ({"count": math.inf}, "count"),
            ({"count": math.nan}, "count"),
            ({"chunks": "abc"}, "chunks"),
            ({"chunks": 0}, "chunks"),
        ],
    )
    def test_bad_arguments_are_named(self, kwargs, name):
        args = {"seed": 0, "count": 5, "chunks": 8, "threads": 1, **kwargs}
        with pytest.raises(DomainError, match="^%s must be an integer" % name):
            gg.sample(gg.GGNoise(2.0, 1.0), **args)


class TestTailRadius:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_numeric_tail(self, beta):
        law = gg.with_variance(beta, 1.0)
        mass = 1e-6
        t = gg.tail_radius(law, mass)
        numeric = 2.0 * mpmath.quad(lambda n: gg.pdf(law, float(n)), [t, mpmath.inf])
        assert float(numeric) == pytest.approx(mass, rel=1e-6)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0])
    def test_matches_inverse_incomplete_gamma(self, beta):
        law = gg.with_variance(beta, 1.0)
        for mass in (1e-300, 1e-100, 1e-30, 1e-10, 5e-11, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.999):
            expected = law.scale * gamma_tail_quantile(1.0 / beta, mass) ** (1.0 / beta)
            assert gg.tail_radius(law, mass) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "law",
        [
            gg.GGNoise(0.0078, 1.0),
            gg.with_variance(0.0078, 1.0),
            gg.GGNoise(1000.0, 1.0),
            gg.GGNoise(1e-300, 1.0),
            gg.GGNoise(1e300, 1.0),
        ],
    )
    @pytest.mark.parametrize("mass", [1e-300, 1e-8, 0.5, 0.999, 1.0 - 2.0**-53])
    def test_extreme_shapes_end(self, law, mass):
        if law.beta >= 1000.0 and mass >= 0.5:
            # nearly uniform on [-scale, scale]: P(|N| <= t) = (t / scale) / Gamma(1 + 1/beta) for t < scale
            expected = (1.0 - mass) * math.gamma(1.0 + 1.0 / law.beta)
            assert gg.tail_radius(law, mass) == pytest.approx(expected, rel=1e-12)
            return
        try:
            radius = gg.tail_radius(law, mass)
        except DomainError as error:
            assert "out of range" in str(error)
        else:
            assert 0.0 < radius < math.inf

    def test_invalid_mass(self):
        for mass in (0.0, 1.0, math.nan, "abc", None):
            with pytest.raises(DomainError, match="^tail mass must"):
                gg.tail_radius(gg.GGNoise(2.0, 1.0), mass)


def test_peakedness_decreases_with_beta_at_fixed_variance():
    # equal-variance restatement of the shape comparison: the density at the
    # mean is strictly decreasing in beta
    peaks = [gg.pdf(gg.with_variance(b, 1.0), 0.0) for b in (0.5, 1.0, 2.0, 4.0, 10.0)]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))
