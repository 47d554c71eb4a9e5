import math

import mpmath
import numpy as np
import pytest
from scipy.special import exp1

from uwacap import capacity, fading, gg_noise as gg
from uwacap.cli import main
from uwacap.numerics import DomainError, QuadratureError

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

    @pytest.mark.parametrize("beta", [5e-324, 1e-320, 1e-306, math.nextafter(1.1718826319535557e-305, 0.0)])
    def test_log_gamma_overflow_names_beta(self, beta):
        # ln Gamma(3/beta) is past the float range (3/beta is inf at 5e-324)
        with pytest.raises(DomainError, match=r"^beta=%r is out of range: ln Gamma\(3/beta\) overflows" % beta):
            capacity.gap(beta)

    def test_smallest_beta_with_a_finite_log_gamma(self):
        # the closed form is finite down to the last beta whose ln Gamma(3/beta) is a float
        assert math.isfinite(capacity.gap(1.1718826319535557e-305, "nats"))


# beta = 2 +- 10**-k for k = 1..12, the edges of the series interval with
# their float neighbours, and [0.1, 20] in steps of 0.01
NEAR_TWO = [2.0 + s * 10.0**-k for k in range(1, 13) for s in (1.0, -1.0)]
SERIES_EDGES = [1.5, 2.5, math.nextafter(1.5, 0.0), math.nextafter(2.5, 3.0)]
GAP_SWEEP = [round(0.1 + 0.01 * i, 2) for i in range(1991)]


@mpmath.workdps(60)
def exact_gap_nats(beta):
    """The closed form in 60-digit arithmetic, which absorbs its cancellation near beta = 2."""
    b = mpmath.mpf(beta)
    return (
        2 * mpmath.log(b) + mpmath.log(mpmath.pi) + 1 - 2 / b
        + mpmath.loggamma(3 / b) - mpmath.log(2) - 3 * mpmath.loggamma(1 / b)
    ) / 2


class TestGapSeries:
    """The Taylor series that evaluates gap() for 1.5 <= beta <= 2.5."""

    @mpmath.workdps(50)
    def test_coefficients_regenerate(self):
        half, three_halves = mpmath.mpf(1) / 2, mpmath.mpf(3) / 2
        for k, stored in enumerate(capacity._GAP_SERIES, start=2):
            c_k = (
                2 * (-2) ** k / mpmath.mpf(k)
                + (3**k * mpmath.psi(k - 1, three_halves) - 3 * mpmath.psi(k - 1, half)) / mpmath.factorial(k)
            ) / 2
            assert abs(stored - float(c_k)) <= math.ulp(stored), k
        assert len(capacity._GAP_SERIES) == 23

    def test_matches_mpmath(self):
        for beta in NEAR_TWO + SERIES_EDGES + GAP_SWEEP:
            if beta == 2.0:
                continue
            exact = exact_gap_nats(beta)
            assert abs(capacity.gap(beta, "nats") - exact) <= 1e-12 * abs(exact), beta

    def test_positive_except_at_two(self):
        neighbours = [math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0)]
        for beta in NEAR_TWO + SERIES_EDGES + GAP_SWEEP + neighbours:
            assert (capacity.gap(beta, "nats") > 0.0) is (beta != 2.0), beta
        assert capacity.gap(2.0, "nats") == 0.0


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

    def test_underflowing_variance_names_the_law(self):
        # scale**2 underflows, so the variance would be 0.0 and the SNR divide by it
        with pytest.raises(DomainError, match=r"beta=20\.0 and scale=1e-200"):
            capacity.ChannelConfig(1.0, gg.GGNoise(20, 1e-200)).snr
        with pytest.raises(DomainError, match=r"beta=20\.0 and scale=1e-170"):
            capacity.awggn_bounds(capacity.ChannelConfig(1.0, gg.GGNoise(20, 1e-170)))


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


class TestErgodicCapacity:
    def test_zero_snr(self):
        assert capacity.ergodic_awgn_capacity(0.0, fading.AlphaMuFading(2.0, 1.0)) == 0.0

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

    @pytest.mark.parametrize("mu", [1e30, 1e300])
    @pytest.mark.parametrize("snr", [1e-3, 1.0, 1e6])
    def test_huge_mu_is_the_unfaded_rate(self, mu, snr):
        # G ~ Gamma(mu, 1) concentrates at mu, so h -> h_root; the lattice
        # sits at v ~ 1/sqrt(mu), where v - expm1(v) cancels
        law = fading.AlphaMuFading(2.0, mu, 0.5)
        expected = 0.5 * math.log2(1.0 + snr * 0.25)
        assert capacity.ergodic_awgn_capacity(snr, law) == pytest.approx(expected, rel=1e-8)

    def test_domain(self):
        for bad in (-1.0, "1", math.nan):
            with pytest.raises(DomainError):
                capacity.ergodic_awgn_capacity(bad, fading.AlphaMuFading(2.0, 1.0))

    def test_rtol_domain(self):
        # a tolerance of 1 or more would stop the rule on digits it never resolved
        for bad in (0.0, -1e-8, math.nan, "1e-8", 1.0, 1e300):
            with pytest.raises(DomainError, match="^rtol must be a finite real"):
                capacity.ergodic_awgn_capacity(1.0, fading.unit_power(2.0, 1.0), bad)

    def test_evaluation_cap_raises_with_estimate(self, monkeypatch):
        # 60 evaluations finish two lattices of Rayleigh at SNR 1 but not the third
        monkeypatch.setattr(capacity, "MAX_EVALUATIONS", 60)
        with pytest.raises(QuadratureError) as info:
            capacity.ergodic_awgn_capacity(1.0, fading.unit_power(2.0, 1.0))
        exact_nats = rayleigh_ergodic_bits(1.0) * math.log(2.0)
        error = info.value
        assert 1e-8 * exact_nats < error.error_indicator < 1e-3
        assert abs(error.estimate - exact_nats) <= error.error_indicator

    def test_cli_exits_2_at_the_evaluation_cap(self, monkeypatch, capsys):
        monkeypatch.setattr(capacity, "MAX_EVALUATIONS", 10)
        assert main(["ergodic", "--alpha", "2", "--snr-db", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("quadrature failure: the trapezoid rule did not converge within 10 ")

    def test_density_past_float_range_is_zero(self):
        # (h / h_root)**alpha overflows for h above 1e-155; all the mass sits near 1e-310
        assert capacity.ergodic_awgn_capacity(1.0, fading.AlphaMuFading(2.0, 1.0, 1e-310)) == 0.0


@mpmath.workdps(20)
def exact_ergodic_bits(snr, law):
    """E_h{0.5 * log2(1 + snr * h**2)} in 20-digit arithmetic, with the density built here.

    The integral runs over u = ln h, so dh = h du. Knots sit where
    t = mu * (h / h_root)**alpha crosses 1e-6 ... 256, where snr * h**2 = 1,
    and at t = mu + k * sqrt(mu) for |k| = 0, 1, 2, 4, 8, 16 (t > 0), which
    pins the spike of a concentrated law (large mu) that spans about
    sqrt(mu) in t; below the lowest knot the integrand decays at least like
    e**(2u), so cutting it 120 / (2 + alpha * mu) lower loses about e**-120 of it.
    """
    a, m, r, rho = (mpmath.mpf(v) for v in (law.alpha, law.mu, law.h_root, snr))
    log_norm = mpmath.log(a) + m * mpmath.log(m) - a * m * mpmath.log(r) - mpmath.loggamma(m)

    def integrand(u):
        h = mpmath.exp(u)
        return mpmath.log1p(rho * h * h) / 2 * mpmath.exp(log_norm + a * m * u - m * (h / r) ** a)

    spike = [m + k * mpmath.sqrt(m) for k in (0, 1, 2, 4, 8, 16, -1, -2, -4, -8, -16)]
    ts = [t for t in [1e-6, 1e-3, 0.1, 1, 4, 16, 64, 256] + spike if t > 0]
    knots = [mpmath.log(r) + mpmath.log(t / m) / a for t in ts]
    knots = sorted(knots + [-mpmath.log(rho) / 2])
    return float(mpmath.quad(integrand, [knots[0] - 120 / (2 + a * m)] + knots) / mpmath.log(2))


# (300, 5) and (10, 1e4) are concentrated: their mass sits in a spike near
# h = h_root that is about 1 / (alpha * sqrt(mu)) wide
ORACLE_LAWS = [
    (0.5, 0.5, 1.0), (0.3, 0.2, 1.0), (1.0, 1.0, 1.0), (4.0, 4.0, 1.0), (2.5, 1.7, 1.3),
    (300.0, 5.0, 1.0), (10.0, 1e4, 1.0),
]


@mpmath.workdps(30)
def knee_ergodic_nats(snr, law):
    """E_h{0.5 * ln(1 + snr * h**2)} in v = ln(G / mu), G ~ Gamma(mu, 1), split at the softplus knee.

    With a = 2/alpha and ln c = ln snr + 2 ln h_root the integrand is
    0.5 * softplus(a*v + ln c) * e**(mu * (v - expm1(v))) times the Gamma weight
    mu**mu e**-mu / Gamma(mu). A tiny value puts the knee v* = -ln c / a far
    out in the tail of that weight, where the integrand is a narrow spike at
    the knee; breakpoints at v* and at offsets 0.002 * 2**k ... 3 on both sides
    pin it for tanh-sinh, and the ends v* - 60 and v* + 8 cut off nothing.
    """
    a, m = 2 / mpmath.mpf(law.alpha), mpmath.mpf(law.mu)
    log_c = mpmath.log(snr) + 2 * mpmath.log(law.h_root)
    log_weight = m * mpmath.log(m) - m - mpmath.loggamma(m)

    def integrand(v):
        z = a * v + log_c
        softplus = z + mpmath.log1p(mpmath.exp(-z)) if z > 0 else mpmath.log1p(mpmath.exp(z))
        return softplus / 2 * mpmath.exp(log_weight + m * (v - mpmath.expm1(v)))

    knee = -log_c / a
    offsets = [0.002 * 2**k for k in range(11)] + [3]
    points = sorted([knee - 60, knee, knee + 8] + [knee + s * d for d in offsets for s in (-1, 1)])
    return float(mpmath.quad(integrand, points, method="tanh-sinh", maxdegree=10))


class TestErgodicOracle:
    """ergodic_awgn_capacity against an mpmath oracle that shares none of its code."""

    def test_oracle_matches_rayleigh_closed_form(self):
        law = fading.unit_power(2.0, 1.0)
        assert exact_ergodic_bits(3.0, law) == pytest.approx(rayleigh_ergodic_bits(3.0), rel=1e-13)

    @pytest.mark.parametrize("alpha,mu,h_root", ORACLE_LAWS)
    @pytest.mark.parametrize("snr", [1e-2, 1.0, 1e6])
    def test_matches_mpmath(self, alpha, mu, h_root, snr):
        law = fading.AlphaMuFading(alpha, mu, h_root)
        expected = exact_ergodic_bits(snr, law)
        assert abs(capacity.ergodic_awgn_capacity(snr, law) - expected) <= 1e-8 * expected

    @pytest.mark.parametrize("alpha,mu,snr", [(0.0067, 1.0, 1.0), (0.02, 0.005, 1e-12)])
    def test_tiny_values_keep_relative_accuracy(self, alpha, mu, snr):
        # 8.5e-49 and 3.4e-24 nats: far below any absolute floor, so only the relative test stops the rule
        law = fading.unit_power(alpha, mu)
        expected = knee_ergodic_nats(snr, law)
        assert capacity.ergodic_awgn_capacity(snr, law, units="nats") == pytest.approx(expected, rel=1e-8, abs=0.0)


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
