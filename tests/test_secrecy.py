import math

import pytest

from uwacap import capacity, secrecy
from uwacap.numerics import DomainError

# shapes whose ln Gamma(3/beta) overflows a float, down to the smallest subnormal
TINY_BETAS = [5e-324, 1e-320, math.nextafter(1.1718826319535557e-305, 0.0)]


def random_scenarios(count, seed=101):
    rng = pytest.importorskip("numpy").random.default_rng(seed)
    snr_sd = 10.0 ** rng.uniform(-2.0, 2.0, count)
    snr_se = 10.0 ** rng.uniform(-2.0, 2.0, count)
    beta_sd = 10.0 ** rng.uniform(-0.6, 0.6, count)
    beta_se = 10.0 ** rng.uniform(-0.6, 0.6, count)
    for i in range(count):
        yield secrecy.SecrecyScenario(snr_sd[i], snr_se[i], beta_sd[i], beta_se[i])


class TestScenario:
    @pytest.mark.parametrize("kwargs", [
        {"snr_sd": -1.0, "snr_se": 1.0, "beta_sd": 2.0, "beta_se": 2.0},
        {"snr_sd": 1.0, "snr_se": 1.0, "beta_sd": 0.0, "beta_se": 2.0},
        {"snr_sd": 1.0, "snr_se": math.nan, "beta_sd": 2.0, "beta_se": 2.0},
        {"snr_sd": 1.0, "snr_se": 1.0, "beta_sd": 2.0, "beta_se": "2"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            secrecy.SecrecyScenario(**kwargs)

    @pytest.mark.parametrize("name", ["beta_sd", "beta_se"])
    @pytest.mark.parametrize("beta", TINY_BETAS)
    def test_log_gamma_overflow_names_the_shape(self, beta, name):
        kwargs = {"snr_sd": 1.0, "snr_se": 1.0, "beta_sd": 2.0, "beta_se": 2.0, name: beta}
        message = r"^SecrecyScenario.%s=%r is out of range: ln Gamma\(3/beta\) overflows" % (name, beta)
        with pytest.raises(DomainError, match=message):
            secrecy.SecrecyScenario(**kwargs)


class TestAwgnRate:
    def test_symmetric_is_zero(self):
        assert secrecy.secrecy_rate_awgn(1.0, 1.0) == 0.0

    def test_known_value(self):
        assert secrecy.secrecy_rate_awgn(3.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_clamped(self):
        assert secrecy.secrecy_rate_awgn(0.0, 1.0) == 0.0

    def test_negative_snr(self):
        with pytest.raises(DomainError):
            secrecy.secrecy_rate_awgn(-1.0, 1.0)


class TestAwggnRate:
    def test_gap_cancellation_exact(self):
        for beta in (0.5, 1.0, 1.7, 2.0):
            scenario = secrecy.SecrecyScenario(2.0, 0.5, beta, beta)
            assert secrecy.secrecy_rate_awggn(scenario) == secrecy.secrecy_rate_awgn(2.0, 0.5)

    def test_gaussian_onset_at_eavesdropper_snr(self):
        snr_se = 10.0 ** (-0.5)  # -5 dB
        at = secrecy.SecrecyScenario(snr_se, snr_se, 2.0, 2.0)
        above = secrecy.SecrecyScenario(10.0 ** (-0.4), snr_se, 2.0, 2.0)
        assert secrecy.secrecy_rate_awggn(at) == 0.0
        assert secrecy.secrecy_rate_awggn(above) > 0.0

    def test_shape_asymmetry_shifts_rate(self):
        scenario = secrecy.SecrecyScenario(1.0, 1.0, 0.8, 2.0)
        expected = capacity.gap(0.8, "bits") - capacity.gap(2.0, "bits")
        assert secrecy.secrecy_rate_awggn(scenario) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_monotone_in_snr_sd(self):
        grid = pytest.importorskip("numpy").linspace(0.0, 20.0, 200)
        rates = [
            secrecy.secrecy_rate_awggn(secrecy.SecrecyScenario(s, 2.0, 1.5, 0.8))
            for s in grid
        ]
        assert all(r >= 0.0 for r in rates)
        assert all(a <= b + 1e-15 for a, b in zip(rates, rates[1:]))


class TestPositivity:
    def test_equal_shapes_reduce_to_snr_comparison(self):
        assert secrecy.secrecy_positive(secrecy.SecrecyScenario(2.0, 1.0, 1.3, 1.3))
        assert not secrecy.secrecy_positive(secrecy.SecrecyScenario(1.0, 2.0, 1.3, 1.3))
        assert not secrecy.secrecy_positive(secrecy.SecrecyScenario(1.0, 1.0, 2.0, 2.0))

    def test_equivalent_to_rate_sign(self):
        for scenario in random_scenarios(10_000):
            positive = secrecy.secrecy_positive(scenario)
            assert positive == (secrecy.secrecy_rate_awggn(scenario) > 0.0)
        # within a few ulp of the threshold, where the sign is decided by rounding
        for base in random_scenarios(500, seed=11):
            threshold = secrecy.secrecy_threshold(base.beta_sd, base.beta_se, base.snr_se)
            for k in range(-3, 4):
                scenario = secrecy.SecrecyScenario(
                    threshold * (1.0 + k * 2.2e-16), base.snr_se, base.beta_sd, base.beta_se
                )
                positive = secrecy.secrecy_positive(scenario)
                assert positive == (secrecy.secrecy_rate_awggn(scenario) > 0.0)

    def test_printed_variant_differs_for_unequal_shapes(self):
        # near the derived threshold the e**(1-1/beta) variant flips the verdict
        scenario = secrecy.SecrecyScenario(0.72, 10.0 ** (-0.5), 1.5, 0.8)
        assert secrecy.secrecy_positive(scenario, "derived") != secrecy.secrecy_positive(
            scenario, "printed"
        )

    def test_printed_variant_matches_for_equal_shapes(self):
        for scenario in random_scenarios(100, seed=7):
            equal = secrecy.SecrecyScenario(
                scenario.snr_sd, scenario.snr_se, scenario.beta_sd, scenario.beta_sd
            )
            assert secrecy.secrecy_positive(equal, "derived") == secrecy.secrecy_positive(
                equal, "printed"
            )

    def test_unknown_condition(self):
        with pytest.raises(DomainError):
            secrecy.secrecy_positive(secrecy.SecrecyScenario(1.0, 1.0, 2.0, 2.0), "guessed")


class TestThreshold:
    def test_equal_shapes_threshold_is_eavesdropper_snr(self):
        assert secrecy.secrecy_threshold(1.4, 1.4, 3.0) == pytest.approx(3.0, rel=1e-12)

    def test_larger_destination_gap_lowers_threshold(self):
        # gap(0.8) > gap(2.0): a shaped destination channel tolerates a
        # weaker legitimate SNR than the eavesdropper's
        assert secrecy.secrecy_threshold(0.8, 2.0, 1.0) < 1.0

    def test_known_value(self):
        # (1 + 1) * exp(2 f(1)) - 1 with f in nats
        expected = 2.0 * math.exp(2.0 * capacity.gap(1.0, "nats")) - 1.0
        assert secrecy.secrecy_threshold(2.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.31145, abs=5e-6)

    def test_bisection_consistency(self):
        # the closed form agrees with a bisection root of the rate itself
        def rate(snr_sd):
            return secrecy.secrecy_rate_awggn(secrecy.SecrecyScenario(snr_sd, 1.0, 2.0, 1.0))

        lo, hi = 0.0, 100.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rate(mid) == 0.0 else (lo, mid)
        assert secrecy.secrecy_threshold(2.0, 1.0, 1.0) == pytest.approx(hi, rel=1e-9)

    def test_flip_consistency_grid(self):
        eps = 1e-6
        for beta_sd, beta_se, snr_se in [
            (2.0, 1.0, 1.0),
            (1.5, 0.8, 10.0 ** (-0.5)),
            (1.0, 3.0, 5.0),
            (0.6, 1.2, 2.0),
        ]:
            threshold = secrecy.secrecy_threshold(beta_sd, beta_se, snr_se)
            assert threshold > 0.0
            below = secrecy.SecrecyScenario(threshold * (1 - eps), snr_se, beta_sd, beta_se)
            above = secrecy.SecrecyScenario(threshold * (1 + eps), snr_se, beta_sd, beta_se)
            assert secrecy.secrecy_rate_awggn(below) == 0.0
            assert secrecy.secrecy_rate_awggn(above) > 0.0
            assert not secrecy.secrecy_positive(below)
            assert secrecy.secrecy_positive(above)

    def test_threshold_beyond_float_range_is_inf(self):
        # ln of the threshold is about 1289 nats, and the rate is 0 at every float snr_sd
        assert secrecy.secrecy_threshold(2.0, 1e-3, 10.0 ** 0.3) == math.inf
        for snr_sd in (1.0, 1e300, 1.7976931348623157e308):
            assert secrecy.secrecy_rate_awggn(secrecy.SecrecyScenario(snr_sd, 10.0 ** 0.3, 2.0, 1e-3)) == 0.0

    @pytest.mark.parametrize("name", ["beta_sd", "beta_se"])
    @pytest.mark.parametrize("beta", TINY_BETAS)
    def test_log_gamma_overflow_names_the_shape(self, beta, name):
        kwargs = {"beta_sd": 2.0, "beta_se": 2.0, "snr_se": 1.0, name: beta}
        with pytest.raises(DomainError, match=r"^%s=%r is out of range: ln Gamma\(3/beta\) overflows" % (name, beta)):
            secrecy.secrecy_threshold(**kwargs)
