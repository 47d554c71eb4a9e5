import math
from fractions import Fraction

import pytest

mpmath = pytest.importorskip("mpmath")
np = pytest.importorskip("numpy")

import uwacap
from conftest import gamma_tail_quantile, run_fresh
from uwacap import gg_noise, numerics
from uwacap.numerics import (
    DomainError,
    QuadratureError,
    gamma_tail_log_quantile,
    integer,
    integrate,
    log_gamma,
    log_gamma_q,
    real,
    shape,
    stirling_remainder,
)

FLOOR = 1.1718826319535557e-305  # the smallest shape whose ln Gamma(3/beta) is a float


class TestReal:
    def test_accepts_finite_reals_in_range(self):
        assert real("x", 2) == 2.0 and type(real("x", 2)) is float
        assert real("x", np.float64(0.5), 0.0) == 0.5
        assert real("x", Fraction(1, 4), 0.0) == 0.25
        assert real("x", 0.0, 0.0, strict=False) == 0.0
        assert real("x", -1e300) == -1e300

    @pytest.mark.parametrize(
        "value,lower,strict",
        [
            (0.0, 0.0, True),
            (-1e-300, 0.0, False),
            (math.nan, -math.inf, True),
            (math.inf, 0.0, True),
            (-math.inf, -math.inf, False),
            ("1", -math.inf, True),
            (None, -math.inf, True),
            (1j, -math.inf, True),
            (np.array([1.0]), 0.0, True),
            (10**400, 0.0, True),
        ],
    )
    def test_rejects(self, value, lower, strict):
        with pytest.raises(DomainError, match="^x must be a finite real"):
            real("x", value, lower, strict)

    class Sub(float):
        pass

    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.5, 0.5),
            (Sub(0.5), 0.5),
            (np.float64(0.5), 0.5),
            (True, 1.0),
            (Fraction(1, 4), 0.25),
            (2**1023, 2.0**1023),
        ],
        ids=["float", "float-subclass", "float64", "bool", "fraction", "large-int"],
    )
    def test_returns_a_plain_float(self, value, expected):
        # only an exact float skips the numbers.Real check; every other real is converted by float()
        x = real("x", value, 0.0)
        assert x == expected and x.__class__ is float

    @pytest.mark.parametrize(
        "value,lower,strict,message",
        [
            (-0.5, 0.0, True, "x must be a finite real > 0, got -0.5"),
            (0.0, 0.0, True, "x must be a finite real > 0, got 0.0"),
            (-1e-300, 0.0, False, "x must be a finite real >= 0, got -1e-300"),
            (Sub(-0.5), 0.0, True, "x must be a finite real > 0, got -0.5"),
            (np.float64(-0.5), 0.0, True, "x must be a finite real > 0, got %r" % np.float64(-0.5)),
            (False, 0.0, True, "x must be a finite real > 0, got False"),
            (Fraction(-1, 4), 0.0, True, "x must be a finite real > 0, got Fraction(-1, 4)"),
            (10**400, 0.0, True, "x must be a finite real > 0, got %d" % 10**400),
            (math.nan, -math.inf, True, "x must be a finite real, got nan"),
            (math.inf, 0.0, True, "x must be a finite real > 0, got inf"),
            (-math.inf, -math.inf, False, "x must be a finite real, got -inf"),
            (Sub(math.nan), -math.inf, True, "x must be a finite real, got nan"),
        ],
    )
    def test_error_messages(self, value, lower, strict, message):
        with pytest.raises(DomainError) as caught:
            real("x", value, lower, strict)
        assert str(caught.value) == message


def _value_types(number):
    """One of each of the six value types, every checked field built as ``number(0)`` or ``number(1)``."""
    one, zero = number(1), number(0)
    return [
        uwacap.GGNoise(one, one, zero),
        uwacap.AlphaMuFading(one, one, one),
        uwacap.CapacityBounds(zero, one),
        uwacap.ChannelConfig(one, uwacap.GGNoise(1.0, 1.0)),
        uwacap.SecrecyScenario(one, zero, one, one),
        uwacap.SimConfig(seed=one, samples=one, threads=one),
    ]


class TestCheckedFields:
    @pytest.mark.parametrize("number", [Fraction, np.float64, bool, int])
    def test_fields_store_what_their_checks_return(self, number):
        for got, want in zip(_value_types(number), _value_types(float)):
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            for name in got._fields:
                assert type(getattr(got, name)) is type(getattr(want, name))
        assert type(uwacap.SimConfig().seed) is int  # an integer field stores an int, a real field a float
        assert type(uwacap.GGNoise(1, 1).beta) is float

    @pytest.mark.parametrize("number", [Fraction, np.float64])
    def test_tolerance_field_stores_a_float(self, number):
        rtol = uwacap.SimConfig(quad_rtol=number(1) / number(8)).quad_rtol
        assert type(rtol) is float and rtol == 0.125

    def test_fraction_laws_run_through_the_numpy_paths(self):
        from uwacap import fading, verify

        exact, plain = uwacap.GGNoise(Fraction(3, 2), Fraction(1), Fraction(1, 4)), uwacap.GGNoise(1.5, 1.0, 0.25)
        n = np.linspace(-3.0, 3.0, 7)
        got = gg_noise.log_pdf(exact, n)
        assert got.dtype == float and np.array_equal(got, gg_noise.log_pdf(plain, n))
        assert np.array_equal(verify.gg_density_grid(exact).values, verify.gg_density_grid(plain).values)
        density = verify.output_density(uwacap.ChannelConfig(Fraction(1), exact))
        assert np.array_equal(density.values, verify.output_density(uwacap.ChannelConfig(1.0, plain)).values)
        assert np.array_equal(gg_noise.sample(exact, 7, 1000), gg_noise.sample(plain, 7, 1000))
        exact, plain = fading.AlphaMuFading(Fraction(2), Fraction(1), Fraction(1, 2)), fading.AlphaMuFading(2.0, 1.0, 0.5)
        assert np.array_equal(fading.sample(exact, 7, 1000), fading.sample(plain, 7, 1000))


class TestInteger:
    def test_accepts_integral_values_in_range(self):
        assert integer("n", 3, 1) == 3 and type(integer("n", 3, 1)) is int
        assert integer("n", 4.0, 1) == 4 and type(integer("n", 4.0, 1)) is int
        assert integer("n", np.int64(0), 0) == 0
        assert integer("n", 10**400, 1) == 10**400

    @pytest.mark.parametrize(
        "value,lower",
        [(0, 1), (-1, 0), (2.5, 1), (math.nan, 1), (math.inf, 1), ("3", 1), (None, 1), (np.array([3]), 1)],
    )
    def test_rejects(self, value, lower):
        with pytest.raises(DomainError, match="^n must be an integer >= %d" % lower):
            integer("n", value, lower)


class TestShape:
    @pytest.mark.parametrize("beta", [FLOOR, 1e-3, 2.0, 1e300])
    def test_accepts_the_floor_and_above(self, beta):
        assert shape("beta", beta) == beta
        assert math.isfinite(log_gamma(3.0 / beta))

    @pytest.mark.parametrize("beta", [5e-324, 1e-320, math.nextafter(FLOOR, 0.0)])
    def test_below_the_floor_names_the_argument(self, beta):
        with pytest.raises(DomainError) as info:
            shape("Law.beta", beta)
        assert str(info.value) == "Law.beta=%r is out of range: ln Gamma(3/beta) overflows a float" % beta
        with pytest.raises(DomainError):
            log_gamma(3.0 / beta)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "2"])
    def test_is_real_above_zero(self, bad):
        with pytest.raises(DomainError, match="^Law.beta must be a finite real > 0, got "):
            shape("Law.beta", bad)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "2", np.array([1.0, 2.0])])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    def test_overflow(self):
        # math.lgamma raises OverflowError past about 2.5e305
        assert log_gamma(2e305) == pytest.approx(2e305 * (math.log(2e305) - 1.0), rel=1e-12)
        with pytest.raises(DomainError, match="overflows"):
            log_gamma(3e305)

    def test_recurrence_grid(self):
        # ln Gamma(x+1) = ln Gamma(x) + ln x on x = 0.1, 0.2, ..., 50
        for x in np.arange(0.1, 50.05, 0.1):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestLogGammaQ:
    @pytest.mark.parametrize("a", [1e-3, 0.05, 0.5, 1.0, 3.3, 50.0, 1e3, 1e4])
    def test_matches_mpmath(self, a):
        # x from (a+1)/1024 to (a+1)*1024: both the series and the continued fraction, and the switch at a + 1
        for k in range(-60, 61):
            y = math.log((a + 1.0) * 2.0 ** (k / 6.0))
            got, _ = log_gamma_q(a, y, log_gamma(a))
            with mpmath.workdps(40):
                exact = float(mpmath.log(mpmath.gammainc(a, mpmath.exp(y), mpmath.inf, regularized=True)))
            assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact)), (k, got, exact)

    def test_stated_bound_near_x_equal_a(self):
        # the module docstring's bound: 2e-12 * max(1, |ln Q|), plus 3e-11 for the rounding of a * y
        # (about 8e4 here) in the front factor; 8275.827... is the worst of a 400-point scan of a in [8270, 8295]
        points = [(a, 0.00075) for a in (8282.0, 8275.827067669174)]
        points += [(float(a), 0.00075) for a in np.geomspace(1e3, 1e4, 150)]
        points += [(float(a), dy) for a in np.geomspace(1e3, 1e4, 12) for dy in (-0.02, -0.002, 0.0, 0.002, 0.02)]
        for a, dy in points:
            y = math.log(a) + dy
            got, _ = log_gamma_q(a, y, log_gamma(a))
            with mpmath.workdps(40):
                exact = float(mpmath.log(mpmath.gammainc(a, mpmath.exp(y), mpmath.inf, regularized=True)))
            assert abs(got - exact) <= 2e-12 * max(1.0, abs(exact)) + 3e-11, (a, dy, got, exact)

    def test_front_factor(self):
        a, y = 3.3, math.log(2.0)
        _, log_front = log_gamma_q(a, y, log_gamma(a))
        assert log_front == pytest.approx(a * y - 2.0 - math.lgamma(a), rel=1e-15)

    def test_shape_past_the_term_limit_is_out_of_range(self):
        # at x = a the series needs about sqrt(a) terms: far more than 10 000 at a = 1e9
        with pytest.raises(DomainError, match="^Gamma shape a=1000000000.0 is out of range"):
            log_gamma_q(1e9, math.log(1e9), log_gamma(1e9))
        with pytest.raises(DomainError, match="out of range"):
            gamma_tail_log_quantile(1e9, 0.5)


class TestGammaTailLogQuantile:
    @pytest.mark.parametrize("a", [1 / 0.3, 2.0, 1.25, 1.0, 1 / 1.5, 0.5, 1 / 3, 0.2, 0.1, 0.05, 50.0, 1e3])
    def test_matches_inverse_incomplete_gamma(self, a):
        for mass in (1e-300, 1e-100, 1e-30, 1e-10, 5e-11, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.999):
            y = gamma_tail_log_quantile(a, mass)
            assert math.exp(y) == pytest.approx(gamma_tail_quantile(a, mass), rel=1e-13)

    @pytest.mark.parametrize("mass", [0.0, 1.0, -0.5, math.nan, "abc", None])
    def test_invalid_mass(self, mass):
        with pytest.raises(DomainError, match="^tail mass must"):
            gamma_tail_log_quantile(1.0, mass)


class TestStirlingRemainder:
    @pytest.mark.parametrize("x", [0.1, 1.0, 7.5, 99.9, 100.0, 100.1, 1e3, 1e6, 1e15, 1e100, 1e300])
    def test_matches_mpmath(self, x):
        with mpmath.workdps(350):
            m = mpmath.mpf(x)
            exact = mpmath.loggamma(m) - ((m - 0.5) * mpmath.log(m) - m + mpmath.log(2 * mpmath.pi) / 2)
        got = stirling_remainder(x)
        if x > 100.0:  # the series: to the last bits
            assert got == pytest.approx(float(exact), rel=1e-14)
        else:  # a difference of O(x ln x) terms: absolute digits only
            assert got == pytest.approx(float(exact), abs=1e-13)


class TestIntegrate:
    # the rule covers the whole line, split at 0: an integrand that is 0 on
    # one side stands for a half-line, with its end at the split
    def test_exponential_tail(self):
        assert integrate(lambda t: math.exp(-abs(t))) == pytest.approx(2.0, rel=1e-10)
        assert integrate(lambda t: math.exp(t) if t < 0.0 else 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_endpoint_singularity(self):
        value = integrate(lambda t: math.exp(-abs(t)) / math.sqrt(abs(t)))
        assert value == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-8)

    def test_gaussian_moment(self):
        value = integrate(lambda t: t * t * math.exp(-t * t))
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)

    def test_full_line(self):
        norm = 1.0 / math.sqrt(2.0 * math.pi)
        value = integrate(lambda t: norm * math.exp(-0.5 * t * t))
        assert value == pytest.approx(1.0, rel=1e-10)

    def test_linearity(self):
        f = lambda t: math.exp(-abs(t))
        g = lambda t: t * t * math.exp(-abs(t))
        combined = integrate(lambda t: 3.0 * f(t) + 0.5 * g(t))
        separate = 3.0 * integrate(f) + 0.5 * integrate(g)
        assert combined == pytest.approx(separate, rel=1e-9)

    def test_non_convergence_reports_estimate(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate(lambda t: math.sin(1.0 / t) / t if 1e-6 < abs(t) < 1.0 else 0.0)
        assert math.isfinite(excinfo.value.estimate)
        assert excinfo.value.error_indicator > 0

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0])
    def test_gg_half_line_mass(self, beta):
        # the cusp of beta < 1 sits at the split, which both half-lines share
        law = gg_noise.with_variance(beta, 1.0)
        for inside in (lambda n: n < 0.0, lambda n: n > 0.0):
            value = integrate(lambda n: gg_noise.pdf(law, n) if inside(n) else 0.0)
            assert value == pytest.approx(0.5, abs=1e-12)

    def test_narrow_density_on_the_whole_line(self):
        # sigma = 1e-3: the density is 0 at the nodes next to t = 0, and its mass lies past them
        law = gg_noise.with_variance(2.0, 1e-6)
        assert integrate(lambda n: gg_noise.pdf(law, n)) == pytest.approx(1.0, abs=1e-12)

    def test_peak_between_coarse_nodes(self):
        # the step-1 nodes x = 1, 6.3 and 298 all miss a unit bump at 20
        value = integrate(lambda x: math.exp(-0.5 * (x - 20.0) ** 2))
        assert value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-10)

    def test_second_peak_past_a_dip(self):
        # a refinement that stopped in the dip after the first peak would halve the second away
        def f(x):
            near, far = x, x - 20.0
            return (math.exp(-0.5 * near * near) + math.exp(-0.5 * far * far)) / math.sqrt(2.0 * math.pi)

        assert integrate(f) == pytest.approx(2.0, rel=1e-10)

    def test_far_nodes_raise_no_warning(self):
        # the density is 0 at every node, so the rule walks out to e**709,
        # where z**20 overflows; RuntimeWarnings are errors in this suite
        law = gg_noise.with_variance(20.0, 1.0)
        assert integrate(lambda n: gg_noise.pdf(law, 3.0 + abs(n))) == 0.0

    def test_evaluation_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_EVALUATIONS", 40)
        calls = []

        def f(t):
            calls.append(t)
            return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

        with pytest.raises(QuadratureError, match="within 40 integrand evaluations") as excinfo:
            integrate(f)
        assert len(calls) == 80  # each lattice term takes f at +x and -x
        assert excinfo.value.estimate == pytest.approx(1.0, rel=1e-2)
        assert 0.0 < excinfo.value.error_indicator < 1.0

    def test_bad_domain(self):
        for rtol in (0.0, -1e-8, math.nan, "1e-8", 1.0):
            with pytest.raises(DomainError, match="^rtol"):
                integrate(math.exp, rtol)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no module of the package imports SciPy; scipy.integrate alone costs about 0.6 s of a cold call
    assert run_fresh("import sys, uwacap.cli; print('scipy' in sys.modules)") == "False\n"


def test_verify_runs_with_scipy_blocked():
    code = (
        "import os, sys\n"
        "sys.modules['scipy'] = None  # importing it now raises ImportError\n"
        "from uwacap.cli import main\n"
        "assert main(['--out', os.devnull, 'verify', '--quick']) == 0\n"
        "print(sys.modules['scipy'], [m for m in sys.modules if m.startswith('scipy.')])"
    )
    assert run_fresh(code) == "None []\n"


def test_sample_leaves_scipy_unloaded():
    # the samplers need numpy only; scipy.special adds about 0.3 s to a cold call
    code = (
        "import os, sys\n"
        "from uwacap.cli import main\n"
        "assert main(['--out', os.devnull, 'sample', '--law', 'gg', '--beta', '0.8']) == 0\n"
        "assert main(['--out', os.devnull, 'sample', '--law', 'alpha-mu', '--mu', '2']) == 0\n"
        "print('numpy' in sys.modules, 'scipy' in sys.modules)"
    )
    assert run_fresh(code) == "True False\n"
