import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import uwacap
from uwacap.numerics import DomainError, QuadratureError, integer, integrate, log_gamma, real


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


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "2", np.array([1.0, 2.0])])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    def test_recurrence_grid(self):
        # ln Gamma(x+1) = ln Gamma(x) + ln x on x = 0.1, 0.2, ..., 50
        for x in np.arange(0.1, 50.05, 0.1):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestIntegrate:
    def test_exponential_tail(self):
        assert integrate(math.exp, -math.inf, 0.0) == pytest.approx(1.0, rel=1e-10)
        assert integrate(lambda t: math.exp(-t), 0.0, math.inf) == pytest.approx(1.0, rel=1e-10)

    def test_endpoint_singularity(self):
        assert integrate(lambda t: t**-0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-8)

    def test_gaussian_moment(self):
        value = integrate(lambda t: t * t * math.exp(-t * t), 0.0, math.inf)
        assert value == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)

    def test_full_line(self):
        norm = 1.0 / math.sqrt(2.0 * math.pi)
        value = integrate(lambda t: norm * math.exp(-0.5 * t * t), -math.inf, math.inf)
        assert value == pytest.approx(1.0, rel=1e-10)

    def test_linearity(self):
        f = lambda t: math.exp(-t)
        g = lambda t: t * math.exp(-t)
        combined = integrate(lambda t: 3.0 * f(t) + 0.5 * g(t), 0.0, math.inf)
        separate = 3.0 * integrate(f, 0.0, math.inf) + 0.5 * integrate(g, 0.0, math.inf)
        assert combined == pytest.approx(separate, rel=1e-9)

    def test_non_convergence_reports_estimate(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate(lambda t: math.sin(1.0 / t) / t, 1e-6, 1.0)
        assert math.isfinite(excinfo.value.estimate)
        assert excinfo.value.error_indicator > 0

    def test_bad_domain(self):
        with pytest.raises(DomainError):
            integrate(math.exp, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(math.exp, math.nan, 1.0)
        with pytest.raises(DomainError):
            integrate(math.exp, 0.0, 1.0, 0.0)


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs about 0.2 s of every cold CLI call that does no quadrature
    src = str(pathlib.Path(uwacap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, uwacap.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
