"""Domain validation, log-gamma and quadrature tolerances shared by every other module.

All gamma-function ratios used elsewhere go through ``log_gamma`` so that
small shape parameters cannot overflow Gamma(1/beta). ``log_gamma`` is
``math.lgamma``, so the closed forms and the ergodic trapezoid rule need
neither numpy nor SciPy. ``integrate`` wraps QUADPACK for the verify suite's
density-mass rows, and only it loads SciPy.
"""

from __future__ import annotations

import math
import numbers

LN2 = math.log(2.0)

DEFAULT_RTOL = 1e-8  # default relative tolerance of the ergodic and verify quadratures
ABSOLUTE_TOLERANCE = 1e-12  # their absolute tolerance, in nats for the ergodic rule
MAX_SUBDIVISIONS = 200


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class QuadratureError(RuntimeError):
    """Adaptive integration did not meet the requested tolerances.

    Carries the best available estimate and its error indicator so callers
    can inspect the failure instead of receiving a silent wrong answer.
    """

    def __init__(self, message, estimate, error_indicator):
        super().__init__(message)
        self.estimate = estimate
        self.error_indicator = error_indicator


def real(name, value, lower=-math.inf, strict=True):
    """``float(value)`` for a finite real above ``lower`` (or equal to it unless ``strict``).

    Anything else, including strings, arrays and NaN, raises DomainError.
    """
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    if math.isfinite(x) and (x > lower if strict else x >= lower):
        return x
    bound = "" if lower == -math.inf else " %s %g" % (">" if strict else ">=", lower)
    raise DomainError("%s must be a finite real%s, got %r" % (name, bound, value))


def integer(name, value, lower):
    """``int(value)`` for an integral real >= ``lower``; anything else raises DomainError."""
    if isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)
    ):
        if value >= lower:
            return int(value)
    raise DomainError("%s must be an integer >= %d, got %r" % (name, lower, value))


def log_gamma(x):
    """ln Gamma(x) for a finite real x > 0, by ``math.lgamma``.

    A result beyond the float range (x above about 2.5e305) raises DomainError.
    """
    x = real("log_gamma argument", x, 0.0)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError("log_gamma argument %r is too large: ln Gamma overflows a float" % x) from None


def to_units(nats, units):
    """Convert a quantity expressed in nats to the requested unit system."""
    if units == "nats":
        return nats
    if units == "bits":
        return nats / LN2
    raise DomainError("units must be 'bits' or 'nats', got %r" % (units,))


def integrate(f, lower, upper, rtol=DEFAULT_RTOL):
    """Adaptive QUADPACK quadrature of f over [lower, upper]; either end may be infinite.

    Raises QuadratureError (carrying the best estimate) when neither the
    relative tolerance ``rtol`` nor the absolute tolerance 1e-12 is met.
    """
    if math.isnan(lower) or math.isnan(upper) or not lower < upper:
        raise DomainError("integration domain must satisfy lower < upper")
    rtol = real("rtol", rtol, 0.0)
    from scipy import integrate as _sci_integrate  # loaded on first use: it is slow to import

    out = _sci_integrate.quad(
        f, lower, upper, epsabs=ABSOLUTE_TOLERANCE, epsrel=rtol, limit=MAX_SUBDIVISIONS, full_output=True
    )
    result, abserr = out[0], out[1]
    # A flagged run whose error indicator still meets the tolerances is a
    # success (QUADPACK warns on roundoff for extremely small integrals).
    if len(out) > 3 and abserr > max(ABSOLUTE_TOLERANCE, rtol * abs(result)):
        raise QuadratureError(str(out[3]).strip(), estimate=result, error_indicator=abserr)
    return result
