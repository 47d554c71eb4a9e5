"""Domain validation, log-gamma and quadrature tolerances shared by every other module.

All gamma-function ratios used elsewhere go through ``log_gamma`` so that
small shape parameters cannot overflow Gamma(1/beta). ``fading.unit_power``
and the ergodic Gamma weight, where a difference of two log-gammas would
cancel at large mu, write ln Gamma as Stirling's formula plus
``stirling_remainder``, the one place that switches to Stirling's series
(past 100). ``log_gamma`` is ``math.lgamma``, so no module of the package
needs SciPy. ``integrate``, a double-exponential trapezoid rule over the
whole real line, has no caller in the package (verify reads each density's
mass from its panel grid); it stays until perfbench stops tracing it by name.
``Record`` is the base of the package's frozen value types.
"""

import itertools
import math
import numbers

LN2 = math.log(2.0)

DEFAULT_RTOL = 1e-8  # default relative tolerance of the ergodic rule, the one rule --quad-rtol tunes
ABSOLUTE_TOLERANCE = 1e-12  # absolute tolerance of ``integrate``; the ergodic rule has none
MAX_EVALUATIONS = 100_000  # lattice terms per quadrature before QuadratureError
_HALF_PI = 0.5 * math.pi
_NEGLIGIBLE = 2.0**-53  # a tail below this fraction of the sum cannot change it


class Record:
    """A frozen value: equality, hash and repr over the class's ``_fields``.

    Each subclass's ``__init__`` stores each field with ``self._set(name,
    value)``, where a checked field's value is what its check returned: a
    float, or an int for an integer field. Any other assignment or deletion
    of an attribute raises AttributeError. Two records are equal when they
    are of the same class with equal fields, and the repr is
    ``Name(field=value, ...)``.
    """

    _fields = ()
    _set = object.__setattr__  # stores in place: vars(self) would build a dict per instance, 2.5x the memory

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        items = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (self.__class__.__qualname__, items)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class DomainError(ValueError):
    """An argument or input lies outside what a function or command accepts."""


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
    if value.__class__ is float:  # the common case, without the slow ABC check
        x = value
    else:
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


def tolerance(name, value):
    """``float(value)`` for a relative tolerance, a finite real in (0, 1); anything else raises DomainError."""
    x = real(name, value, 0.0)
    if x < 1.0:
        return x
    raise DomainError("%s must be a finite real in (0, 1), got %r" % (name, value))


def shape(name, value):
    """``real(name, value, 0.0)`` for a GG shape beta; below 1.17e-305 it raises DomainError."""
    beta = real(name, value, 0.0)
    if beta < 1.1718826319535557e-305:  # below it ln Gamma(3/beta) overflows a float
        raise DomainError("%s=%r is out of range: ln Gamma(3/beta) overflows a float" % (name, beta))
    return beta


def log_gamma(x):
    """ln Gamma(x) for a finite real x > 0, by ``math.lgamma``.

    A result beyond the float range (x above about 2.5e305) raises DomainError.
    """
    x = real("log_gamma argument", x, 0.0)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError("log_gamma argument %r is too large: ln Gamma overflows a float" % x) from None


def stirling_remainder(x):
    """Binet's J(x) = ln Gamma(x) - [(x - 1/2) ln x - x + ln(2 pi) / 2] for x > 0.

    Past x = 100 it is Stirling's series 1/(12x) - 1/(360x**3) + 1/(1260x**5),
    within 6e-18 of J there, so differences of ln Gamma at large arguments
    keep their digits; below, it is ``log_gamma`` minus the bracket.
    """
    if x > 100.0:
        m2 = 1.0 / (x * x)
        return (1.0 / 12.0 - m2 * (1.0 / 360.0 - m2 / 1260.0)) / x
    return log_gamma(x) - ((x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi))


def to_units(nats, units):
    """Convert a quantity expressed in nats to the requested unit system."""
    if units == "nats":
        return nats
    if units == "bits":
        return nats / LN2
    raise DomainError("units must be 'bits' or 'nats', got %r" % (units,))


def halving_trapezoid(term, origin, h, rtol, atol, tail, cap, halvings=0, log_concave=False, scale=1.0):
    """scale * T, with T = h * (sum over integers k of term(origin + k * h)) and h halving until T settles.

    Each halving adds the nodes midway between the old ones. It stops once
    |T(h/2) - T(h)| <= max(atol, rtol * |T|), but not before ``halvings``
    halvings. term(t) is a float, or None where the node t and every node
    past it on its side of origin add nothing. Each side is walked outwards
    from origin. Once |term| falls by a ratio r (a 0 after a nonzero term is
    a fall; 0s before it are not), the rest of the side is at most
    |term| * r / (1 - r) if no later ratio exceeds r, and the side stops
    when that bound is below ``tail`` times the sum. That holds as it stands
    for a ``log_concave`` lattice. Any other lattice, such as the doubly
    exponential tails of a double-exponential rule, is walked on each
    refinement at least as far as the coarser levels went, so that a side
    that dips and rises again is not cut short. Past ``cap`` terms it raises
    QuadratureError carrying scale times the last estimate and indicator.
    """
    terms, estimate, indicator = 0, math.nan, math.inf
    reach = {True: 0.0, False: 0.0}  # the farthest |t - origin| walked on each side

    def side(start, spacing, ref):
        """Sum of term(start + k * spacing), k = 0, 1, ..., cut once the rest is negligible."""
        nonlocal terms
        right = spacing > 0.0
        budget, total, last = cap - terms, 0.0, 0.0
        for k in itertools.count():
            if k == budget:
                raise QuadratureError(
                    "the trapezoid rule did not converge within %d integrand evaluations" % cap,
                    estimate=estimate * scale,
                    error_indicator=indicator * scale,
                )
            t = start + k * spacing
            f = term(t)
            if f is None:
                break
            total += f
            size = f if f > 0.0 else -f
            if size < last and (log_concave or abs(t - origin) > reach[right]):
                r = size / last
                if size * r <= tail * (1.0 - r) * abs(ref + total):
                    break
            if size:  # a 0 after the peak counts as a fall; 0s before it do not
                last = size
        terms += k + 1
        reach[right] = max(reach[right], abs(t - origin))
        return total

    total = side(origin, h, 0.0)
    estimate = h * (total + side(origin - h, -h, total))
    while True:
        ref = estimate / h  # the new nodes, midway between the old ones, sum to about this
        total = side(origin + 0.5 * h, h, ref)
        total += side(origin - 0.5 * h, -h, ref + total)
        h *= 0.5
        halvings -= 1
        refined = 0.5 * estimate + h * total
        indicator, estimate = abs(refined - estimate), refined
        if halvings <= 0 and indicator <= max(atol, rtol * abs(estimate)):
            return estimate * scale


def integrate(f, rtol=DEFAULT_RTOL):
    """Integral of f over the whole real line by the double-exponential (sinh-sinh) trapezoid rule.

    With u = (pi/2) * sinh(t), the nodes are x = +-e**u: the line is split at
    0, where a cusp, jump or integrable singularity keeps the convergence in
    t exponential. ``halving_trapezoid`` sums the lattice from step 1 and
    accepts no step above 1/16, so that a peak between the coarse nodes is
    not taken for a settled 0; each side of t = 0 ends where the rest cannot
    change the sum in double precision, or where the nodes leave the floats.
    Contract: the mass of f lies near 0. The node spacing grows like |x|, so
    a peak much narrower than the spacing far from 0 can be missed and
    returned as about 0 without an error. Past MAX_EVALUATIONS terms (two
    values of f each) it raises QuadratureError carrying the last estimate
    and indicator.
    """
    rtol = tolerance("rtol", rtol)

    def term(t):
        """The transformed integrand at t; None once its nodes have left the floats."""
        try:
            e = math.exp(_HALF_PI * math.sinh(t))
        except OverflowError:
            return None
        weight = _HALF_PI * math.cosh(t) * e
        if e == 0.0 or math.isinf(weight):  # an infinite weight times f(x) = 0 would be nan
            return None
        return weight * (f(e) + f(-e))

    estimate = halving_trapezoid(term, 0.0, 1.0, rtol, ABSOLUTE_TOLERANCE, _NEGLIGIBLE, MAX_EVALUATIONS, halvings=4)
    return float(estimate)
