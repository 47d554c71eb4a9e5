"""Correctness checks that hold for any workload seed.

Every expected value is computed here from the paper's formulas with
``math.lgamma``; nothing is taken from the package under test. A check
records a failure on the operation that produced the value, so a wrong
output counts in ``failed`` exactly like a crash or a non-zero exit.
"""

from __future__ import annotations

import math

LN2 = math.log(2.0)
EULER = 0.5772156649015329

# Closed forms are compared at 1e-12 (bits); values read back from the CLI's
# %.9g CSV carry up to 5e-9 relative rounding on top of that.
CLOSED_TOL = 1e-12
PRINT_RTOL = 1e-8
# Ergodic quadrature runs at rtol 1e-8 (the CLI and library default).
QUAD_RTOL = 1e-8
# QUADPACK's error indicator is an estimate, not a bound: against the
# Rayleigh closed form the package's relative error reaches 2.0e-8, twice
# the requested rtol, in a window near 43.2 dB (a 0.01 dB scan of 0-60 dB
# found it nowhere else above 4.4e-9). The check allows ten times the
# requested rtol; every run prints the largest error it saw.
RAYLEIGH_RTOL = 10 * QUAD_RTOL
# Points this close to the secrecy threshold are too near the switch to
# judge the sign of a rate rounded to 9 digits.
THRESHOLD_MARGIN = 1e-7
# Sample mean and variance must lie within this many standard errors.
MAX_Z = 6.0


class Op:
    """One operation of a closed loop: its latency, output rows and verdict."""

    __slots__ = ("kind", "latency", "rows", "errors", "rayleigh_err")

    def __init__(self, kind, latency, rows=0):
        self.kind = kind
        self.latency = latency
        self.rows = rows
        self.errors = []
        self.rayleigh_err = 0.0  # largest relative error against the Rayleigh closed form

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)
        return ok

    def close(self, got, want, what, rtol=0.0, atol=CLOSED_TOL):
        ok = math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)
        return self.check(ok, "%s: got %r, want %r" % (what, got, want))

    @property
    def failed(self):
        return bool(self.errors)


# ---------------------------------------------------------------- formulas


def gap_nats(beta):
    return 0.5 * (
        2.0 * math.log(beta) + math.log(math.pi) + 1.0 - 2.0 / beta
        + math.lgamma(3.0 / beta) - math.log(2.0) - 3.0 * math.lgamma(1.0 / beta)
    )


def gap_bits(beta):
    return gap_nats(beta) / LN2


def awgn_bits(snr):
    return 0.5 * math.log1p(snr) / LN2


def secrecy_bits(snr_sd, snr_se, beta_sd, beta_se):
    nats = 0.5 * (math.log1p(snr_sd) - math.log1p(snr_se)) + gap_nats(beta_sd) - gap_nats(beta_se)
    return max(0.0, nats) / LN2


def secrecy_threshold(beta_sd, beta_se, snr_se):
    return max(0.0, (1.0 + snr_se) * math.exp(2.0 * (gap_nats(beta_se) - gap_nats(beta_sd))) - 1.0)


def exp_e1(x):
    """e**x * E1(x) for x > 0: power series below 1, continued fraction above."""
    if x <= 1.0:
        total, term = 0.0, 1.0
        for k in range(1, 80):
            term *= -x / k
            total += term / k
            if abs(term) < 1e-18:
                break
        return math.exp(x) * (-EULER - math.log(x) - total)
    b = x + 1.0
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, 400):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h *= step
        if abs(step - 1.0) < 1e-16:
            break
    return h


def rayleigh_ergodic_bits(snr):
    """E_h{log2(1 + snr*h**2)}/2 for unit-power Rayleigh fading."""
    return exp_e1(1.0 / snr) / (2.0 * LN2)


def gg_moments(beta, scale, mean):
    """Mean, variance and the variance of (N - mean)**2 for a GG law."""
    lg1 = math.lgamma(1.0 / beta)
    var = scale**2 * math.exp(math.lgamma(3.0 / beta) - lg1)
    m4 = scale**4 * math.exp(math.lgamma(5.0 / beta) - lg1)
    return mean, var, m4 - var * var


def alpha_mu_moments(alpha, mu, h_root):
    def raw(k):
        r = k / alpha
        return h_root**k * math.exp(math.lgamma(mu + r) - math.lgamma(mu) - r * math.log(mu))

    m1, m2, m3, m4 = (raw(k) for k in (1, 2, 3, 4))
    var = m2 - m1 * m1
    c4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1**4
    return m1, var, c4 - var * var


def unit_power_h_root(alpha, mu):
    r = 2.0 / alpha
    return math.exp(0.5 * (r * math.log(mu) + math.lgamma(mu) - math.lgamma(mu + r)))


# ------------------------------------------------------------ check groups


def check_draws(op, draws, count, moments, what):
    """Count, finiteness, and mean/variance within MAX_Z standard errors."""
    import numpy as np

    x = np.asarray(draws, dtype=float)
    if not op.check(x.shape == (count,), "%s: %d draws, want %d" % (what, x.size, count)):
        return
    if not op.check(bool(np.all(np.isfinite(x))), "%s: non-finite draw" % what):
        return
    mean, var, var_of_sq = moments
    z_mean = (float(x.mean()) - mean) / math.sqrt(var / count)
    z_var = (float(x.var(ddof=1)) - var) / math.sqrt(var_of_sq / count)
    op.check(abs(z_mean) <= MAX_Z, "%s: mean off by %.2f standard errors" % (what, z_mean))
    op.check(abs(z_var) <= MAX_Z, "%s: variance off by %.2f standard errors" % (what, z_var))


def check_bounds(op, lower, upper, beta, what, rtol=0.0):
    """lower <= upper and upper - lower == gap(beta) (bits)."""
    op.check(lower <= upper, "%s: lower %r > upper %r" % (what, lower, upper))
    op.close(upper - lower, gap_bits(beta), what + " width", rtol=0.0,
             atol=CLOSED_TOL + rtol * (abs(lower) + abs(upper)))


def check_rayleigh(op, got, snr, rtol):
    """Ergodic capacity under unit-power Rayleigh fading; returns the relative error."""
    want = rayleigh_ergodic_bits(snr)
    err = abs(got - want) / want
    op.check(err <= rtol, "Rayleigh at snr %r: got %r, want %r (relative error %.3g)" % (snr, got, want, err))
    return err


def check_secrecy_sign(op, snr_sd, threshold, rate, positive, what):
    """Rate 0 (and not positive) at or below the threshold, positive above it."""
    if abs(snr_sd - threshold) <= THRESHOLD_MARGIN * max(threshold, 1e-300):
        return
    if snr_sd < threshold:
        op.check(rate == 0.0 and not positive, "%s: rate %r below threshold" % (what, rate))
    else:
        op.check(rate > 0.0 and positive, "%s: rate %r above threshold" % (what, rate))


def selftest():
    """Feed deliberately wrong values through the checks; each must register.

    Returns the list of cases that were not counted as failures (empty when
    the checks work).
    """
    cases = {}
    op = Op("selftest", 0.0)
    check_bounds(op, 1.0, 1.0 + gap_bits(1.0) + 1e-9, 1.0, "gap off by 1e-9")
    cases["bounds"] = op.failed
    op = Op("selftest", 0.0)
    check_rayleigh(op, rayleigh_ergodic_bits(10.0) * (1.0 + 1e-6), 10.0, RAYLEIGH_RTOL)
    cases["ergodic"] = op.failed
    op = Op("selftest", 0.0)
    check_secrecy_sign(op, 2.0, 1.0, 0.0, False, "zero rate above threshold")
    cases["secrecy"] = op.failed
    op = Op("selftest", 0.0)
    check_verify_output(op, "pdf_mass beta=1  measured=1 tolerance=1e-08 FAIL\n"
                        "verify: 1 checks, 1 failed\n", 3, 1)
    cases["verify"] = op.failed
    return [name for name, caught in cases.items() if not caught]


def check_verify_output(op, text, returncode, expected_checks):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = [ln for ln in lines if not ln.startswith("verify:")]
    op.rows = len(rows)
    op.check(returncode == 0, "verify exited %d" % returncode)
    op.check(len(rows) == expected_checks, "verify printed %d checks, want %d" % (len(rows), expected_checks))
    bad = [ln.split("measured=")[0].strip() for ln in rows if not ln.rstrip().endswith("PASS")]
    op.check(not bad, "verify rows not PASS: %s" % ", ".join(bad[:5]))
    op.check(bool(lines) and lines[-1] == "verify: %d checks, 0 failed" % expected_checks,
             "verify summary %r" % (lines[-1] if lines else ""))
