"""Helpers for tests that start a fresh interpreter, and the mpmath references.

Every job runs the whole suite with one command. Each test module asks for the
packages it needs with ``pytest.importorskip``, so a test whose package is not
installed skips and names it. mpmath is the one reference for special
functions; the helpers below import it inside themselves, so this file needs no
third-party package but pytest.
"""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys

import pytest

import uwacap

# sample and verify draw with numpy; the closed forms and their CLI commands need only the standard library
needs_numpy = pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="needs numpy")


def package_env():
    """A copy of os.environ with the source directory of the uwacap under test first on PYTHONPATH."""
    src = str(pathlib.Path(uwacap.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter with this package on the path."""
    return subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True, text=True, check=True).stdout


def child_max_rss_mb(*argv):
    """Peak RSS in MB of ``python *argv`` run to a zero exit, read with ``os.wait4`` on its pid.

    A process's ru_maxrss also counts the memory it took over from the process
    that started it, up to its exec: a child of this test process would read at
    least this process's own peak. So a fresh interpreter of about 10 MB starts
    the child. wait4 reports that child alone, where RUSAGE_CHILDREN would also
    count earlier ones. Skips off Linux, the one platform where ru_maxrss is in KiB.
    """
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB on Linux only")
    code = (
        "import os, subprocess, sys\n"
        "child = subprocess.Popen([sys.executable, *%r], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait for it\n"
        "print(child.returncode, usage.ru_maxrss)\n"
    ) % (argv,)
    returncode, kib = run_fresh(code).split()
    assert returncode == "0", argv
    return int(kib) / 1024


def rayleigh_ergodic_bits(snr_avg):
    """Closed-form Rayleigh ergodic capacity e**(1/r) E1(1/r) / (2 ln 2) (W. C. Y. Lee, IEEE TVT 1990)."""
    import mpmath

    return math.exp(1.0 / snr_avg) * float(mpmath.e1(1.0 / snr_avg)) / (2.0 * math.log(2.0))


def gamma_ks_statistic(variates, shape):
    """Two-sided Kolmogorov-Smirnov statistic D of the variates against the Gamma(shape, 1) CDF, exactly."""
    import mpmath

    x = sorted(map(float, variates))
    n = len(x)
    cdf = [mpmath.fp.gammainc(shape, 0.0, t, regularized=True) for t in x]
    return max(max((i + 1) / n - f, f - i / n) for i, f in enumerate(cdf))


def gamma_tail_quantile(a, mass):
    """x with Q(a, x) = mass, Q the regularized upper incomplete gamma.

    Solves ln Q(a, e**y) = ln mass in y at 30 digits, on a bracket that doubles
    outward from y = ln a until ln Q changes sign across it.
    """
    import mpmath

    with mpmath.workdps(30):
        a, target = mpmath.mpf(a), mpmath.log(mass)

        def excess(y):
            return mpmath.log(mpmath.gammainc(a, mpmath.exp(y), mpmath.inf, regularized=True)) - target

        lo = hi = mpmath.log(a)
        step = 1
        while excess(lo) < 0:
            lo, step = lo - step, 2 * step
        step = 1
        while excess(hi) > 0:
            hi, step = hi + step, 2 * step
        return float(mpmath.exp(mpmath.findroot(excess, (lo, hi), solver="pegasus")))
