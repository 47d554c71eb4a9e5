"""Helpers for tests that start a fresh interpreter.

Every job runs the whole suite with one command. Each test module asks for the
packages it needs with ``pytest.importorskip``, so a test whose package is not
installed skips and names it. This file needs no third-party package but pytest.
"""

import importlib.util
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
