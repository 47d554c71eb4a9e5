"""Helpers for tests that start a fresh interpreter; numpy-free, so suites that run without numpy load it too."""

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
