"""``_rows.format_9g`` against Python's own ``"%.9g\\n"``, row for row."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_fresh

np = pytest.importorskip("numpy")

from uwacap._rows import format_9g


def python_rows(values):
    return "".join("%.9g\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


def assert_rows(values):
    got, want = format_9g(values), python_rows(values)
    if got != want:  # name the first differing row, not two long strings
        pairs = zip(got.splitlines(), want.splitlines(), np.asarray(values, dtype=np.float64).tolist())
        row = next(((g, w, v) for g, w, v in pairs if g != w), None)
        pytest.fail("format_9g differs from %%.9g: %r" % (row or (len(got), len(want)),))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_any_finite_floats(values):
    # hypothesis' floats take in subnormals, +-0 and values near the float range
    assert_rows(np.array(values, dtype=np.float64))


def test_empty_and_non_finite():
    assert format_9g(np.array([])) == ""
    assert_rows([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, np.nan])


def test_decimal_ties():
    # at or a few ulps from a tie of the 9-digit rounding, at every scale of the vector path and past it
    k = np.arange(100_000_000, 100_000_000 + 2000, dtype=np.float64)
    for j in range(-24, 33):
        assert_rows((k + 0.5) * 10.0 ** (j - 8))
        assert_rows(np.arange(1, 100) * 10.0**j + 0.5 * 10.0 ** (j - 8))


def test_neighbours_of_powers_and_of_carries():
    # 10**j may be missed by log10; 9.999999995 * 10**j is a 9-digit tie that carries to the next power,
    # and 9.9999999995 * 10**j and 9.999999999 * 10**j round up to it
    carries = (9.999999995, 9.9999999995, 9.999999999, 9.9999999994999)
    for j in range(-30, 40):
        for x in (10.0**j, *(c * 10.0**j for c in carries)):
            below = np.nextafter(x, 0.0)
            above = np.nextafter(x, np.inf)
            assert_rows([x, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf), -x, -below])


def test_switch_points_of_g():
    # %g turns to e-notation below 1e-4 and from 1e9, counted after rounding to 9 digits
    for x in (1e-4, 1e-5, 1e9, 9.999999995e-5, 9.9999999949e-5, 999999999.5, 999999999.49):
        assert_rows([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), -x])


def test_seeded_sweep():
    rng = np.random.default_rng(27)
    assert_rows(rng.standard_normal(100_000))
    assert_rows(rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-20.0, 35.0, 100_000))
    assert_rows(np.round(rng.uniform(-1e4, 1e4, 100_000), 3))
    assert_rows(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))  # every exponent, nan and inf


def test_rows_written_by_python():
    # 3-digit exponents, subnormals and +-0 leave the vector path: a block of only these, then one of every other row
    rng = np.random.default_rng(7)
    values = rng.standard_normal(5000) * np.array([1e-200, 1e200, 1e-320, 0.0, 1e-15])[rng.integers(0, 5, 5000)]
    assert_rows(values)
    assert "e-2" in format_9g(values) and "e+2" in format_9g(values)
    values[::2] = rng.standard_normal(2500)
    assert_rows(values)


def test_only_sample_loads_the_row_writer():
    # uwacap._rows is compiled on each cold call where bytecode is not written; only `sample` needs it
    code = (
        "import sys, uwacap.cli, uwacap.verify\n"
        "uwacap.verify.run_checks(uwacap.SimConfig(samples=1000), quick=True)\n"
        "print('uwacap._rows' in sys.modules)"
    )
    assert run_fresh(code) == "False\n"
