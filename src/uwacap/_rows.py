"""Floats to text rows at ``%.9g``, byte for byte as Python writes them, with numpy.

``format_9g(values)`` equals ``"".join("%.9g\\n" % v for v in values)``. A
finite x whose 9-digit decimal exponent e lies in [-14, 30] takes the vector
path:

- its 9-digit mantissa is m = rint(|x| * 10**(8 - e)). The product (or the
  quotient by 10**(e - 8)) is taken with an exact power of ten, |8 - e| <= 22,
  so it is correctly rounded, within half an ulp (6e-8) of the exact value;
- a row whose scaled value lies within 1e-6 of a rounding tie is left to
  Python, so every other rint is the correctly rounded one;
- m splits into integer and fraction digits, 8 - e of them in fixed notation
  (-4 <= e < 9) and 8 in e-notation, as ``%g`` chooses;
- each row is written into fixed 4-byte columns from digit tables whose
  leading or trailing zeros are NUL bytes, the padding one ``translate`` drops.

Zeros, non-finite values, exponents outside [-14, 30], near-ties and rows
whose m falls outside [10**8, 10**9) (log10 missed e, or m carried to 10**9)
are written by Python's own ``"%.9g"`` into their rows, which hold any of its
texts: at most 16 characters.
"""

import functools

import numpy as np

_LOW, _HIGH = -14, 30  # exponents e whose power 10**(8 - e) is exact
_TIE = 0.5 - 1e-6

# offsets of the 4-byte pieces in the one uint32 table
_FULL, _LEAD, _TRAIL = 0, 10_000, 20_000  # 4 digits: every one, leading zeros blank, trailing zeros blank
_LOW3 = 30_000  # 4 * 1000: 3 digits, every one or leading zeros blank, then "." or not
_SIGN = _LOW3 + 4000  # newline, sign, 2 leading integer digits (2 * digits + neg); then newline, sign, "0"
_EXP = _SIGN + 202  # "e-14" ... "e+30"
_COLUMNS = 6


def _digits(width):
    """ASCII digits of 0 .. 10**width - 1: every digit, leading zeros blank, trailing zeros blank."""
    digits = np.indices((10,) * width, dtype=np.uint8).reshape(width, -1).T
    zero = digits == 0
    digits += ord("0")
    lead = np.where(np.logical_and.accumulate(zero, axis=1), 0, digits)
    trail = np.where(np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1], 0, digits)
    return digits, lead, trail


@functools.cache
def _tables():
    """The piece table, and per e - _LOW: the two scaling factors, the fraction split and the last column."""
    full, lead, trail = _digits(4)
    full3, lead3, _ = _digits(3)
    low3 = [np.pad(d, ((0, 0), (0, 1)), constant_values=dot) for dot in (0, ord(".")) for d in (full3, lead3)]
    signs = ["\n" + "-" * neg + str(d or "") for d in range(100) for neg in (0, 1)] + ["\n0", "\n-0"]
    small = signs + ["e%+03d" % e for e in range(_LOW, _HIGH + 1)]
    small = np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in small), np.uint8)
    table = np.concatenate([np.concatenate([full, lead, trail, *low3]).ravel(), small]).view(np.uint32)

    power = np.array([float(10**k) for k in range(23)])  # exact
    e = np.arange(_LOW, _HIGH + 1)
    fixed = (e >= -4) & (e < 9)
    f = np.where(fixed, 8 - e, 8)  # fraction digits
    scale = (power[np.maximum(8 - e, 0)], power[np.maximum(e - 8, 0)])
    split = (power[f], power[12 - f])
    last = np.where(fixed, _TRAIL, _EXP + e - _LOW)  # e-notation has 8 fraction digits, so its last group is 0
    return table, scale, split, last


def format_9g(values):
    """``"".join("%.9g\\n" % v for v in values)`` for a 1-d float array, built with numpy."""
    x = np.asarray(values, dtype=np.float64)
    if not x.size:
        return ""
    table, scale, split, last = _tables()
    a = np.abs(x)
    python = ~((a >= 1e-14) & (a < 1e31))  # zeros, nan and inf too
    a[python] = 1.0
    i = np.clip(np.floor(np.log10(a)) - _LOW, 0, _HIGH - _LOW).astype(np.intp)  # e - _LOW
    scaled = a * scale[0][i] / scale[1][i]  # |x| * 10**(8 - e): one of the two factors is 1, so one rounding
    m = np.rint(scaled)
    # near a power of ten log10 may miss e, and rounding may carry m to 10**9: Python writes those rows
    python |= (m < 1e8) | (m >= 1e9) | (np.abs(scaled - m) > _TIE)

    unit = split[0][i]
    whole = np.floor(m / unit)
    frac = (m - whole * unit) * split[1][i]  # the fraction digits, as 12
    f0 = np.floor(frac / 1e8)
    rest = (frac - f0 * 1e8).astype(np.int32)
    f1 = rest // 10_000
    f2 = rest - f1 * 10_000
    whole = whole.astype(np.int32)
    top = whole // 10_000_000
    hi = whole // 1000 - top * 10_000
    lo = whole - whole // 1000 * 1000

    # each row starts with its newline: the first is dropped, and one ends the text
    rows = bytearray(4 * _COLUMNS * len(x))
    pieces = np.frombuffer(rows, dtype=np.uint32).reshape(-1, _COLUMNS)

    def put(column, index):
        np.take(table, index.astype(np.intp), out=pieces[:, column], mode="clip")

    put(0, _SIGN + np.signbit(x) + 2 * top + 200 * (whole == 0))
    put(1, hi + _LEAD * (top == 0))
    put(2, _LOW3 + lo + 1000 * (whole < 1000) + 2000 * (frac > 0))
    put(3, f0 + _TRAIL * (rest == 0))
    put(4, f1 + _TRAIL * (f2 == 0))
    put(5, last[i] + f2)
    if python.any():
        text = b"".join(("\n%.9g" % v).encode().ljust(4 * _COLUMNS, b"\0") for v in x[python].tolist())
        pieces[python] = np.frombuffer(text, dtype=np.uint32).reshape(-1, _COLUMNS)
    rows = rows.translate(None, b"\0")
    del rows[:1]
    rows += b"\n"
    return rows.decode("ascii")
