import math
import threading

import pytest

np = pytest.importorskip("numpy")

from conftest import gamma_ks_statistic
from uwacap import sampling


def fill(rng, out):
    rng.standard_normal(out=out)


def test_one_thread_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    want = sampling.chunked_draw(fill, 3, 1001, chunks=8, threads=2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert np.array_equal(sampling.chunked_draw(fill, 3, 1001, chunks=8, threads=1), want)
    with pytest.raises(AssertionError, match="a thread was started"):  # two threads start a pool, so the patch bites
        sampling.chunked_draw(fill, 3, 1001, chunks=8, threads=2)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_chunks_error_propagates_unchanged(threads):
    error = ValueError("the first chunk failed")

    def draw(rng, out):
        if len(out) == 11:  # 81 draws in 8 chunks: only the first chunk draws 11
            raise error
        fill(rng, out)

    with pytest.raises(ValueError) as raised:
        sampling.chunked_draw(draw, 0, 81, chunks=8, threads=threads)
    assert raised.value is error


@pytest.mark.parametrize("shape", [0.05, 0.3, 0.5, 0.99])
def test_boosted_gamma_passes_ks(shape):
    # Gamma(shape + 1) * U**(1/shape) against the Gamma(shape) CDF, at the 1% level
    pytest.importorskip("mpmath")
    n = 10_000
    g = sampling.standard_gamma(sampling.chunk_rng(17, 0), shape, np.empty(n))
    assert gamma_ks_statistic(g, shape) < 1.6276 / math.sqrt(n)


def test_boosted_gamma_has_no_zeros_at_the_refusal_edge():
    # Gamma(0.05) is below 2**-1075 with probability 2**-53.75 / Gamma(1.05)
    assert np.all(sampling.standard_gamma(sampling.chunk_rng(4, 0), 0.05, np.empty(100_000)) > 0.0)


@pytest.mark.parametrize("shape", [1.0, 2.5])
def test_gamma_from_shape_1_is_numpys_bit_for_bit(shape):
    g = sampling.standard_gamma(sampling.chunk_rng(8, 0), shape, np.empty(10_001))
    assert np.array_equal(g.view(np.int64), sampling.chunk_rng(8, 0).standard_gamma(shape, 10_001).view(np.int64))
