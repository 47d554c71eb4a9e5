import threading

import pytest

np = pytest.importorskip("numpy")

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
