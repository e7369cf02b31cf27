"""The shared thread pool and the reference-counted BLAS pin."""

import sys
import threading

import pytest

from pbrseg import parallel


class _FakeBlas:
    """Stands in for the OpenBLAS thread-count calls."""

    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, n):
        self.threads = n


@pytest.fixture
def blas(monkeypatch):
    fake = _FakeBlas(3)
    monkeypatch.setattr(parallel, "_openblas", lambda: (fake.get, fake.set))
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    return fake


def test_section_pins_then_restores(blas):
    with parallel.pinned_blas():
        assert blas.threads == 1
        assert parallel.blas_threads() == 3
    assert blas.threads == 3
    assert parallel.blas_threads() == 3


def test_restored_after_a_job_raises(blas):
    seen = []

    def job(i):
        seen.append(blas.threads)
        if i == 1:
            raise ValueError("job 1")
        return i

    with pytest.raises(ValueError, match="job 1"):
        parallel.run(job, range(4))
    assert seen and set(seen) == {1}
    assert blas.threads == 3


def test_overlapping_sections_on_two_threads(blas):
    a_inside, b_inside, a_left = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with parallel.pinned_blas():
            a_inside.set()
            b_inside.wait(10)
        a_left.set()

    def second():
        a_inside.wait(10)
        with parallel.pinned_blas():
            b_inside.set()
            a_left.wait(10)
            seen["after_first_left"] = blas.threads

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert seen["after_first_left"] == 1
    assert blas.threads == 3


def test_many_overlapping_sections(blas):
    """More threads than cores entering and leaving at once: every section
    sees one BLAS thread, and the pool size comes back."""
    errors = []

    def churn():
        for _ in range(200):
            with parallel.pinned_blas():
                if blas.threads != 1:
                    errors.append(blas.threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert blas.threads == 3


def test_run_keeps_job_order_and_does_not_nest(blas):
    def inner(_):
        return threading.get_ident()

    def outer(i):
        return i, threading.get_ident(), parallel.run(inner, range(3))

    results = parallel.run(outer, range(4))
    assert [r[0] for r in results] == [0, 1, 2, 3]
    for _, ident, inner_idents in results:
        assert inner_idents == [ident] * 3  # a job's own jobs stay on its thread
    assert blas.threads == 3


def test_serial_where_blas_cannot_be_pinned(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    assert parallel.threads() == 1
    assert parallel.blas_threads() is None
    assert parallel.run(lambda _: threading.get_ident(), range(3)) == [threading.get_ident()] * 3


def test_real_blas_pin():
    blas = parallel._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread calls are not available")
    before = blas[0]()
    with parallel.pinned_blas():
        assert blas[0]() == 1
        assert parallel.blas_threads() == before
    assert blas[0]() == before
