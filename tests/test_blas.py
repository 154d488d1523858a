import sys
import threading

import pytest

from kronmode import blas
from kronmode.errors import ConfigurationError


def _all_at(threads):
    return {pool: threads for pool in ("numpy", "scipy")}


def test_both_bundled_pools_are_found():
    # If a numpy or scipy wheel renames its OpenBLAS or the thread symbols,
    # the controller would silently stop controlling that pool.
    assert set(blas.thread_counts()) == {"numpy", "scipy"}
    assert blas.max_threads() >= 1


def test_limit_restores_after_normal_exit():
    with blas.limit(2):
        with blas.limit(1):
            assert blas.thread_counts() == _all_at(1)
        assert blas.thread_counts() == _all_at(2)


def test_limit_restores_after_exception():
    with blas.limit(2):
        with pytest.raises(RuntimeError):
            with blas.limit(1):
                raise RuntimeError("boom")
        assert blas.thread_counts() == _all_at(2)


def test_nested_scopes_restore_in_turn():
    with blas.limit(2):
        with blas.limit(1):
            with blas.limit(2):
                assert blas.thread_counts() == _all_at(2)
            assert blas.thread_counts() == _all_at(1)
        assert blas.thread_counts() == _all_at(2)


def test_interleaved_scopes_in_two_threads_restore_the_earlier_counts():
    # A opens, B opens, A closes, B closes: restoring each scope's own saved
    # counts would leave the pools at A's count.
    before = blas.thread_counts()
    earlier = min(before.values())
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()

    def scope_a():
        with blas.limit(earlier + 1):
            a_open.set()
            b_open.wait(10)
        a_closed.set()

    def scope_b():
        a_open.wait(10)
        with blas.limit(earlier + 2):
            b_open.set()
            a_closed.wait(10)

    threads = [threading.Thread(target=scope_a), threading.Thread(target=scope_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(20)
    assert not any(thread.is_alive() for thread in threads)
    assert a_closed.is_set()
    assert blas.thread_counts() == before


def test_scopes_in_many_threads_restore_the_earlier_counts():
    before = blas.thread_counts()
    earlier = min(before.values())
    done = []

    def churn(threads):
        for _ in range(200):
            with blas.limit(threads):
                with blas.limit(1):
                    pass
        done.append(threads)

    workers = [threading.Thread(target=churn, args=(earlier + 1 + i % 2,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(done) == len(workers)
    assert blas.thread_counts() == before


@pytest.mark.parametrize("threads", [0, -3, 2.5, True, None],
                         ids=["0", "-3", "2.5", "True", "above-maximum"])
def test_limit_rejects_a_count_before_touching_either_pool(threads):
    threads = blas.max_threads() + 1 if threads is None else threads
    with blas.limit(2):
        with pytest.raises(ConfigurationError, match="threads"):
            with blas.limit(threads):
                pytest.fail("the body ran")
        assert blas.thread_counts() == _all_at(2)
