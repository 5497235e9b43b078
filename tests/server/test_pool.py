"""SessionPool unit tests (no HTTP involved)."""

import threading
import time

import pytest

from repro.api import RequestOptions
from repro.errors import BudgetExceeded
from repro.server import SessionPool


class TestSessionPool:
    def test_bounds_concurrency_to_pool_size(self):
        with SessionPool(size=1) as pool:
            order = []
            release = threading.Event()

            def slow(_session):
                order.append("first-start")
                release.wait(5)
                order.append("first-end")

            def fast(_session):
                order.append("second")

            t1 = threading.Thread(target=lambda: pool.run(slow))
            t1.start()
            while not order:  # first holds the only session
                time.sleep(0.001)
            t2 = threading.Thread(target=lambda: pool.run(fast))
            t2.start()
            time.sleep(0.05)
            assert order == ["first-start"]  # second is queued, not running
            assert pool.busy == 1
            release.set()
            t1.join(5)
            t2.join(5)
            assert order == ["first-start", "first-end", "second"]

    def test_timeout_raises_408_error_and_recovers_the_session(self):
        with SessionPool(size=1) as pool:
            finished = threading.Event()

            def slow(_session):
                time.sleep(0.2)
                finished.set()
                return "late"

            with pytest.raises(BudgetExceeded):
                pool.run(slow, timeout=0.01)
            # The overrun work completes in the background and its
            # session rejoins the pool: the next request is served.
            assert finished.wait(5)
            assert pool.run(lambda s: "next", timeout=5) == "next"

    def test_worker_exception_propagates(self):
        with SessionPool(size=1) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.run(lambda s: (_ for _ in ()).throw(ValueError("boom")))
            # And with a timeout path too.
            with pytest.raises(ValueError, match="boom"):
                pool.run(
                    lambda s: (_ for _ in ()).throw(ValueError("boom")),
                    timeout=5,
                )

    def test_stats_merge_across_sessions(self, tmp_path):
        options = RequestOptions(max_conflicts=20_000)
        with SessionPool(size=2, cache=str(tmp_path)) as pool:
            pool.run(lambda s: s.synthesize("ab + a'b'c", options=options))
            stats = pool.stats()
            assert stats.suite_misses == 1
            # Force the second session by holding the first.
            hold = threading.Event()
            t = threading.Thread(
                target=lambda: pool.run(lambda s: hold.wait(5))
            )
            t.start()
            while pool.busy != 1:
                time.sleep(0.001)
            pool.run(lambda s: s.synthesize("ab + a'b'c", options=options))
            hold.set()
            t.join(5)
            merged = pool.stats()
        # The repeat went through a *different* session but hit the
        # shared on-disk suite cache — and both sessions' counters land
        # in the merged stats.
        assert merged.suite_hits == 1
        assert merged.suite_misses == 1

    def test_closed_pool_keeps_served_totals(self, tmp_path):
        options = RequestOptions(max_conflicts=20_000)
        pool = SessionPool(size=2, cache=str(tmp_path))
        pool.run(lambda s: s.synthesize("ab + a'b'c", options=options))
        served = pool.stats()
        pool.close()
        assert served.suite_misses == 1
        assert pool.stats() == served

    def test_closed_pool_refuses_work(self):
        pool = SessionPool(size=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.acquire()

    def test_acquire_blocked_on_busy_pool_unblocks_when_closed(self):
        # A waiter stuck behind checked-out sessions must error out on
        # close(), not hang forever on a queue nothing will refill.
        pool = SessionPool(size=1)
        session = pool.acquire()  # pool now empty
        errors = []

        def waiter():
            try:
                pool.acquire()
            except RuntimeError as exc:
                errors.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        pool.close()
        t.join(5)
        assert not t.is_alive()
        assert errors
        pool.release(session)  # in-flight holder returns it post-close
