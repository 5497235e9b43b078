"""A bounded pool of warm :class:`~repro.api.Session` objects.

The HTTP service must amortize engine setup the same way a long-lived
``Session`` does for a Python caller: batch worker pools, the
in-memory LRU and the suite cache all live *inside* a session's engine,
so throwing a session away per request throws the warmth away with it.
:class:`SessionPool` keeps ``size`` sessions alive for the server's
lifetime and hands them out one request at a time:

* **Bounded concurrency** — at most ``size`` requests synthesize at
  once; further requests queue on the checkout (FIFO).  The HTTP layer
  therefore never needs its own admission control.
* **Exclusive checkout** — a session serves one request at a time, which
  is what makes the progress-event channel attributable: every event a
  checked-out session emits belongs to the request holding it.
* **Shared disk cache** — all sessions point at one cache directory, so
  a result computed through any session warms every other (the suite
  layer serves whole results; repeats do zero SAT calls regardless of
  which pool slot they land on).
* **Deadlines** — :meth:`run` can impose a wall-clock budget, counted
  from the call, so time queued for a session counts too: a request
  still queued at its deadline never runs.  A request that overruns
  raises :class:`~repro.errors.BudgetExceeded` (the HTTP layer maps it
  to 408); its session keeps working in the background and rejoins the
  pool only when the stale computation actually finishes, so an overrun
  can never corrupt a later request.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Any, Callable, Optional

from repro.api.session import Session
from repro.engine.parallel import EngineStats, resolve_jobs
from repro.errors import BudgetExceeded

__all__ = ["SessionPool"]


class SessionPool:
    """``size`` warm sessions behind a blocking FIFO checkout."""

    def __init__(
        self,
        size: int = 2,
        jobs: Optional[int] = 1,
        cache: Optional[str] = None,
    ) -> None:
        self.size = max(1, int(size))
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self._sessions: list[Session] = [
            self._make_session() for _ in range(self.size)
        ]
        self._idle: "queue.Queue[Session]" = queue.Queue()
        for session in self._sessions:
            self._idle.put(session)
        # Guards the closed flag against the release/close race: without
        # it a release racing close() could re-enqueue a session after
        # the drain and leak its worker pool.
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock

    def _make_session(self) -> Session:
        return Session(jobs=self.jobs, cache=self.cache)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut every session down.  Sessions still held by in-flight
        requests are closed by their release."""
        with self._lock:
            self._closed = True
            while True:
                try:
                    session = self._idle.get_nowait()
                except queue.Empty:
                    break
                session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- checkout
    def acquire(self, deadline: Optional[float] = None) -> Session:
        """Check out an idle session, waiting for one if need be.

        ``deadline`` (a ``time.monotonic()`` value) bounds the wait:
        past it, :class:`BudgetExceeded` is raised.
        """
        # Polling get instead of a bare blocking get: a request that
        # arrives while every session is checked out during shutdown
        # would otherwise wait on a queue nothing will ever refill
        # (release() closes sessions once the pool is closed).
        while True:
            with self._lock:
                closed = self._closed
            if closed:
                raise RuntimeError("session pool is closed")
            wait = 0.1
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    raise BudgetExceeded(
                        "request exceeded its wall-clock budget while "
                        "queued for a session"
                    )
            try:
                return self._idle.get(timeout=wait)
            except queue.Empty:
                continue

    def release(self, session: Session) -> None:
        with self._lock:
            if self._closed:
                session.close()
            else:
                self._idle.put(session)

    @property
    def busy(self) -> int:
        """Sessions currently checked out (approximate under races)."""
        return self.size - self._idle.qsize()

    # ------------------------------------------------------------- execution
    def run(
        self,
        fn: Callable[[Session], Any],
        timeout: Optional[float] = None,
    ) -> Any:
        """Run ``fn(session)`` on a checked-out session.

        Without a ``timeout`` the call runs on the caller's thread.  With
        one, it runs on a helper thread and the caller waits at most
        ``timeout`` seconds from this call, checkout included: on
        overrun, :class:`BudgetExceeded` is raised immediately while the
        helper keeps going — the session is released back to the pool by
        whichever side finishes the work.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        session = self.acquire(deadline)
        if timeout is None:
            try:
                return fn(session)
            finally:
                self.release(session)

        outcome: dict[str, Any] = {}
        done = threading.Event()

        def work() -> None:
            try:
                outcome["value"] = fn(session)
            # janalyze: allow-broad-except helper thread — the exception
            # is delivered to (and re-raised by) the waiting caller
            except BaseException as exc:
                outcome["error"] = exc
            finally:
                done.set()
                self.release(session)

        thread = threading.Thread(
            target=work, name="janus-serve-worker", daemon=True
        )
        thread.start()
        if not done.wait(max(0.0, deadline - time.monotonic())):
            raise BudgetExceeded(
                f"request exceeded its {timeout:g}s wall-clock budget"
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    # ----------------------------------------------------------------- stats
    def stats(self) -> EngineStats:
        """Merged :class:`EngineStats` across every pooled session —
        including ones currently checked out, so the served counters move
        while work is in flight."""
        total = EngineStats()
        for session in self._sessions:
            total.merge(dataclasses.asdict(session.stats))
        return total

    def __repr__(self) -> str:
        return (
            f"SessionPool(size={self.size}, jobs={self.jobs}, "
            f"cache={self.cache!r}, busy={self.busy})"
        )
