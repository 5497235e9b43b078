"""Multi-process sharding: N forked workers, one port, one cache.

``janus serve --workers N`` forks N worker processes, each running its
own :class:`~repro.server.app.SynthesisServer` (its own accept loop
and session pool) over **one listening port** and **one shared on-disk
result cache**:

* **Socket sharing** — the parent binds a single listening socket
  before forking and every worker accepts from the inherited descriptor
  (the classic pre-fork model, which works wherever ``fork`` does).  The
  socket is non-blocking: every worker's accept loop wakes on a new
  connection, one wins the ``accept()``, and the others go back to
  waiting instead of blocking inside it.
* **Cache sharing** — all workers point at one cache directory.  The
  cache's concurrent-writer protocol (temp file + atomic ``os.replace``,
  see :mod:`repro.engine.cache`) makes cross-process writes safe: a
  result computed by any worker warms every other, and
  ``tests/engine/test_cache_concurrent.py`` stresses exactly this.
* **No cross-request state** — every request, streamed or not, is
  answered on the connection that sent it, so any worker can serve any
  request.  ``GET /v1/cache/stats`` reports the serving worker's engine
  counters over the shared disk summary.

Workers are forked (``multiprocessing`` fork context), so this module is
POSIX-only; :func:`multiprocess_supported` reports availability and the
CLI falls back to a single process elsewhere.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import shutil
import signal
import socket
import tempfile
import time
from typing import Optional

from repro.server.app import SynthesisServer

__all__ = ["MultiProcessServer", "multiprocess_supported"]

_READY_TIMEOUT = 60.0


def multiprocess_supported() -> bool:
    """Whether this platform can run the forked multi-worker mode."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(
    ready: "multiprocessing.Queue", sock: socket.socket, kwargs: dict
) -> None:
    """Entry point of one forked worker: serve until SIGTERM."""
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server = SynthesisServer(sock=sock, **kwargs)
    # janalyze: allow-broad-except worker startup — the failure must
    # reach the parent through the ready queue, not die silently
    except Exception as exc:
        ready.put(("error", os.getpid(), f"{type(exc).__name__}: {exc}"))
        return
    ready.put(("ready", os.getpid(), None))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()


class MultiProcessServer:
    """N forked workers behind one address and one cache.

    Construction binds the shared listening socket (so ``port=0`` works
    and :attr:`address` is valid immediately) but does not fork;
    :meth:`start` launches the workers and returns once every one is
    accepting.  :meth:`close` terminates them and releases everything
    owned — including the temp cache dir when ``cache`` was omitted.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        jobs: int = 1,
        pool: int = 2,
        cache: Optional[str] = None,
        verbose: bool = False,
    ) -> None:
        if not multiprocess_supported():
            raise RuntimeError(
                "multi-process serving needs the fork start method "
                "(POSIX); run a single worker instead"
            )
        self.workers = max(1, int(workers))
        self.host = host
        # One shared cache directory for every worker; when the caller
        # gave none the parent owns a temp dir for the server's lifetime.
        self._owned_cache = cache is None
        self.cache_dir = (
            tempfile.mkdtemp(prefix="janus-serve-mp-")
            if cache is None
            else cache
        )
        # Bind now so port=0 resolves and bind errors fail construction.
        try:
            self._sock = socket.create_server((host, port), backlog=128)
        except OSError:
            if self._owned_cache:
                shutil.rmtree(self.cache_dir, ignore_errors=True)
            raise
        # Shared by every worker after the fork; see the module docstring.
        self._sock.setblocking(False)
        self.port = self._sock.getsockname()[1]
        self._worker_kwargs = dict(
            jobs=jobs,
            pool=pool,
            cache=self.cache_dir,
            verbose=verbose,
        )
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list = []
        self._closed = False

    # -------------------------------------------------------------- queries
    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def alive(self) -> int:
        """Number of workers currently running."""
        return sum(1 for p in self._procs if p.is_alive())

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "MultiProcessServer":
        """Fork the workers; returns once every one is accepting."""
        if self._procs:
            return self
        ready: "multiprocessing.Queue" = self._ctx.Queue()
        for _ in range(self.workers):
            proc = self._ctx.Process(
                target=_worker_main,
                args=(ready, self._sock, self._worker_kwargs),
                name="janus-serve-worker",
                daemon=False,
            )
            proc.start()
            self._procs.append(proc)
        deadline = time.monotonic() + _READY_TIMEOUT
        confirmed = 0
        while confirmed < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise RuntimeError(
                    f"only {confirmed}/{self.workers} workers came up "
                    f"within {_READY_TIMEOUT:g}s"
                )
            try:
                state, pid, detail = ready.get(timeout=min(remaining, 1.0))
            except queue.Empty:
                continue  # no worker reported yet — retry until deadline
            if state == "error":
                self.close()
                raise RuntimeError(f"worker {pid} failed to start: {detail}")
            confirmed += 1
        return self

    def serve_forever(self) -> None:
        """Start the workers and block until they exit (CLI mode)."""
        self.start()
        try:
            for proc in self._procs:
                proc.join()
        finally:
            self.close()

    def close(self) -> None:
        """Terminate every worker and release owned resources."""
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM -> worker closes its server
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        try:
            self._sock.close()
        except OSError:
            pass
        if self._owned_cache:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def __enter__(self) -> "MultiProcessServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MultiProcessServer({self.host!r}, {self.port}, "
            f"workers={self.workers}, alive={self.alive()})"
        )
