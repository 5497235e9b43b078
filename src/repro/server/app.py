"""The HTTP front-end: stdlib ``http.server`` transport.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, no third-party dependencies.  Routing, request execution and
the wire bytes all live in the transport-agnostic
:class:`~repro.server.core.ServiceCore`: this module only parses HTTP
exchanges and writes the bytes the core hands back.  ``janus serve
--workers N`` (:mod:`repro.server.multiproc`) forks N of these servers
over one inherited listening socket.  The routes (details and curl
examples in ``docs/server.md``):

==========================  =============================================
``POST /v1/synthesize``     one ``synthesis_request`` -> the
                            ``synthesis_response`` wire form, byte for
                            byte what ``janus synth --json`` prints
``POST /v1/batch``          a ``batch_request`` -> ``batch_response``
``GET /v1/backends``        registered backend names
``GET /v1/cache/stats``     merged engine counters + disk cache summary
``GET /healthz``            liveness + version + uptime
==========================  =============================================

Per-request knobs ride on the query string: ``?backend=`` overrides the
request's backend field (resolved against the registry — unknown names
404), ``?timeout=`` imposes a wall-clock budget (overrun -> 408), and
``?stream=1`` turns a synthesize/batch into a chunked NDJSON response
of progress events followed by the final payload, the one way to watch
a run.  Any other query parameter is a 400.
"""

from __future__ import annotations

import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.errors import ValidationError
from repro.server.core import (
    MAX_BODY_BYTES,
    ServiceCore,
    WireResponse,
    WireStream,
)

__all__ = ["SynthesisServer", "make_server"]


class _Handler(BaseHTTPRequestHandler):
    """Parse one HTTP exchange and write what the core returns."""

    protocol_version = "HTTP/1.1"
    # Responses go out as header + body writes; with Nagle on, the
    # second write of a keep-alive exchange can sit behind the peer's
    # delayed ACK for ~40ms — dwarfing the actual request cost.
    disable_nagle_algorithm = True
    server: "SynthesisServer"

    # ------------------------------------------------------------- plumbing
    def log_message(self, fmt: str, *args) -> None:
        if self.server.verbose:
            super().log_message(fmt, *args)

    def _send_json(self, status: int, body: bytes, content_type: str) -> None:
        """Write one finished body with Content-Length framing."""
        self._settle_request_body()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_stream(self, stream: WireStream) -> None:
        """Write a lazy NDJSON stream with chunked framing.

        Each line the core yields becomes one chunk (line + newline);
        the terminating zero-length chunk closes the stream.  A client
        that disconnects mid-stream just stops the writes — the helper
        thread driving the synthesis finishes on its own and the session
        rejoins the pool regardless.
        """
        self._settle_request_body()
        self.send_response(stream.status)
        self.send_header("Content-Type", stream.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for line in stream.lines:
                payload = line + b"\n"
                self.wfile.write(b"%x\r\n%s\r\n" % (len(payload), payload))
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _write(self, result: "WireResponse | WireStream") -> None:
        if isinstance(result, WireStream):
            self._send_stream(result)
        else:
            self._send_json(result.status, result.body, result.content_type)

    def _settle_request_body(self) -> None:
        """Leave the connection at a request boundary before responding.

        A POST rejected before its body was read (bad header, PUT with a
        payload) would otherwise desync HTTP/1.1 keep-alive: the next
        request would be parsed out of the middle of the stale body.
        Reasonable bodies are drained and discarded; unreasonable or
        unparseable lengths close the connection instead.
        """
        if getattr(self, "_body_consumed", True) is True:
            return
        self._body_consumed = True
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES:
            while length > 0:
                chunk = self.rfile.read(min(length, 65536))
                if not chunk:
                    break
                length -= len(chunk)
        else:
            self.close_connection = True

    def _send_error_wire(self, exc: BaseException) -> None:
        response = self.server.core.error_response(exc)
        self._send_json(response.status, response.body, response.content_type)

    def _read_body(self) -> bytes:
        self._body_consumed = True
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            self.close_connection = True  # cannot find the next request
            raise ValidationError(f"malformed Content-Length: {raw!r}")
        if length < 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ValidationError(
                f"Content-Length {length} outside 0..{MAX_BODY_BYTES}"
            )
        return self.rfile.read(length)

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._write(self.server.core.handle("GET", self.path))

    def do_POST(self) -> None:  # noqa: N802
        self._body_consumed = not self.headers.get("Content-Length")
        try:
            body = self._read_body()
        except ValidationError as exc:
            return self._send_error_wire(exc)
        self._write(self.server.core.handle("POST", self.path, body))

    def do_PUT(self) -> None:  # noqa: N802
        self._body_consumed = not self.headers.get("Content-Length")
        self._write(self.server.core.handle("PUT", self.path))

    do_DELETE = do_PUT


class SynthesisServer(ThreadingHTTPServer):
    """The ``janus serve`` HTTP service.

    Construction binds the socket (or adopts ``sock``, an already
    listening socket inherited from a :mod:`repro.server.multiproc`
    parent); call :meth:`serve_forever` (or run it on a thread, as the
    tests and benchmarks do) to start answering.  ``cache`` is the
    shared on-disk result cache every pooled session uses; when omitted
    the server owns a private temporary directory for its lifetime, so
    warm repeats hit the suite cache out of the box.
    """

    daemon_threads = True
    # The stdlib default listen backlog of 5 overflows the moment ~16
    # clients connect at once: dropped SYNs come back 1s later (the
    # kernel's retransmit) or as resets.
    request_queue_size = 128

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        pool: int = 2,
        cache: Optional[str] = None,
        verbose: bool = False,
        sock: Optional[socket.socket] = None,
    ) -> None:
        self.verbose = verbose
        self.core = ServiceCore(
            jobs=jobs,
            pool=pool,
            cache=cache,
            verbose=verbose,
        )
        self.started = time.monotonic()
        self.connections_accepted = 0
        self._closed = False
        self._serving = False
        self._open_connections: set = set()
        self._conn_lock = threading.Lock()
        try:
            super().__init__(
                (host, port), _Handler, bind_and_activate=sock is None
            )
        except OSError:
            # Bind failures (port in use, bad address) must not leak the
            # resources built above — especially the owned temp dir.
            self.core.close()
            raise
        if sock is not None:
            self.socket.close()  # the unbound one the base class made
            self.socket = sock
            self.server_address = sock.getsockname()

    # -------------------------------------------------------------- queries
    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    @property
    def cache_dir(self) -> str:
        return self.core.cache_dir

    # ------------------------------------------------------------ lifecycle
    def process_request(self, request, client_address) -> None:
        # One accepted TCP connection per call, counted on the single
        # accept-loop thread (keep-alive requests reuse one connection —
        # the client keep-alive regression test reads this).
        self.connections_accepted += 1
        # A non-blocking shared listening socket may hand out non-blocking
        # connections (BSD inherits the flag); the handlers need blocking.
        request.setblocking(True)
        with self._conn_lock:
            self._open_connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._conn_lock:
            self._open_connections.discard(request)
        super().shutdown_request(request)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        super().serve_forever(poll_interval)

    def close(self) -> None:
        """Stop serving and release every owned resource (idempotent).

        Safe on a server that was built but never served: stdlib
        ``shutdown()`` blocks on an event only ``serve_forever`` sets,
        so it is skipped unless serving actually started.
        """
        if self._closed:
            return
        self._closed = True
        if self._serving:
            self.shutdown()
        self.server_close()
        # Open keep-alive connections have handler threads parked on
        # readline(); shut the sockets so they see EOF and exit.
        with self._conn_lock:
            lingering = list(self._open_connections)
        for request in lingering:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone
        self.core.close()

    def serve_background(self) -> threading.Thread:
        """Start :meth:`serve_forever` on a daemon thread (tests/bench)."""
        # Marked serving before the thread runs: a close() racing the
        # thread start must call shutdown() (it unblocks the loop even
        # if requested first), not skip it.
        self._serving = True
        thread = threading.Thread(
            target=self.serve_forever, name="janus-serve", daemon=True
        )
        thread.start()
        return thread

    def __enter__(self) -> "SynthesisServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    pool: int = 2,
    cache: Optional[str] = None,
    verbose: bool = False,
) -> SynthesisServer:
    """Build (and bind) a synthesis server; ``port=0`` picks a free
    ephemeral port — read it back from ``server.address``."""
    return SynthesisServer(
        host=host,
        port=port,
        jobs=jobs,
        pool=pool,
        cache=cache,
        verbose=verbose,
    )
