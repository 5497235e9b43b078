"""``repro.client`` — a stdlib HTTP client for the ``janus serve`` API.

:class:`ServiceClient` wraps ``http.client`` (no third-party
dependencies, matching the server) and speaks the same
:mod:`repro.api.schema` dataclasses as every other frontend: requests go
out as their canonical JSON, responses come back re-validated through
``from_json``, so a round-trip through the service is type-checked at
both ends::

    from repro.client import ServiceClient

    client = ServiceClient("127.0.0.1", 8080)
    response = client.synthesize("ab + a'b'c")      # SynthesisResponse
    print(response.shape, response.size)

    job_id = client.submit_batch([...])             # async batch
    for page in client.iter_events(job_id):         # long-poll pages
        print(page["events"])
    batch = client.wait_batch(job_id)               # BatchResponse

Error responses (the server's structured ``error`` envelope) raise
:class:`ServerError` carrying the HTTP status and the decoded payload.
Raw-byte accessors (:meth:`request_raw`) are exposed for tests that
assert exact wire bytes.

The client keeps one HTTP/1.1 connection alive **per thread** and
reuses it across calls (a fresh socket per request used to triple the
cost of warm cache hits); a socket the server has since closed is
detected on the next use and replaced with one transparent retry.  Pass
``keep_alive=False`` to restore the old connection-per-call behaviour,
and use the client as a context manager (or call :meth:`close`) to drop
the calling thread's socket eagerly.
"""

from __future__ import annotations

import json
import socket
import threading
from http.client import (
    BadStatusLine,
    HTTPConnection,
    HTTPResponse,
    RemoteDisconnected,
)
from typing import Iterator, Optional, Union
from urllib.parse import urlencode

from repro.api.schema import (
    BatchRequest,
    BatchResponse,
    SynthesisRequest,
    SynthesisResponse,
)
from repro.api.session import TargetLike
from repro.errors import ApiError

__all__ = ["ServiceClient", "ServerError"]


class ServerError(ApiError):
    """An error envelope returned by the service.

    ``status`` is the HTTP status code; ``payload`` the decoded error
    wire form (``kind == "error"``), when the body was JSON at all.
    """

    def __init__(self, status: int, payload: Optional[dict]) -> None:
        message = (payload or {}).get("error") or f"HTTP {status}"
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.payload = payload or {}


#: Exceptions that mean "the reused socket went stale under us" — the
#: server (or a proxy) closed a kept-alive connection between requests.
#: Safe to retry once on a fresh socket: the failure happened before any
#: response bytes arrived, so the server never started an answer.
_STALE_ERRORS = (
    RemoteDisconnected,
    BadStatusLine,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class _NoDelayConnection(HTTPConnection):
    """HTTPConnection with Nagle off.

    A request goes out as separate header and body writes; with Nagle
    on, the body write of a kept-alive exchange can stall ~40ms behind
    the server's delayed ACK.  (The server's handler already disables
    Nagle on its side.)
    """

    def connect(self) -> None:
        super().connect()
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP or exotic stack: latency, not correctness


class ServiceClient:
    """A thin keep-alive client for one server address.

    Thread-safe: each thread gets its own persistent connection, so
    concurrent callers never interleave on one socket.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 120.0,
        keep_alive: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.keep_alive = keep_alive
        self._local = threading.local()

    # ------------------------------------------------------------ transport
    def _checkout(self) -> tuple[HTTPConnection, bool]:
        """This thread's connection; ``(conn, reused)``."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn, True
        conn = _NoDelayConnection(
            self.host, self.port, timeout=self.timeout
        )
        if self.keep_alive:
            self._local.conn = conn
        return conn, False

    def _discard(self, conn: HTTPConnection) -> None:
        conn.close()
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None

    def _settle(self, conn: HTTPConnection, response: HTTPResponse) -> None:
        """Called with the response fully read: keep or drop the socket."""
        if not self.keep_alive or response.will_close:
            self._discard(conn)

    def _exchange(
        self, method: str, path: str, body: Optional[bytes]
    ) -> tuple[HTTPConnection, HTTPResponse]:
        """Issue one request, transparently replacing a stale socket."""
        headers = {"Content-Type": "application/json"} if body else {}
        conn, reused = self._checkout()
        try:
            conn.request(method, path, body=body, headers=headers)
            return conn, conn.getresponse()
        except _STALE_ERRORS:
            self._discard(conn)
            if not reused:
                raise  # a fresh socket failing is a real error
        except OSError:
            self._discard(conn)
            raise
        # One retry on a fresh socket (the kept-alive one had gone stale).
        conn, _ = self._checkout()
        try:
            conn.request(method, path, body=body, headers=headers)
            return conn, conn.getresponse()
        except (OSError, BadStatusLine):
            self._discard(conn)
            raise

    def request_raw(
        self,
        method: str,
        path: str,
        body: Union[str, bytes, None] = None,
        params: Optional[dict] = None,
    ) -> tuple[int, bytes]:
        """One HTTP exchange; returns ``(status, body bytes)`` verbatim."""
        if params:
            path = f"{path}?{urlencode(params)}"
        if isinstance(body, str):
            body = body.encode("utf-8")
        conn, response = self._exchange(method, path, body)
        try:
            raw = response.read()
        except OSError:
            self._discard(conn)
            raise
        self._settle(conn, response)
        return response.status, raw

    def request_stream(
        self,
        method: str,
        path: str,
        body: Union[str, bytes, None] = None,
        params: Optional[dict] = None,
    ) -> Iterator[bytes]:
        """One exchange whose response body is yielded line by line.

        For the server's ``?stream=1`` NDJSON responses (``http.client``
        undoes the chunked framing).  An error status raises
        :class:`ServerError` before anything is yielded.  The socket is
        reusable only when the stream is fully consumed; abandoning the
        iterator early drops it.
        """
        if params:
            path = f"{path}?{urlencode(params)}"
        if isinstance(body, str):
            body = body.encode("utf-8")
        conn, response = self._exchange(method, path, body)
        if response.status >= 400:
            try:
                raw = response.read()
            except OSError:
                self._discard(conn)
                raise
            self._settle(conn, response)
            self._raise_for_status(response.status, raw)
        done = False
        try:
            while True:
                line = response.readline()
                if not line:
                    break
                yield line.rstrip(b"\n")
            done = True
        finally:
            if done:
                self._settle(conn, response)
            else:  # abandoned or failed mid-stream: socket is desynced
                self._discard(conn)

    def close(self) -> None:
        """Drop the calling thread's kept-alive connection, if any."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._discard(conn)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _raise_for_status(status: int, raw: bytes) -> None:
        if status < 400:
            return
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            payload = None
        raise ServerError(status, payload)

    def _json(
        self,
        method: str,
        path: str,
        body: Union[str, bytes, None] = None,
        params: Optional[dict] = None,
    ) -> dict:
        status, raw = self.request_raw(method, path, body, params)
        self._raise_for_status(status, raw)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            payload = None
        if not isinstance(payload, dict):
            raise ServerError(status, {"error": "non-JSON response body"})
        return payload

    @staticmethod
    def _knobs(backend: Optional[str], timeout: Optional[float]) -> dict:
        params = {}
        if backend is not None:
            params["backend"] = backend
        if timeout is not None:
            params["timeout"] = timeout
        return params

    # ------------------------------------------------------------ endpoints
    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def backends(self) -> list[str]:
        return self._json("GET", "/v1/backends")["backends"]

    def cache_stats(self) -> dict:
        return self._json("GET", "/v1/cache/stats")

    def synthesize(
        self,
        target: Union[SynthesisRequest, TargetLike],
        name: str = "f",
        backend: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> SynthesisResponse:
        """POST one synthesis job; returns the decoded response.

        ``target`` may be a prepared :class:`SynthesisRequest` or any raw
        target form the schema accepts.  ``backend``/``timeout`` become
        the server's per-request query knobs.
        """
        if not isinstance(target, SynthesisRequest):
            target = SynthesisRequest.from_target(target, name=name)
        status, raw = self.request_raw(
            "POST",
            "/v1/synthesize",
            target.to_json(),
            self._knobs(backend, timeout) or None,
        )
        self._raise_for_status(status, raw)
        return SynthesisResponse.from_json(raw.decode("utf-8"))

    def stream_synthesize(
        self,
        target: Union[SynthesisRequest, TargetLike],
        name: str = "f",
        backend: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """POST one synthesis with ``?stream=1``: yield its progress
        events as wire dicts (each carries an ``event`` tag) while it
        runs, ending with the final ``synthesis_response`` wire dict.  A
        failure mid-run arrives as a trailing error envelope, raised as
        :class:`ServerError` (the transfer itself stays HTTP 200 — the
        status line is sent before the outcome is known).
        """
        if not isinstance(target, SynthesisRequest):
            target = SynthesisRequest.from_target(target, name=name)
        params = self._knobs(backend, timeout)
        params["stream"] = 1
        for line in self.request_stream(
            "POST", "/v1/synthesize", target.to_json(), params
        ):
            payload = json.loads(line)
            if payload.get("kind") == "error":
                raise ServerError(payload.get("status", 500), payload)
            yield payload

    def run_batch(
        self,
        batch: Union[BatchRequest, list],
        timeout: Optional[float] = None,
    ) -> BatchResponse:
        """POST a synchronous batch; returns the decoded batch response."""
        batch = self._coerce_batch(batch)
        status, raw = self.request_raw(
            "POST",
            "/v1/batch",
            batch.to_json(),
            {"timeout": timeout} if timeout is not None else None,
        )
        self._raise_for_status(status, raw)
        return BatchResponse.from_json(raw.decode("utf-8"))

    # ------------------------------------------------------------ async jobs
    def submit_batch(self, batch: Union[BatchRequest, list]) -> str:
        """POST an async batch; returns its job id immediately."""
        batch = self._coerce_batch(batch)
        payload = self._json(
            "POST", "/v1/batch", batch.to_json(), {"mode": "async"}
        )
        return payload["job_id"]

    def job(self, job_id: str) -> dict:
        """The job status envelope (``kind == "job"``)."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def events(
        self, job_id: str, cursor: int = 0, timeout: Optional[float] = None
    ) -> dict:
        """One long-poll page of a job's event stream."""
        params: dict = {"cursor": cursor}
        if timeout is not None:
            params["timeout"] = timeout
        return self._json("GET", f"/v1/events/{job_id}", params=params)

    def iter_events(
        self, job_id: str, poll_timeout: float = 10.0
    ) -> Iterator[dict]:
        """Yield event pages until the job reports itself done."""
        cursor = 0
        while True:
            page = self.events(job_id, cursor=cursor, timeout=poll_timeout)
            if page["events"]:
                yield page
            cursor = page["cursor"]
            if page["done"]:
                return

    def wait_batch(
        self, job_id: str, poll_timeout: float = 10.0
    ) -> BatchResponse:
        """Block (via the event long-poll) until a job finishes, then
        return its decoded batch response.  A failed job raises
        :class:`ServerError` with the job's recorded error envelope."""
        for _ in self.iter_events(job_id, poll_timeout=poll_timeout):
            pass
        envelope = self.job(job_id)
        if envelope["status"] == "error" or envelope["response"] is None:
            error = envelope.get("error") or {}
            raise ServerError(error.get("status", 500), error)
        wire = dict(envelope["response"])
        return BatchResponse.from_wire(wire)

    @staticmethod
    def _coerce_batch(batch: Union[BatchRequest, list]) -> BatchRequest:
        if isinstance(batch, BatchRequest):
            return batch
        return BatchRequest(
            requests=tuple(
                r
                if isinstance(r, SynthesisRequest)
                else SynthesisRequest.from_target(r)
                for r in batch
            )
        )

    def __repr__(self) -> str:
        return f"ServiceClient({self.host!r}, {self.port})"
