"""The transport-agnostic service core behind the HTTP front-end.

:class:`ServiceCore` keeps routing, request execution and the
byte-for-byte wire guarantee out of the transport: it owns the
:class:`~repro.server.pool.SessionPool`, the shared cache directory
and the whole route table, and reduces an HTTP exchange to::

    core.handle(method, target, body) -> WireResponse | WireStream

A :class:`WireResponse` is a status plus one finished JSON body (the
exact canonical bytes the front-end writes verbatim).  A
:class:`WireStream` is a status plus a lazy iterator of NDJSON lines:
the progress events of a request followed by its final response (or
error envelope), which the transport frames as one chunked HTTP
response.  Every exception becomes a structured error envelope here.

The transport (:mod:`repro.server.app`) keeps only what is genuinely
transport: the socket accept loop, HTTP parsing, keep-alive bookkeeping
and chunked framing.
"""

from __future__ import annotations

import json
import math
import queue
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional
from urllib.parse import parse_qs, urlsplit

from repro.api.backends import get_backend
from repro.api.schema import BatchRequest, SynthesisRequest
from repro.api.session import Session
from repro.engine.events import event_to_wire
from repro.errors import ValidationError
from repro.server.pool import SessionPool
from repro.server.protocol import (
    backends_wire,
    cache_stats_wire,
    error_wire,
    health_wire,
    status_for_exception,
)

__all__ = [
    "ServiceCore",
    "WireResponse",
    "WireStream",
    "MAX_BODY_BYTES",
]

#: Request-body ceiling.  The largest legitimate payload — a batch of
#: 24-variable truth-table targets — is well under this; anything bigger
#: is a mistake or abuse and is rejected before buffering.
MAX_BODY_BYTES = 16 * 1024 * 1024


def canonical_bytes(payload: dict) -> bytes:
    """The canonical JSON bytes of a wire dict (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


@dataclass
class WireResponse:
    """One finished response: status + exact body bytes to serve."""

    status: int
    body: bytes
    content_type: str = "application/json"


@dataclass
class WireStream:
    """A chunked NDJSON response: event lines, then the final payload.

    ``lines`` is lazy — nothing is computed until the transport starts
    iterating, and each yielded item is one complete canonical-JSON line
    (no trailing newline; the transport adds framing).  The final line
    is the ``synthesis_response`` / ``batch_response`` wire form, or an
    ``error`` envelope if the request failed mid-stream (the HTTP status
    is already on the wire by then, which is the standard trailing-error
    trade-off of streamed responses).
    """

    status: int
    lines: Iterator[bytes]
    content_type: str = "application/x-ndjson"


class _NotFound(ValidationError):
    """Route/resource miss."""

    http_status = 404


class _MethodNotAllowed(ValidationError):
    """Known route, wrong verb."""

    http_status = 405


@dataclass
class _ParsedRequest:
    """A routed request: path split from query, last-value-wins params."""

    route: str
    query: dict[str, str] = field(default_factory=dict)


def _parse_target(target: str) -> _ParsedRequest:
    split = urlsplit(target)
    raw = parse_qs(split.query)
    return _ParsedRequest(
        route=split.path.rstrip("/") or "/",
        query={k: v[-1] for k, v in raw.items()},
    )


# The query parameters each parameterized route accepts; any other name
# is a 400, so a typo (``?timout=``) never runs silently with defaults.
_PARAMS = frozenset({"backend", "timeout", "stream"})


def _check_params(query: dict, allowed: frozenset) -> None:
    unknown = sorted(set(query) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown query parameter(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _float_param(query: dict, key: str) -> Optional[float]:
    if key not in query:
        return None
    try:
        value = float(query[key])
    except ValueError:
        raise ValidationError(f"{key} must be a number, got {query[key]!r}")
    if not (0 < value < math.inf):  # also rejects nan
        raise ValidationError(
            f"{key} must be a positive finite number, got {query[key]!r}"
        )
    return value


def _stream_param(query: dict) -> bool:
    if "stream" not in query:
        return False
    value = query["stream"].lower()
    if value in ("1", "true", "events"):
        return True
    if value in ("0", "false"):
        return False
    raise ValidationError(
        f"stream must be one of 1/0/true/false/events, got {query['stream']!r}"
    )


def _decode_body(body: Optional[bytes]) -> str:
    if body is None:
        body = b""
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"request body is not UTF-8: {exc}")


class ServiceCore:
    """Routing + execution for the synthesis service, no transport.

    Construction builds every owned resource (session pool, cache
    directory when none is given); :meth:`close` releases them.
    The front-end (`repro.server.app`) holds exactly one core per
    server and forwards every parsed HTTP exchange to :meth:`handle`.
    """

    def __init__(
        self,
        jobs: int = 1,
        pool: int = 2,
        cache: Optional[str] = None,
        verbose: bool = False,
    ) -> None:
        self.verbose = verbose
        self._owned_cache = cache is None
        self.cache_dir = (
            tempfile.mkdtemp(prefix="janus-serve-") if cache is None else cache
        )
        self.pool = SessionPool(size=pool, jobs=jobs, cache=self.cache_dir)
        self.started = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release every owned resource (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.pool.close()
        if self._owned_cache:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def __enter__(self) -> "ServiceCore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- queries
    def registry_names(self) -> list[str]:
        from repro.api.backends import backend_names

        return backend_names()

    def health(self) -> dict:
        from repro import __version__

        return health_wire(__version__, time.monotonic() - self.started)

    def cache_stats(self) -> dict:
        from repro.engine.cache import ResultCache
        from repro.engine.gc import cache_stats
        from repro.errors import CacheError

        disk = None
        try:
            st = cache_stats(ResultCache(self.cache_dir))
            disk = {
                "entries": st.entries,
                "entry_bytes": st.entry_bytes,
                "temp_files": st.temp_files,
                "temp_bytes": st.temp_bytes,
            }
        except (CacheError, OSError):
            pass  # an unreadable cache dir degrades to engine stats only
        return cache_stats_wire(
            self.pool.stats(), disk, self.cache_dir, self.pool
        )

    # -------------------------------------------------------------- routing
    def handle(
        self,
        method: str,
        target: str,
        body: Optional[bytes] = None,
    ) -> "WireResponse | WireStream":
        """Serve one parsed HTTP exchange.

        ``target`` is the raw request target (path + query string);
        ``body`` the raw request bytes (``None`` for bodyless methods).
        Never raises: every failure is returned as an error-envelope
        :class:`WireResponse`, so failures are served as wire bytes too.
        """
        try:
            parsed = _parse_target(target)
            if method == "GET":
                return self._handle_get(parsed)
            if method == "POST":
                return self._handle_post(parsed, body)
            raise _MethodNotAllowed(f"method not allowed for {parsed.route}")
        # janalyze: allow-broad-except top-level route dispatcher — every
        # failure must become a structured error envelope (500 for bugs)
        except Exception as exc:
            return self.error_response(exc)

    def error_response(self, exc: BaseException) -> WireResponse:
        """The error envelope a failed exchange serves."""
        # Routing errors carry their own status; everything else maps
        # through the shared exception table in server.protocol.
        status = getattr(exc, "http_status", None) or status_for_exception(exc)
        return WireResponse(status, canonical_bytes(error_wire(status, exc)))

    def _handle_get(self, parsed: _ParsedRequest) -> WireResponse:
        route = parsed.route
        if route == "/healthz":
            return WireResponse(200, canonical_bytes(self.health()))
        if route == "/v1/backends":
            return WireResponse(
                200, canonical_bytes(backends_wire(self.registry_names()))
            )
        if route == "/v1/cache/stats":
            return WireResponse(200, canonical_bytes(self.cache_stats()))
        if route in ("/v1/synthesize", "/v1/batch"):
            raise _MethodNotAllowed(f"method not allowed for {route}")
        raise _NotFound(f"no such path: {route}")

    def _handle_post(
        self, parsed: _ParsedRequest, body: Optional[bytes]
    ) -> "WireResponse | WireStream":
        route = parsed.route
        if route == "/v1/synthesize":
            _check_params(parsed.query, _PARAMS)
            return self._post_synthesize(parsed.query, _decode_body(body))
        if route == "/v1/batch":
            _check_params(parsed.query, _PARAMS)
            return self._post_batch(parsed.query, _decode_body(body))
        if route in ("/healthz", "/v1/backends", "/v1/cache/stats"):
            raise _MethodNotAllowed(f"method not allowed for {route}")
        raise _NotFound(f"no such path: {route}")

    # ---------------------------------------------------------- POST bodies
    def _post_synthesize(
        self, query: dict, body: str
    ) -> "WireResponse | WireStream":
        request = SynthesisRequest.from_json(body)
        if "backend" in query:
            request = request.with_backend(query["backend"])
        get_backend(request.backend)  # unknown name: 404, before any stream
        timeout = _float_param(query, "timeout")
        if _stream_param(query):
            return WireStream(
                200,
                self._stream_run(
                    lambda tap: self.run_synthesize(request, timeout, tap=tap)
                ),
            )
        response = self.run_synthesize(request, timeout)
        return WireResponse(200, response.to_json().encode("utf-8"))

    def _post_batch(
        self, query: dict, body: str
    ) -> "WireResponse | WireStream":
        batch = BatchRequest.from_json(body)
        backend = query.get("backend")
        if backend is not None:
            get_backend(backend)  # unknown name: 404, before any run starts
            batch = BatchRequest(
                tuple(r.with_backend(backend) for r in batch.requests)
            )
        timeout = _float_param(query, "timeout")
        if _stream_param(query):
            for request in batch.requests:
                get_backend(request.backend)  # 404 before the stream starts
            return WireStream(
                200,
                self._stream_run(
                    lambda tap: self.run_batch(batch, timeout, tap=tap)
                ),
            )
        response = self.run_batch(batch, timeout)
        return WireResponse(200, response.to_json().encode("utf-8"))

    # ------------------------------------------------------ event streaming
    def _stream_run(
        self, run: Callable[[Callable], Any]
    ) -> Iterator[bytes]:
        """NDJSON lines for one streamed request.

        ``run(tap)`` executes the request through the pool on a helper
        thread with ``tap`` subscribed to the checked-out session for
        the duration of the work (exclusive checkout keeps the events
        attributable to this request); the generator drains
        what the tap collects.  Each event is yielded as one canonical
        line the moment it arrives; the final line is the finished
        response — or the error envelope the request would have been
        answered with.
        """
        lines: "queue.Queue[tuple[str, Any]]" = queue.Queue()

        def on_event(event) -> None:
            lines.put(("event", event_to_wire(event)))

        outcome: dict[str, Any] = {}

        def work() -> None:
            try:
                outcome["value"] = run(on_event)
            # janalyze: allow-broad-except stream helper thread — the
            # failure is serialized as the stream's final error line
            except BaseException as exc:
                outcome["error"] = exc
            finally:
                lines.put(("end", None))

        thread = threading.Thread(
            target=work, name="janus-serve-stream", daemon=True
        )
        thread.start()
        while True:
            kind, payload = lines.get()
            if kind == "end":
                break
            yield canonical_bytes(payload)
        error = outcome.get("error")
        if error is not None:
            yield self.error_response(error).body
        else:
            yield outcome["value"].to_json().encode("utf-8")

    # ------------------------------------------------------------ execution
    @staticmethod
    def _with_tap(
        fn: Callable[[Session], Any], tap: Optional[Callable]
    ) -> Callable[[Session], Any]:
        """Wrap a pool callable so a stream's event tap sees its events."""
        if tap is None:
            return fn

        def tapped(session: Session):
            session.subscribe(tap)
            try:
                return fn(session)
            finally:
                session.unsubscribe(tap)

        return tapped

    def run_synthesize(
        self,
        request: SynthesisRequest,
        timeout: Optional[float] = None,
        tap: Optional[Callable] = None,
    ):
        return self.pool.run(
            self._with_tap(lambda session: session.synthesize(request), tap),
            timeout,
        )

    def run_batch(
        self,
        batch: BatchRequest,
        timeout: Optional[float] = None,
        tap: Optional[Callable] = None,
    ):
        return self.pool.run(
            self._with_tap(lambda session: session.run_batch(batch), tap),
            timeout,
        )
