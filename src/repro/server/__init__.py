"""``repro.server`` — the JSON wire schema, served over HTTP.

A dependency-free (stdlib ``http.server``) synthesis service that is a
deliberately thin shell over :mod:`repro.api`: requests validate through
the same :class:`~repro.api.SynthesisRequest` dataclasses every frontend
uses, and responses are the exact canonical-JSON bytes ``janus synth
--json`` / ``janus table2 --json`` print.  There is no server-only
schema — ``docs/wire-schema.md`` documents the one wire format, and
``docs/server.md`` the endpoints around it.

Layers:

* :mod:`repro.server.pool` — :class:`SessionPool`, the server's warmth
  and admission control: a bounded set of long-lived
  :class:`~repro.api.Session` objects (worker pools, layered caches)
  checked out one request at a time over one shared on-disk cache, plus per-request wall-clock budgets.
* :mod:`repro.server.protocol` — the small envelopes around the schema
  payloads (errors, backends, cache stats, health) and the exception ->
  HTTP status mapping.
* :mod:`repro.server.core` — :class:`ServiceCore`, the transport-
  agnostic heart of the service: routing, per-request knobs, request
  execution, the exact wire bytes and ``?stream=1``, which sends a
  request's structured progress events (:mod:`repro.engine.events`) as
  NDJSON lines before its final payload.  The HTTP front-end delegates
  every exchange here.
* :mod:`repro.server.app` — the HTTP front-end: :class:`SynthesisServer`
  (a ``ThreadingHTTPServer``) and :func:`make_server`.
* :mod:`repro.server.multiproc` — :class:`MultiProcessServer`,
  ``janus serve --workers N``: N forked :class:`SynthesisServer` workers
  accepting from one inherited listening socket over one on-disk cache.

Start one from the CLI (``janus serve --host 127.0.0.1 --port 8080``)
or in-process::

    from repro.server import make_server

    with make_server(port=0, pool=2) as server:
        server.serve_background()
        host, port = server.address
        ...  # point repro.client.ServiceClient at host:port

The matching client helper lives in :mod:`repro.client`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.server.app": ("SynthesisServer", "make_server"),
    "repro.server.multiproc": ("MultiProcessServer", "multiprocess_supported"),
    "repro.server.core": ("ServiceCore",),
    "repro.server.pool": ("SessionPool",),
    "repro.server.protocol": ("error_wire", "status_for_exception"),
})
