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
  :class:`~repro.api.Session` objects (worker pools, layered caches,
  incremental probers) checked out one request at a time over one shared
  on-disk cache, plus per-request wall-clock budgets.
* :mod:`repro.server.jobs` — :class:`JobManager`, asynchronous batch
  jobs whose structured progress events (the PR 3 engine event channel)
  are buffered in wire form and paged out through a cursor-based
  long-poll (``GET /v1/events/<job_id>``).
* :mod:`repro.server.protocol` — the small envelopes around the schema
  payloads (errors, jobs, event pages, backends, cache stats, health)
  and the exception -> HTTP status mapping.
* :mod:`repro.server.core` — :class:`ServiceCore`, the transport-
  agnostic heart of the service: routing, per-request knobs, request
  execution and the exact wire bytes.  The HTTP front-end delegates
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

from repro.server.app import SynthesisServer, make_server
from repro.server.core import ServiceCore
from repro.server.jobs import Job, JobManager
from repro.server.multiproc import MultiProcessServer, multiprocess_supported
from repro.server.pool import SessionPool
from repro.server.protocol import error_wire, status_for_exception

__all__ = [
    "SynthesisServer",
    "MultiProcessServer",
    "ServiceCore",
    "make_server",
    "multiprocess_supported",
    "SessionPool",
    "Job",
    "JobManager",
    "error_wire",
    "status_for_exception",
]
