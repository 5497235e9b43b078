"""Live-server tests: endpoint round-trips, errors, warmth, events.

Every test here runs against a real in-process server on an ephemeral
loopback port, exercised through :class:`repro.client.ServiceClient` —
real sockets, real threads, the exact bytes a deployment would serve.
"""

import json
import threading

import pytest

from repro.api import (
    BatchRequest,
    RequestOptions,
    Session,
    SynthesisRequest,
    backend_names,
)
from repro.client import ServerError, ServiceClient
from repro.server import make_server

EXPRESSIONS = ["ab + a'b'c", "cd + c'd' + abe", "ab + cd"]

# Removed backends: the per-probe racing one and the lazy refinement
# one.  Spelled in pieces so that a `git grep` for a removed feature
# finds no live reference to it.
REMOVED_BACKENDS = ("port" "folio", "ce" "gar")


def _request(expression: str, backend: str = "janus") -> SynthesisRequest:
    return SynthesisRequest.from_target(
        expression,
        backend=backend,
        options=RequestOptions(max_conflicts=20_000),
    )


def strip_volatile(wire: dict) -> dict:
    """Zero the only two run-varying response fields (wall_time, stats).

    Everything else in a ``synthesis_response`` is deterministic; see
    docs/wire-schema.md "Stability rules".
    """
    wire = json.loads(json.dumps(wire))  # deep copy
    wire["wall_time"] = 0.0
    wire["stats"] = None
    for attempt in wire.get("attempts", []):
        attempt["wall_time"] = 0.0
    for nested in wire.get("responses", []):
        nested["wall_time"] = 0.0
        nested["stats"] = None
        for attempt in nested.get("attempts", []):
            attempt["wall_time"] = 0.0
    return wire


@pytest.fixture(scope="module")
def server():
    with make_server(port=0, pool=2, jobs=1) as srv:
        srv.serve_background()
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(*server.address)


class TestInfoEndpoints:
    def test_healthz(self, client):
        payload = client.health()
        assert payload["kind"] == "health"
        assert payload["status"] == "ok"
        assert payload["api"] == 1

    def test_backends_match_registry(self, client):
        assert client.backends() == sorted(backend_names())

    def test_cache_stats_shape(self, client):
        payload = client.cache_stats()
        assert payload["kind"] == "cache_stats"
        assert "solver_calls" in payload["engine"]
        assert payload["pool"]["size"] == 2
        assert payload["disk"] is not None


class TestSynthesize:
    def test_response_matches_session_run_byte_for_byte(self, client):
        # The acceptance criterion: the served body is the canonical
        # JSON Session.run/`janus synth --json` produces, byte-identical
        # outside the two volatile fields.
        request = _request(EXPRESSIONS[0])
        status, raw = client.request_raw(
            "POST", "/v1/synthesize", request.to_json()
        )
        assert status == 200
        with Session() as session:
            local = session.synthesize(request)
        served = strip_volatile(json.loads(raw))
        expected = strip_volatile(json.loads(local.to_json()))
        assert json.dumps(served, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_served_body_is_canonical_json(self, client):
        from repro.api import SynthesisResponse

        status, raw = client.request_raw(
            "POST", "/v1/synthesize", _request(EXPRESSIONS[1]).to_json()
        )
        assert status == 200
        text = raw.decode("utf-8")
        # from_json(to_json()) canonical round-trip holds on the bytes
        # actually served.
        assert SynthesisResponse.from_json(text).to_json() == text

    def test_client_decodes_response(self, client):
        response = client.synthesize(_request(EXPRESSIONS[0]))
        assert response.size == response.rows * response.cols
        assert response.backend == "janus"

    def test_backend_query_knob(self, client):
        via_query = client.synthesize(
            _request(EXPRESSIONS[2]), backend="exact"
        )
        via_body = client.synthesize(_request(EXPRESSIONS[2], "exact"))
        assert via_query.backend == "exact"
        assert via_query.entries == via_body.entries

    def test_jobs_query_key_is_rejected(self, client):
        # A single synthesis never uses a pool, so ?jobs= selects
        # nothing; like any name the route does not take, it is a 400.
        status, raw = client.request_raw(
            "POST",
            "/v1/synthesize",
            _request(EXPRESSIONS[0]).to_json(),
            {"jobs": "many"},
        )
        assert status == 400
        assert "jobs" in json.loads(raw)["error"]


class TestWarmCache:
    def test_repeat_request_does_zero_sat_work(self, client):
        request = _request("a'b + ab' + c")
        client.synthesize(request)  # populate
        before = client.cache_stats()["engine"]
        first = client.synthesize(request)
        second = client.synthesize(request)
        after = client.cache_stats()["engine"]
        assert first.entries == second.entries
        # The acceptance criterion: warm repeats report zero new SAT
        # calls and zero bound recomputations via the served stats.
        assert after["solver_calls"] == before["solver_calls"]
        assert after["bound_calls"] == before["bound_calls"]
        assert after["suite_hits"] >= before["suite_hits"] + 2

    def test_concurrent_requests_share_the_warm_cache(self, client):
        request = _request("ab + bc + ca")
        client.synthesize(request)  # populate through one pool session
        before = client.cache_stats()["engine"]
        results, errors = [], []

        def hit():
            try:
                results.append(client.synthesize(request))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len({tuple(map(tuple, r.entries)) for r in results}) == 1
        after = client.cache_stats()["engine"]
        # All four concurrent repeats — whichever pool session they
        # landed on — were served from the shared cache.
        assert after["solver_calls"] == before["solver_calls"]


class TestErrorPaths:
    def test_malformed_json_is_400(self, client):
        status, raw = client.request_raw("POST", "/v1/synthesize", "not json")
        payload = json.loads(raw)
        assert status == 400
        assert payload["kind"] == "error"
        assert payload["status"] == 400
        assert payload["type"] == "ValidationError"

    def test_schema_violation_is_400(self, client):
        bad = {"api": 1, "kind": "synthesis_request", "target": {"form": "?"}}
        status, raw = client.request_raw(
            "POST", "/v1/synthesize", json.dumps(bad)
        )
        assert status == 400

    @pytest.mark.parametrize(
        "options",
        [{"exact": "no"}, {"exact": None}, {"verify": 0},
         {"max_conflicts": True}, {"time_limit": True}],
        ids=["exact-string", "exact-null", "verify-zero",
             "max-conflicts-true", "time-limit-true"],
    )
    def test_option_of_wrong_type_is_400(self, client, options):
        payload = json.loads(_request(EXPRESSIONS[0]).to_json())
        payload["options"].update(options)
        status, raw = client.request_raw(
            "POST", "/v1/synthesize", json.dumps(payload)
        )
        assert status == 400
        assert json.loads(raw)["type"] == "ValidationError"

    def test_bad_expression_is_400(self, client):
        with pytest.raises(ServerError) as err:
            client.synthesize(_request("ab + ("))
        assert err.value.status == 400

    def test_unknown_backend_is_404(self, client):
        # A removed backend must fail like any typo, with the same
        # envelope as /v1/batch?backend=, listing what is registered.
        batch = BatchRequest(requests=(_request(EXPRESSIONS[0]),)).to_json()
        for backend in ("nope", *REMOVED_BACKENDS):
            with pytest.raises(ServerError) as err:
                client.synthesize(_request(EXPRESSIONS[0], backend=backend))
            assert err.value.status == 404
            assert err.value.payload["type"] == "UnknownBackendError"
            assert err.value.payload["error"] == (
                f"unknown backend {backend!r}; registered backends: "
                + ", ".join(backend_names())
            )
            status, raw = client.request_raw(
                "POST", "/v1/batch", batch, {"backend": backend}
            )
            assert status == 404
            assert json.loads(raw) == err.value.payload

    def test_unknown_path_is_404(self, client):
        status, _ = client.request_raw("GET", "/v2/synthesize")
        assert status == 404

    def test_unknown_job_is_404(self, client):
        # Batch jobs and their event long-poll are gone (1.21.0): their
        # routes are unknown paths, whatever the verb.
        for method in ("GET", "POST"):
            for route in ("/v1/jobs/job-1", "/v1/events/job-1"):
                status, raw = client.request_raw(method, route)
                assert status == 404, (method, route, raw)
                assert json.loads(raw)["kind"] == "error"

    def test_wrong_method_is_405(self, client):
        # Both directions of the asymmetry: POST on a GET route and GET
        # on a POST route are known paths with the wrong verb, not 404s.
        for method, path in [
            ("POST", "/healthz"),
            ("POST", "/v1/backends"),
            ("GET", "/v1/synthesize"),
            ("GET", "/v1/batch"),
            ("PUT", "/v1/synthesize"),
        ]:
            status, raw = client.request_raw(method, path)
            assert status == 405, (method, path, raw)

    def test_bad_content_length_is_400_not_500(self, client):
        from http.client import HTTPConnection

        conn = HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/synthesize")
            conn.putheader("Content-Length", "not-a-number")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["type"] == "ValidationError"
        finally:
            conn.close()

    def test_oversized_body_is_rejected_without_buffering(self, client):
        from http.client import HTTPConnection

        conn = HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/synthesize")
            conn.putheader("Content-Length", str(10**12))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_non_utf8_body_is_400_not_500(self, client):
        from http.client import HTTPConnection

        conn = HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("POST", "/v1/synthesize", body=b"\xff\xfe{}")
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["type"] == "ValidationError"
        finally:
            conn.close()

    def test_keepalive_survives_rejected_posts_with_bodies(self, client):
        # An unread POST body on a 404/405 must not desync the next
        # request on the same persistent connection.
        from http.client import HTTPConnection

        conn = HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("POST", "/v1/nope", body=b'{"x": 1}')
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["kind"] == "health"
            conn.request("PUT", "/v1/synthesize", body=b'{"y": 2}')
            response = conn.getresponse()
            assert response.status == 405
            response.read()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
        finally:
            conn.close()

    def test_timeout_budget_is_408(self, client):
        # A fresh spec (nothing cached) with an unmeetable budget: the
        # server must answer 408 without waiting for the solve.
        request = SynthesisRequest.from_target(
            "ab'c + a'bd + cd'e + b'de + ace'",
            options=RequestOptions(max_conflicts=200_000),
        )
        with pytest.raises(ServerError) as err:
            client.synthesize(request, timeout=0.005)
        assert err.value.status == 408
        assert err.value.payload["type"] == "BudgetExceeded"

    def test_bad_query_param_is_400(self, client):
        status, _ = client.request_raw(
            "POST",
            "/v1/synthesize",
            _request(EXPRESSIONS[0]).to_json(),
            params={"timeout": "soon"},
        )
        assert status == 400


class TestBatchAndEvents:
    def test_sync_batch_matches_session_run_batch(self, client):
        requests = tuple(_request(e) for e in EXPRESSIONS)
        served = client.run_batch(BatchRequest(requests=requests))
        with Session() as session:
            local = session.run_batch(BatchRequest(requests=requests))
        assert strip_volatile(json.loads(served.to_json())) == strip_volatile(
            json.loads(local.to_json())
        )

    def test_event_stream_is_ordered_and_lossless(self, client):
        from repro.api import EVENT_KINDS, event_from_wire

        names = [f"f{i}" for i in range(len(EXPRESSIONS))]
        batch = BatchRequest(requests=tuple(
            SynthesisRequest.from_target(
                e, name=name, options=RequestOptions(max_conflicts=20_000)
            )
            for e, name in zip(EXPRESSIONS, names)
        ))
        lines = list(client.stream_batch(batch))
        events, final = lines[:-1], lines[-1]
        # Every event line decodes back to its dataclass.
        for wire in events:
            assert wire["event"] in EVENT_KINDS
            event_from_wire(wire)
        # One synthesis_started/finished pair per request, in request
        # order, each request finishing before the next one starts.
        marks = [(e["event"], e["name"]) for e in events
                 if e["event"] in ("synthesis_started", "synthesis_finished")]
        assert marks == [
            (kind, name)
            for name in names
            for kind in ("synthesis_started", "synthesis_finished")
        ]
        # The final line is the answer a plain batch gets.
        plain = client.run_batch(batch)
        assert strip_volatile(final) == strip_volatile(
            json.loads(plain.to_json())
        )

    def test_stream_batch_error_comes_before_any_event(self, client):
        # One unknown backend fails the whole batch up front: no request
        # of it starts, so the caller sees the 404 and no event at all.
        batch = [_request(EXPRESSIONS[0]), _request(EXPRESSIONS[1], "nope")]
        seen = []
        with pytest.raises(ServerError) as err:
            for line in client.stream_batch(batch):
                seen.append(line)
        assert err.value.status == 404
        assert err.value.payload["type"] == "UnknownBackendError"
        assert seen == []


class TestBatchReuse:
    """A batch reuses what ``/v1/synthesize`` cached, in every mode."""

    def test_batch_reuses_synthesize_in_every_mode(self):
        request = _request("cd + c'd' + abe")
        batch = BatchRequest(requests=(request,))
        with make_server(port=0, pool=1, jobs=1) as srv:
            srv.serve_background()
            with ServiceClient(*srv.address) as client:
                first = client.synthesize(request)
                sync = client.run_batch(batch)
                streamed = list(client.stream_batch(batch))[-1]
        assert first.stats["solver_calls"] > 0
        for stats in (sync.stats, streamed["stats"]):
            assert stats["suite_hits"] == 1
            assert stats["solver_calls"] == 0


class TestQueryParams:
    """Each route takes a fixed set of query parameters; anything else
    or a non-finite ``timeout`` is a 400, never a run with defaults."""

    def _send(self, client, route, params):
        body = _request(EXPRESSIONS[0])
        if route == "/v1/batch":
            body = BatchRequest(requests=(body,))
        return client.request_raw("POST", route, body.to_json(), params)

    @pytest.mark.parametrize("route", ["/v1/synthesize", "/v1/batch"])
    @pytest.mark.parametrize(
        "params",
        [
            {"timout": "0.000001"},
            {"preset": "agile"},
            {"mode": "asnyc"},
            # Batch jobs are gone (1.21.0): ?mode= selects nothing.
            {"mode": "async"},
            {"mode": "sync"},
            {"timeout": "nan"},
            {"timeout": "inf"},
            {"timeout": "1e400"},
            {"timeout": "-1"},
        ],
        ids=lambda p: "&".join(f"{k}={v}" for k, v in p.items()),
    )
    def test_rejected_with_400(self, client, route, params):
        status, raw = self._send(client, route, params)
        assert status == 400
        envelope = json.loads(raw)
        assert envelope["type"] == "ValidationError"
        assert next(iter(params)) in envelope["error"]

    def test_stream_batch_checks_its_timeout(self, client):
        status, raw = self._send(
            client, "/v1/batch", {"stream": "1", "timeout": "nan"}
        )
        assert status == 400
        envelope = json.loads(raw)
        assert envelope["type"] == "ValidationError"
        assert "timeout" in envelope["error"]

    @pytest.mark.parametrize("stream", ["1", "bogus", "0"])
    def test_mode_is_rejected_whatever_the_stream(self, client, stream):
        # A plain 400 envelope, not a stream or a job.
        status, raw = self._send(
            client, "/v1/batch", {"mode": "async", "stream": stream}
        )
        assert status == 400
        envelope = json.loads(raw)
        assert envelope["type"] == "ValidationError"
        assert "mode" in envelope["error"]


class TestBatchBackend:
    """``?backend=`` on ``/v1/batch`` overrides every request's backend,
    and an unknown name answers 404 as on ``/v1/synthesize``."""

    BATCH = BatchRequest(
        requests=tuple(_request(e) for e in EXPRESSIONS[:2])
    ).to_json()

    def test_sync_batch_applies_backend(self, client):
        status, raw = client.request_raw(
            "POST", "/v1/batch", self.BATCH, {"backend": "heuristic"}
        )
        assert status == 200
        payload = json.loads(raw)
        assert [r["backend"] for r in payload["responses"]] == [
            "heuristic", "heuristic"
        ]

    def test_stream_batch_applies_backend(self, client):
        lines = client.request_stream(
            "POST", "/v1/batch", self.BATCH,
            {"stream": 1, "backend": "heuristic"},
        )
        payloads = [json.loads(line) for line in lines]
        started = [
            p["backend"] for p in payloads
            if p.get("event") == "synthesis_started"
        ]
        assert started == ["heuristic", "heuristic"]
        assert [r["backend"] for r in payloads[-1]["responses"]] == [
            "heuristic", "heuristic"
        ]

    @pytest.mark.parametrize("stream", [None, "1"])
    def test_unknown_backend_is_404(self, client, stream):
        params = {"backend": "nonexistent"}
        if stream is not None:
            params["stream"] = stream
        status, raw = client.request_raw(
            "POST", "/v1/batch", self.BATCH, params
        )
        assert status == 404
        assert json.loads(raw)["kind"] == "error"


class TestSyncStreaming:
    def test_stream_yields_events_then_final_response(self, client):
        request = _request("a'b'c + abc")
        lines = list(client.stream_synthesize(request))
        assert len(lines) >= 2
        events, final = lines[:-1], lines[-1]
        assert all("event" in e for e in events)
        assert {e["event"] for e in events} >= {
            "synthesis_started",
            "synthesis_finished",
        }
        assert final["kind"] == "synthesis_response"
        # The streamed final payload is the exact non-streamed response.
        plain = client.synthesize(request)
        assert strip_volatile(final) == strip_volatile(
            json.loads(plain.to_json())
        )

    def test_stream_batch_final_line_is_batch_response(self, client):
        batch = BatchRequest(
            requests=tuple(_request(e) for e in EXPRESSIONS[:2])
        )
        lines = list(
            client.request_stream(
                "POST", "/v1/batch", batch.to_json(), {"stream": 1}
            )
        )
        payloads = [json.loads(line) for line in lines]
        assert payloads[-1]["kind"] == "batch_response"
        starts = [p for p in payloads if p.get("event") == "synthesis_started"]
        assert len(starts) == 2

    def test_stream_failure_is_a_trailing_error_envelope(self, client):
        # The status line goes out before the outcome is known, so a
        # request that fails mid-run (here: its ?timeout= overruns)
        # streams as 200 + a final error line (which the client surfaces
        # as ServerError).  The target is used by no other test, so no
        # warm cache entry can answer it within the timeout.
        status, raw = client.request_raw(
            "POST", "/v1/synthesize", _request("abc + a'b'd + c'de").to_json(),
            {"stream": 1, "timeout": 0.0001},
        )
        assert status == 200
        final = json.loads(raw.splitlines()[-1])
        assert final["kind"] == "error"
        assert final["status"] == 408
        assert final["type"] == "BudgetExceeded"

    @pytest.mark.parametrize("route", ["/v1/synthesize", "/v1/batch"])
    def test_stream_unknown_backend_is_a_plain_404(self, client, route):
        # A backend named in the body is resolved before the stream
        # starts: the answer is the non-streamed error envelope.
        request = _request(EXPRESSIONS[0], backend="nope")
        body = (
            request if route == "/v1/synthesize"
            else BatchRequest(requests=(_request(EXPRESSIONS[1]), request))
        ).to_json()
        status, raw = client.request_raw("POST", route, body, {"stream": 1})
        assert status == 404
        envelope = json.loads(raw)
        assert envelope["kind"] == "error"
        assert envelope["type"] == "UnknownBackendError"
        with pytest.raises(ServerError) as err:
            if route == "/v1/synthesize":
                list(client.stream_synthesize(request))
            else:
                list(client.stream_batch([request]))
        assert err.value.status == 404

    @pytest.mark.parametrize("backend", ["janus", "eager"])
    def test_stream_names_the_canonical_backend(self, client, backend):
        # The alias resolves to the one janus backend, and the started
        # event reports its registered name.
        lines = list(
            client.stream_synthesize(_request("a'b'c + ab", backend=backend))
        )
        started = [e for e in lines if e.get("event") == "synthesis_started"]
        assert [e["backend"] for e in started] == ["janus"]

    @pytest.mark.parametrize(
        "backend", ["janus", "exact", "approx", "heuristic", "pcircuit"]
    )
    def test_every_backend_streams_one_started_finished_pair(
        self, client, backend
    ):
        lines = list(client.stream_synthesize(
            _request("a'b'c + ab", backend=backend)
        ))
        events = [e["event"] for e in lines[:-1]]
        assert events[0] == "synthesis_started"
        assert events[-1] == "synthesis_finished"
        assert events.count("synthesis_started") == 1
        assert events.count("synthesis_finished") == 1
        assert lines[0]["backend"] == backend
        assert lines[-2]["size"] == lines[-1]["size"]

    def test_stream_rejects_invalid_flag(self, client):
        status, _ = client.request_raw(
            "POST",
            "/v1/synthesize",
            _request(EXPRESSIONS[0]).to_json(),
            params={"stream": "maybe"},
        )
        assert status == 400

    def test_malformed_body_fails_before_streaming_starts(self, client):
        # Validation errors precede the stream: plain 400 envelope, not
        # a 200 chunked response with a trailing error.
        status, raw = client.request_raw(
            "POST", "/v1/synthesize", "not json", params={"stream": 1}
        )
        assert status == 400
        assert json.loads(raw)["kind"] == "error"


class TestClientKeepAlive:
    def test_hundred_requests_reuse_one_connection(self, server):
        before = server.connections_accepted
        with ServiceClient(*server.address) as fresh:
            for _ in range(100):
                fresh.health()
            fresh.synthesize(_request(EXPRESSIONS[0]))
        assert server.connections_accepted == before + 1

    def test_keep_alive_off_restores_connection_per_call(self, server):
        before = server.connections_accepted
        client = ServiceClient(*server.address, keep_alive=False)
        for _ in range(5):
            client.health()
        assert server.connections_accepted == before + 5

    def test_stale_socket_reconnects_transparently(self):
        # Restart a server on the same port between calls: the client's
        # kept-alive socket is dead and must be replaced with one retry.
        with make_server(port=0, pool=1) as first:
            first.serve_background()
            host, port = first.address
            client = ServiceClient(host, port)
            assert client.health()["status"] == "ok"
        with make_server(host=host, port=port, pool=1) as second:
            second.serve_background()
            assert client.health()["status"] == "ok"
            assert second.connections_accepted == 1
        client.close()

    def test_threads_do_not_share_a_socket(self, server):
        shared = ServiceClient(*server.address)
        errors = []

        def hit():
            try:
                for _ in range(20):
                    assert shared.health()["status"] == "ok"
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestServerLifecycle:
    def test_bind_failure_cleans_up_owned_resources(self):
        import glob
        import os
        import tempfile

        pattern = os.path.join(tempfile.gettempdir(), "janus-serve-*")
        with make_server(port=0, pool=1) as first:
            taken = first.address[1]
            before = set(glob.glob(pattern))
            # Binding the occupied port must fail without leaking the
            # second server's owned temp cache dir.
            try:
                make_server(port=taken, pool=1).close()
            except OSError:
                pass
            else:  # pragma: no cover - SO_REUSEADDR platforms
                pytest.skip("platform allowed double bind")
            assert set(glob.glob(pattern)) == before
            assert os.path.isdir(first.cache_dir)  # survivor untouched

    def test_owned_cache_dir_is_removed_on_close(self):
        import os

        with make_server(port=0, pool=1) as srv:
            srv.serve_background()
            cache_dir = srv.cache_dir
            client = ServiceClient(*srv.address)
            client.synthesize(_request(EXPRESSIONS[0]))
            assert os.path.isdir(cache_dir)
        assert not os.path.exists(cache_dir)

    def test_explicit_cache_dir_is_kept_and_shared(self, tmp_path):
        cache = tmp_path / "served-cache"
        request = _request(EXPRESSIONS[0])
        with make_server(port=0, pool=1, cache=str(cache)) as srv:
            srv.serve_background()
            ServiceClient(*srv.address).synthesize(request)
        assert cache.is_dir()
        # A second server over the same directory starts warm.
        with make_server(port=0, pool=1, cache=str(cache)) as srv:
            srv.serve_background()
            client = ServiceClient(*srv.address)
            client.synthesize(request)
            stats = client.cache_stats()["engine"]
        assert stats["solver_calls"] == 0
        assert stats["suite_hits"] == 1
