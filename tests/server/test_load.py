"""Sustained mixed-traffic soak against the HTTP front-end.

Many client threads fire a *mix* of traffic (synthesize and batch, both
plain and streamed, info endpoints, deliberate errors) for a sustained
window at one single-process server, and again at ``MultiProcessServer``
(two forked workers over one shared cache), with three zero-tolerance
assertions at the end:

* **zero dropped requests** — every exchange either returned its decoded
  payload or the exact expected error envelope; no resets, no hangs;
* **zero mangled responses** — synthesis payloads decode and match the
  per-expression golden answer captured before the storm;
* **zero cache corruption** — afterwards the shared on-disk cache has no
  ``.tmp-*`` litter and ``verify_cache`` replays every stored assignment
  green.

Duration scales with ``JANUS_SOAK_SECONDS`` and the client count with
``JANUS_SOAK_CLIENTS`` (defaults keep tier-1 fast; the nightly path runs
``-m slow`` with a longer window and 64 clients).  The test is also
registered under the ``slow`` marker so nightly can select it
explicitly.  Latency and throughput of the serving path are measured by
the ``warm-http`` workload of ``perfbench/run.py``, not here.
"""

import json
import os
import threading
import time

import pytest

from repro.api import BatchRequest, RequestOptions, SynthesisRequest
from repro.client import ServerError, ServiceClient
from repro.engine import verify_cache
from repro.engine.cache import ResultCache
from repro.server import make_server
from repro.server.multiproc import MultiProcessServer, multiprocess_supported

pytestmark = pytest.mark.slow

SOAK_SECONDS = float(os.environ.get("JANUS_SOAK_SECONDS", "3.0"))
CLIENT_THREADS = int(os.environ.get("JANUS_SOAK_CLIENTS", "8"))

EXPRESSIONS = [
    "ab + a'b'c",
    "cd + c'd' + abe",
    "ab + cd",
    "a'b + ab' + c",
    "ab + bc + ca",
]


def _request(expression: str) -> SynthesisRequest:
    return SynthesisRequest.from_target(
        expression, options=RequestOptions(max_conflicts=20_000)
    )


def _golden(client: ServiceClient) -> dict:
    """Expression -> canonical entry tuple, captured pre-storm."""
    golden = {}
    for expression in EXPRESSIONS:
        response = client.synthesize(_request(expression))
        golden[expression] = tuple(map(tuple, response.entries))
    return golden


class _Soak:
    """One worker thread's traffic loop and its tally."""

    def __init__(self, address, golden, deadline):
        self.address = address
        self.golden = golden
        self.deadline = deadline
        self.completed = 0
        self.failures: list[str] = []

    def run(self, slot: int) -> None:
        client = ServiceClient(*self.address)
        step = slot  # de-phase the threads
        try:
            while time.monotonic() < self.deadline:
                try:
                    self._one(client, step)
                    self.completed += 1
                except Exception as exc:
                    self.failures.append(
                        f"slot {slot} step {step}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    if len(self.failures) >= 3:
                        return  # enough evidence; stop burning time
                step += 1
        finally:
            client.close()

    def _one(self, client: ServiceClient, step: int) -> None:
        expression = EXPRESSIONS[step % len(EXPRESSIONS)]
        op = step % 10
        if op < 4:  # plain synthesize, checked against the golden answer
            response = client.synthesize(_request(expression))
            got = tuple(map(tuple, response.entries))
            if got != self.golden[expression]:
                raise AssertionError(f"mangled response for {expression!r}")
        elif op < 6:  # streamed synthesize: events then the same answer
            lines = list(client.stream_synthesize(_request(expression)))
            final = lines[-1]
            if final.get("kind") != "synthesis_response":
                raise AssertionError(f"stream ended with {final.get('kind')}")
            got = tuple(tuple(e) for e in final["assignment"]["entries"])
            if got != self.golden[expression]:
                raise AssertionError(f"mangled stream for {expression!r}")
        elif op < 7:  # small batch, plain and streamed in turn
            pair = (expression, EXPRESSIONS[(step + 1) % len(EXPRESSIONS)])
            batch = BatchRequest(requests=tuple(_request(e) for e in pair))
            if step // 10 % 2:
                final = list(client.stream_batch(batch))[-1]
                if final.get("kind") != "batch_response":
                    raise AssertionError(
                        f"batch stream ended with {final.get('kind')}"
                    )
                entries = [r["assignment"]["entries"]
                           for r in final["responses"]]
            else:
                entries = [r.entries for r in client.run_batch(batch)]
            got = [tuple(map(tuple, e)) for e in entries]
            if got != [self.golden[e] for e in pair]:
                raise AssertionError(f"mangled batch for {pair!r}")
        elif op < 8:  # info endpoints stay coherent mid-storm
            health = client.health()
            if health["status"] != "ok":
                raise AssertionError(f"health flapped: {health}")
            stats = client.cache_stats()
            if stats["kind"] != "cache_stats":
                raise AssertionError("cache_stats lost its envelope")
        elif op < 9:  # deliberate schema error: exact envelope, kept-alive
            try:
                client.synthesize(_request("ab + ("))
            except ServerError as err:
                if err.status != 400:
                    raise AssertionError(f"parse error got {err.status}")
            else:
                raise AssertionError("bad expression was accepted")
        else:  # deliberate unknown backend: 404 envelope
            try:
                client.synthesize(
                    _request(expression), backend="no-such-backend"
                )
            except ServerError as err:
                if err.status != 404:
                    raise AssertionError(f"unknown backend got {err.status}")
            else:
                raise AssertionError("unknown backend was accepted")


def _single_process(cache_dir: str):
    server = make_server(port=0, pool=2, jobs=1, cache=cache_dir)
    server.serve_background()
    return server


def _forked(cache_dir: str):
    if not multiprocess_supported():
        pytest.skip("the forked server needs the fork start method")
    server = MultiProcessServer(workers=2, pool=1, jobs=1, cache=cache_dir)
    return server.start()


@pytest.mark.parametrize(
    "start", [_single_process, _forked], ids=["single-process", "forked"]
)
def test_sustained_mixed_traffic_drops_nothing(tmp_path, start):
    cache_dir = str(tmp_path / "soak-cache")
    with start(cache_dir) as server:
        warm = ServiceClient(*server.address)
        golden = _golden(warm)
        warm.close()

        deadline = time.monotonic() + SOAK_SECONDS
        soaks = [
            _Soak(server.address, golden, deadline)
            for _ in range(CLIENT_THREADS)
        ]
        threads = [
            threading.Thread(target=soak.run, args=(slot,), daemon=True)
            for slot, soak in enumerate(soaks)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=SOAK_SECONDS + 120)
        hung = [t for t in threads if t.is_alive()]

        failures = [f for soak in soaks for f in soak.failures]
        completed = sum(soak.completed for soak in soaks)

        # Zero dropped or mangled responses, no wedged clients, and the
        # storm actually exercised the server.
        assert not hung, f"{len(hung)} soak threads never finished"
        assert failures == [], failures[:5]
        assert completed >= CLIENT_THREADS * 2, (
            f"only {completed} requests completed in {SOAK_SECONDS}s"
        )

        # The server is still fully alive afterwards.
        after = ServiceClient(*server.address)
        assert after.health()["status"] == "ok"
        response = after.synthesize(_request(EXPRESSIONS[0]))
        assert tuple(map(tuple, response.entries)) == golden[EXPRESSIONS[0]]
        after.close()

    # Zero cache corruption: no temp litter, every entry verifies.
    cache = ResultCache(cache_dir)
    assert list(cache.iter_temps()) == []
    assert len(cache) > 0
    report = verify_cache(cache)
    assert report.ok, report.mismatches
    for path in cache.iter_entries():
        payload = json.loads(path.read_bytes())
        assert payload.get("format") == 1
