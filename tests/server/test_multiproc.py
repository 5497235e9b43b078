"""Multi-process serving: ``janus serve --workers N`` end to end.

Two forked :class:`~repro.server.SynthesisServer` workers accept from one
inherited listening socket over one shared on-disk cache.  Every request
here goes over a *fresh* connection, so the kernel is free to hand each
one to either worker: answers must be right wherever they land, a target
solved once must be a cache hit everywhere, and shutdown must leave no
worker behind holding the port.
"""

import os
import signal
import socket
import subprocess
import sys

import pytest

import repro
from repro.api import RequestOptions, Session, SynthesisRequest
from repro.client import ServiceClient
from repro.server import MultiProcessServer, multiprocess_supported

pytestmark = pytest.mark.skipif(
    not multiprocess_supported(), reason="needs the fork start method"
)

EXPRESSIONS = ["ab + a'b'c", "ab + cd", "a'b + ab' + c", "ab + bc + ca"]


def _request(expression: str) -> SynthesisRequest:
    return SynthesisRequest.from_target(
        expression, options=RequestOptions(max_conflicts=20_000)
    )


def _fresh_client(host: str, port: int) -> ServiceClient:
    """A client that opens a new TCP connection for every request."""
    return ServiceClient(host, port, keep_alive=False, timeout=30)


def _fresh_synthesize(address, request):
    return _fresh_client(*address).synthesize(request)


def _port_is_free(port: int) -> bool:
    try:
        socket.create_server(("127.0.0.1", port)).close()
    except OSError:
        return False
    return True


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("mp-cache"))
    with MultiProcessServer(workers=2, pool=1, jobs=1, cache=cache) as srv:
        srv.start()
        yield srv


def test_fresh_connections_all_get_correct_answers(served):
    with Session() as session:
        golden = {
            e: session.synthesize(_request(e)).entries for e in EXPRESSIONS
        }
    for i in range(20):
        expression = EXPRESSIONS[i % len(EXPRESSIONS)]
        response = _fresh_synthesize(served.address, _request(expression))
        assert response.entries == golden[expression], (i, expression)
    assert served.alive() == 2


def test_target_solved_once_is_a_suite_hit_everywhere(served):
    request = _request("cd + c'd' + abe")
    first = _fresh_synthesize(served.address, request)
    assert first.stats["suite_misses"] == 1
    for _ in range(8):
        again = _fresh_synthesize(served.address, request)
        assert again.entries == first.entries
        # Whichever worker took the connection answered from the shared
        # cache: no SAT call, no bound recomputation.
        assert again.stats["solver_calls"] == 0
        assert again.stats["bound_calls"] == 0
        assert again.stats["suite_hits"] == 1


def test_close_reaps_workers_cache_and_port():
    server = MultiProcessServer(workers=2, pool=1, jobs=1).start()
    host, port = server.address
    cache_dir = server.cache_dir
    procs = list(server._procs)
    try:
        _fresh_synthesize((host, port), _request(EXPRESSIONS[0]))
        assert os.path.isdir(cache_dir)
        server.close()
        assert server.alive() == 0
        assert [proc.exitcode for proc in procs] == [0, 0]  # orderly exits
        assert not os.path.exists(cache_dir)
        assert _port_is_free(port)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()


def test_cli_exits_cleanly_on_sigterm(tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    errors = tmp_path / "serve.err"
    with open(errors, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--workers", "2", "--port", "0", "--pool", "1"],
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            start_new_session=True,
        )
    try:
        for line in proc.stdout:
            if "listening on http://" in line:
                break
        else:
            pytest.fail(f"janus serve never listened: {errors.read_text()}")
        port = int(line.rsplit(":", 1)[1])
        assert proc.stdout.readline() == "frontend  : threaded x 2 processes\n"
        for _ in range(4):
            assert _fresh_client("127.0.0.1", port).health()["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0, errors.read_text()
        # No orphaned worker is still listening on the port.
        assert _port_is_free(port)
    finally:
        # Reap whatever is left of the server's session, orphans included.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
