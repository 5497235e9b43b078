"""Serve the synthesis API over HTTP and drive it with repro.client.

Starts an in-process ``janus serve`` instance on an ephemeral loopback
port (exactly what the CLI command runs), then exercises the whole
surface: single requests, the warm-cache property observed through the
served counters, a batch watched through its live progress-event
stream, and structured errors.

Run with: PYTHONPATH=src python examples/http_service.py
"""

from repro.api import RequestOptions, SynthesisRequest
from repro.client import ServerError, ServiceClient
from repro.server import make_server

OPTIONS = RequestOptions(max_conflicts=20_000)


def main() -> None:
    with make_server(port=0, pool=2) as server:
        server.serve_background()
        host, port = server.address
        client = ServiceClient(host, port)
        print(f"serving on http://{host}:{port}")
        print(f"health: {client.health()['status']}, "
              f"backends: {', '.join(client.backends())}")

        # --- one request, then the same request again (served warm) ---
        request = SynthesisRequest.from_target("ab + a'b'c", options=OPTIONS)
        response = client.synthesize(request)
        print(f"\ncold : {response.name} -> {response.shape} = "
              f"{response.size} switches")
        response = client.synthesize(request)
        stats = client.cache_stats()["engine"]
        print(f"warm : same answer, served from the suite cache "
              f"(suite_hits={stats['suite_hits']}, "
              f"solver_calls={stats['solver_calls']} — no new SAT work)")

        # --- a batch with a live progress stream ---
        print("\nstreamed batch:")
        for line in client.stream_batch(
            [SynthesisRequest.from_target(e, options=OPTIONS)
             for e in ("ab + cd", "a'b + ab' + c", "abc + a'b'c'")]
        ):
            event = line.get("event")
            if event == "synthesis_started":
                print(f"  {event}")
            elif event == "synthesis_finished":
                print(f"  {event} {line['rows']}x{line['cols']}")
            elif line.get("kind") == "batch_response":
                sizes = [r["size"] for r in line["responses"]]
                print(f"  -> {len(sizes)} responses: {sizes} switches")

        # --- structured errors ---
        try:
            client.synthesize(request, backend="no-such-backend")
        except ServerError as exc:
            print(f"\nerror envelope: status={exc.status} "
                  f"type={exc.payload['type']}")


if __name__ == "__main__":
    main()
