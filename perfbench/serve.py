#!/usr/bin/env python3
"""Start ``janus serve`` the way a user would, optionally traced.

Both the traced and the untraced HTTP runs start the server through this
script, so they share one process topology.  With ``--trace-out FILE``
the tracing wrappers are installed before the server starts; recording
stays off until SIGUSR1 (which also clears what was recorded, i.e. the
cache warm-up) and stops at SIGUSR2.  When the server exits after
SIGTERM, the recorded spans are written to FILE.

Usage::

    python3 perfbench/serve.py [--trace-out FILE] -- <janus serve args>
"""

from __future__ import annotations

import signal
import sys

from common import SRC


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(SRC))

    from repro.cli import main as janus_main
    from repro.sat.solver import resolve_core_class

    print(f"core: {resolve_core_class().core_name}", flush=True)
    if trace_out is None:
        return janus_main(["serve", *argv])

    from spans import Recorder, install

    rec = Recorder()
    install(rec)
    rec.enabled = False

    def start(_signum, _frame) -> None:
        rec.reset()
        rec.enabled = True

    def stop(_signum, _frame) -> None:
        rec.enabled = False

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)
    try:
        return janus_main(["serve", *argv])
    finally:
        rec.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
