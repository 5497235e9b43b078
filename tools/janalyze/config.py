"""Project configuration for janalyze.

One dict, checked into the repo next to the code it describes.  Checkers
read their section via ``project.checker_config(name)`` and fall back to
the defaults baked into each checker module, so a fixture project in the
tests can run a single checker with a two-line config.

Keys:

``paths``
    Default scan scope (repo-relative files or directories) for checkers
    that don't override it.

``checkers.<name>.paths``
    Per-checker scan scope.  The determinism scope is deliberately the
    byte-identity surface only — the server layer legitimately reads
    wall clocks.

``checkers.<name>.roots`` (pickle-boundary)
    ``"path.py:ClassName"`` seam roots the transitive audit starts from.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["DEFAULT_CONFIG", "BASELINE_NAME", "default_baseline_path"]

BASELINE_NAME = "baseline.json"

DEFAULT_CONFIG: dict = {
    "paths": ["src/repro"],
    "checkers": {
        "lock-discipline": {
            "paths": ["src/repro"],
        },
        "determinism": {
            "paths": [
                "src/repro/core",
                "src/repro/sat",
                "src/repro/engine/wire.py",
                "src/repro/engine/signature.py",
                "src/repro/gen",
            ],
        },
        "pickle-boundary": {
            "paths": ["src/repro"],
            "roots": [
                "src/repro/bench/runner.py:Table2Row",
                "src/repro/core/janus.py:JanusOptions",
            ],
        },
        "wire-schema": {},
        "dual-source-drift": {
            "paths": ["src/repro", "benchmarks", "tools"],
        },
        "broad-except": {
            "paths": ["src/repro"],
        },
        "doc-links": {
            "pages": ["docs", "README.md"],
        },
    },
}


def default_baseline_path(root: Path) -> Path:
    return root / "tools" / "janalyze" / BASELINE_NAME
