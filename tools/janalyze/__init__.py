"""janalyze — repo-specific static analysis for the janus codebase.

An AST-based, project-aware linter enforcing the cross-cutting
invariants the runtime tests only spot-check:

* **lock-discipline** — ``# guarded-by: <lock>`` attributes are only
  touched inside ``with self.<lock>:`` in their owning class.
* **determinism** — no wall-clock/entropy calls or set-order-dependent
  iteration in the byte-identity paths (``core/``, ``sat/``,
  ``engine/wire.py``, ``engine/signature.py``).
* **pickle-boundary** — every type reachable from the process-pool seam
  is module-level, slots-or-dataclass, and picklable.
* **wire-schema** — wire fields, ``EVENT_KINDS`` and error statuses are
  exhaustive and documented (run just the docs checks with
  ``python -m tools.janalyze --only doc-links,wire-schema``).
* **broad-except** — ``except Exception`` requires a justified
  ``# janalyze: allow-broad-except <reason>`` pragma.
* **doc-links** — relative markdown links in ``docs/`` resolve.

Run it as ``python -m tools.janalyze`` or ``janus lint``; see
``docs/static-analysis.md`` for the checker catalog, pragma syntax and
baseline workflow.  Analysis is pure text + :mod:`ast`: project code is
never imported, so the tool runs with no PYTHONPATH and no third-party
dependencies.
"""

from tools.janalyze.findings import Baseline, Finding
from tools.janalyze.project import Project, SourceFile
from tools.janalyze.runner import find_repo_root, main, run

__all__ = [
    "Baseline",
    "Finding",
    "Project",
    "SourceFile",
    "find_repo_root",
    "main",
    "run",
]
