"""Determinism lint for the byte-identity paths.

The engine's core guarantee — serial, parallel and cached runs
produce byte-identical ``SynthesisResult`` wire forms — only holds
if the scoped modules never consult ambient nondeterminism.  This
checker forbids, in the configured paths:

* **wall-clock and entropy calls** — ``time.time`` / ``time.time_ns``,
  ``random.*``, ``numpy.random.*``, ``os.urandom``, ``secrets.*``,
  ``uuid.uuid1``/``uuid.uuid4``.  The sanctioned seams survive untouched:
  ``time.monotonic``/``time.perf_counter`` are allowed because they feed
  only the volatile ``wall_time`` field (excluded from byte-identity
  comparisons), and *referencing* a forbidden name without calling it —
  e.g. a ``now=time.time`` injection parameter — is fine because the
  caller controls the injection.
* **set iteration into serialization** — iterating a set expression
  (set literal, set comprehension, ``set(...)``/``frozenset(...)`` call)
  in a ``for`` loop, comprehension, or ``list``/``tuple``/``".join"``
  conversion.  Set order is salted per process; sort first.

``# janalyze: allow-determinism <reason>`` on the line suppresses a hit.
"""

from __future__ import annotations

import ast
from typing import Optional

from tools.janalyze.checkers.base import Checker, dotted_name, import_aliases
from tools.janalyze.findings import Finding
from tools.janalyze.project import Project, SourceFile

__all__ = ["DeterminismChecker"]

DEFAULT_PATHS = [
    "src/repro/core",
    "src/repro/sat",
    "src/repro/engine/wire.py",
    "src/repro/engine/signature.py",
    "src/repro/gen",
]

#: Exact dotted callables that inject wall-clock time or entropy.
FORBIDDEN_CALLS = {
    "time.time",
    "time.time_ns",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Any call under these prefixes is forbidden.
FORBIDDEN_PREFIXES = ("random.", "secrets.", "numpy.random.")

#: Monotonic timers are sanctioned: they feed only the volatile
#: ``wall_time`` field, which byte-identity comparisons exclude.
ALLOWED_CALLS = {"time.monotonic", "time.perf_counter"}

#: RNG constructors that are fine *when seeded*: the generators in
#: ``repro.gen`` build their streams from explicit seed tuples, which is
#: the whole reproducibility contract.  Called with no arguments they
#: fall back to OS entropy and are treated like any other entropy call.
SEEDED_CONSTRUCTORS = {"random.Random", "numpy.random.default_rng"}


def _is_set_expr(node: ast.AST, aliases: dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


class DeterminismChecker(Checker):
    name = "determinism"
    description = (
        "no wall-clock/entropy calls or set-order-dependent iteration in "
        "the byte-identity paths"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        cfg = self.config(project)
        forbidden = set(cfg.get("forbidden_calls", FORBIDDEN_CALLS))
        prefixes = tuple(cfg.get("forbidden_prefixes", FORBIDDEN_PREFIXES))
        allowed = set(cfg.get("allowed_calls", ALLOWED_CALLS))
        seeded = set(cfg.get("seeded_constructors", SEEDED_CONSTRUCTORS))
        for sf in self.scoped_files(project, DEFAULT_PATHS):
            aliases = import_aliases(sf.tree)
            for node in ast.walk(sf.tree):
                if isinstance(node, ast.Call):
                    hit = self._forbidden_call(
                        node, aliases, forbidden, prefixes, allowed, seeded
                    )
                    if hit and not self._allowed(sf, node):
                        name, unseeded = hit
                        message = (
                            f"unseeded {name}() falls back to OS entropy "
                            "— pass an explicit seed"
                            if unseeded
                            else f"call to {name}() injects nondeterminism "
                            "into a byte-identity path"
                        )
                        findings.append(self.finding(sf, node, message))
                for iter_node, how in self._set_iterations(node, aliases):
                    if not self._allowed(sf, iter_node):
                        findings.append(
                            self.finding(
                                sf,
                                iter_node,
                                f"{how} iterates a set — order is salted "
                                "per process; sort before iterating",
                            )
                        )
        return findings

    # -------------------------------------------------------------- helpers
    def _forbidden_call(
        self,
        node: ast.Call,
        aliases: dict[str, str],
        forbidden: set[str],
        prefixes: tuple[str, ...],
        allowed: set[str],
        seeded: set[str] = frozenset(),
    ) -> Optional[tuple[str, bool]]:
        """The resolved forbidden name and whether it was an *unseeded*
        RNG constructor, or ``None`` when the call is fine."""
        name = dotted_name(node.func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        resolved = aliases.get(head, head) + ("." + rest if rest else "")
        if resolved in allowed:
            return None
        # Seeded-RNG constructors are checked before the prefixes that
        # would otherwise swallow them: with any argument the caller
        # injected the seed, without one the RNG seeds from OS entropy.
        if resolved in seeded:
            if node.args or node.keywords:
                return None
            return resolved, True
        if resolved in forbidden:
            return resolved, False
        if resolved.startswith(prefixes):
            return resolved, False
        return None

    def _set_iterations(
        self, node: ast.AST, aliases: dict[str, str]
    ) -> list[tuple[ast.AST, str]]:
        hits: list[tuple[ast.AST, str]] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter, aliases):
                hits.append((node.iter, "for loop"))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter, aliases):
                    hits.append((gen.iter, "comprehension"))
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            is_join = isinstance(node.func, ast.Attribute) and (
                node.func.attr == "join"
            )
            if name in ("list", "tuple") or is_join:
                for arg in node.args:
                    if _is_set_expr(arg, aliases):
                        label = "join" if is_join else name
                        hits.append((arg, f"{label}() conversion"))
        return hits

    def _allowed(self, sf: SourceFile, node: ast.AST) -> bool:
        # Accepted on the statement's line(s) or the comment block above.
        return (
            sf.pragma_for_line(
                "allow-determinism",
                node.lineno,
                getattr(node, "end_lineno", node.lineno),
            )
            is not None
        )
