"""Pickle-boundary audit for types crossing the process pool.

The engine's pool runs whole tasks: a sharded batch (Table II's
``run_table2`` included) ships request JSON strings and gets strings
back.  The roots are the value types a caller is most likely to hand to
a pool of its own, a ``Table2Row`` and a ``JanusOptions``; every type
reachable from them must survive pickling.  Starting from
the configured seam roots, the checker resolves field-annotation types
transitively through the project's own classes and verifies each reached
class is

* **module-level** — nested classes pickle by qualname and fail at the
  worker,
* **slots-or-dataclass** — the repo's convention for value types with a
  stable, reviewable pickled form, and
* **free of unpicklables** — no ``lambda`` defaults, no fields annotated
  as callables (``Callable``, function types) or open handles
  (``IO``/``TextIO``/``BinaryIO``/file objects), no locks/conditions
  (``threading.*``) in the payload.

Annotation resolution is name-based: builtin containers and typing forms
are traversed into, unknown external names are ignored, and any name
matching a project class continues the walk.  ``# janalyze: allow-pickle
<reason>`` on the ``class`` line exempts one class.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from tools.janalyze.checkers.base import Checker, dotted_name
from tools.janalyze.findings import Finding
from tools.janalyze.project import Project, SourceFile

__all__ = ["PickleBoundaryChecker"]

DEFAULT_ROOTS = [
    "src/repro/bench/runner.py:Table2Row",
    "src/repro/core/janus.py:JanusOptions",
]

DEFAULT_SCAN_PATHS = ["src/repro"]

#: Annotation names that mark a field unpicklable at the pool boundary.
UNPICKLABLE_NAMES = {
    "Callable",
    "IO",
    "TextIO",
    "BinaryIO",
    "FunctionType",
    "LambdaType",
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Queue",
}

#: Names never followed into (builtins / typing plumbing).
_SKIP_NAMES = {
    "int", "float", "str", "bool", "bytes", "complex", "object", "None",
    "list", "tuple", "dict", "set", "frozenset",
    "Optional", "Union", "Any", "Sequence", "Mapping", "Iterable",
    "Iterator", "ClassVar", "Final", "Literal", "Annotated", "type",
}


@dataclass
class _ClassInfo:
    sf: SourceFile
    node: ast.ClassDef
    module_level: bool


class PickleBoundaryChecker(Checker):
    name = "pickle-boundary"
    description = (
        "types crossing the process-pool seam must be module-level, "
        "slots-or-dataclass, and free of lambdas/callables/handles"
    )

    def check(self, project: Project) -> list[Finding]:
        cfg = self.config(project)
        roots = cfg.get("roots", DEFAULT_ROOTS)
        scan_paths = cfg.get("paths", DEFAULT_SCAN_PATHS)
        index = self._class_index(project, scan_paths)

        findings: list[Finding] = []
        queue: list[str] = []
        for root in roots:
            rel, _, cls_name = root.partition(":")
            if not project.exists(rel):
                findings.append(
                    Finding(self.name, rel, 0,
                            f"seam root file missing for {cls_name!r} — "
                            "update tools/janalyze config")
                )
                continue
            if cls_name not in index:
                findings.append(
                    Finding(self.name, rel, 0,
                            f"seam root class {cls_name!r} not found — "
                            "update tools/janalyze config")
                )
                continue
            queue.append(cls_name)

        seen: set[str] = set()
        while queue:
            cls_name = queue.pop()
            if cls_name in seen:
                continue
            seen.add(cls_name)
            info = index.get(cls_name)
            if info is None:
                continue  # external / builtin name: not ours to audit
            findings.extend(self._check_class(info))
            for referenced in self._field_type_names(info.node):
                if referenced not in seen and referenced not in _SKIP_NAMES:
                    queue.append(referenced)
        return findings

    # ---------------------------------------------------------------- index
    def _class_index(
        self, project: Project, scan_paths: list[str]
    ) -> dict[str, _ClassInfo]:
        index: dict[str, _ClassInfo] = {}
        for sf in project.python_files(scan_paths):
            if sf.syntax_error is not None:
                continue
            for stmt in sf.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    index.setdefault(
                        stmt.name, _ClassInfo(sf, stmt, module_level=True)
                    )
            # Nested classes still need to be *findable* so the checker
            # can flag them as non-module-level when referenced.
            for node in ast.walk(sf.tree):
                if isinstance(node, ast.ClassDef) and node.name not in index:
                    index[node.name] = _ClassInfo(sf, node, module_level=False)
        return index

    # ---------------------------------------------------------- class audit
    def _check_class(self, info: _ClassInfo) -> list[Finding]:
        sf, node = info.sf, info.node
        symbol = node.name
        if sf.pragma_in_range("allow-pickle", node.lineno, node.lineno):
            return []
        findings: list[Finding] = []

        if not info.module_level:
            findings.append(
                self.finding(
                    sf, node,
                    f"class {node.name} crosses the process-pool seam but "
                    "is not module-level (pickles by qualname)",
                    symbol,
                )
            )
        if not self._is_dataclass(node) and not self._has_slots(node):
            findings.append(
                self.finding(
                    sf, node,
                    f"class {node.name} crosses the process-pool seam but "
                    "is neither a dataclass nor __slots__-defined",
                    symbol,
                )
            )
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign):
                findings.extend(
                    self._check_field(sf, stmt, symbol)
                )
        return findings

    def _check_field(
        self, sf: SourceFile, stmt: ast.AnnAssign, symbol: str
    ) -> list[Finding]:
        findings: list[Finding] = []
        field_name = (
            stmt.target.id if isinstance(stmt.target, ast.Name) else "?"
        )
        for ann_node in ast.walk(stmt.annotation):
            name = dotted_name(ann_node)
            if name is None:
                continue
            leaf = name.split(".")[-1]
            if leaf in UNPICKLABLE_NAMES:
                findings.append(
                    self.finding(
                        sf, stmt,
                        f"field {field_name!r} is annotated {name} — "
                        "unpicklable at the process-pool boundary",
                        symbol,
                    )
                )
        if stmt.value is not None:
            for default_node in ast.walk(stmt.value):
                if isinstance(default_node, ast.Lambda):
                    findings.append(
                        self.finding(
                            sf, stmt,
                            f"field {field_name!r} has a lambda default — "
                            "lambdas do not pickle",
                            symbol,
                        )
                    )
        return findings

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            name = dotted_name(
                deco.func if isinstance(deco, ast.Call) else deco
            )
            if name and name.split(".")[-1] == "dataclass":
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    def _field_type_names(self, node: ast.ClassDef) -> set[str]:
        names: set[str] = set()
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            for ann_node in ast.walk(stmt.annotation):
                name = dotted_name(ann_node)
                if name is not None:
                    names.add(name.split(".")[-1])
            # String annotations ("TargetSpec") hide names in constants.
            for const in ast.walk(stmt.annotation):
                if isinstance(const, ast.Constant) and isinstance(
                    const.value, str
                ):
                    for token in _identifier_tokens(const.value):
                        names.add(token)
        return names


def _identifier_tokens(text: str) -> list[str]:
    import re

    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
