"""Wire-schema exhaustiveness: code and docs must agree on the schema.

Three checks (run them with the doc-links checker alone as
``python -m tools.janalyze --only doc-links,wire-schema``):

1. **Field sync** — every field name re-derived from the wire sources
   (dict literals in ``engine/wire.py``, ``to_wire`` methods in
   ``api/schema.py``, the event dataclasses, ``EngineStats``) must be
   mentioned in ``docs/wire-schema.md``.
2. **EVENT_KINDS exhaustiveness** — every ``EngineEvent`` subclass in
   ``engine/events.py`` must be registered in ``EVENT_KINDS``; every
   registered tag must be documented; no event class may declare a field
   named ``event`` (it would collide with the wire tag injected by
   ``event_to_wire`` and break ``event_from_wire`` round-trips).
3. **Error-envelope statuses** — every HTTP status produced by
   ``server/protocol.py`` (``status_for_exception`` returns) and
   ``server/core.py``/``server/app.py`` (``http_status`` assignments)
   must appear in ``docs/server.md``.

All sources are parsed with :mod:`ast` — never imported — so the check
needs no PYTHONPATH and cannot be fooled by import-time side effects.
"""

from __future__ import annotations

import ast
import re

from tools.janalyze.checkers.base import Checker
from tools.janalyze.findings import Finding
from tools.janalyze.project import Project

__all__ = ["WireSchemaChecker", "expected_fields"]

WIRE = "src/repro/engine/wire.py"
SCHEMA = "src/repro/api/schema.py"
EVENTS = "src/repro/engine/events.py"
PARALLEL = "src/repro/engine/parallel.py"
PROTOCOL = "src/repro/server/protocol.py"
APP = "src/repro/server/app.py"
CORE = "src/repro/server/core.py"
WIRE_DOC = "docs/wire-schema.md"
SERVER_DOC = "docs/server.md"

EVENT_BASE = "EngineEvent"


# --------------------------------------------------------- field harvesting
def _dict_keys_in_function(tree: ast.AST, function: str) -> set[str]:
    """String keys of every dict literal inside one module-level function."""
    keys: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Dict):
                    for key in sub.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            keys.add(key.value)
    return keys


def _method_dict_keys(tree: ast.AST, cls: str, method: str) -> set[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return _dict_keys_in_function(node, method)
    return set()


def _dataclass_fields(tree: ast.AST, cls: str) -> set[str]:
    fields: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    fields.add(stmt.target.id)
    return fields


def _event_classes(tree: ast.Module) -> dict[str, set[str]]:
    """``{class name: field names}`` for every EngineEvent subclass."""
    classes: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name == EVENT_BASE:
            continue
        bases = {
            base.id for base in node.bases if isinstance(base, ast.Name)
        }
        if EVENT_BASE in bases:
            classes[node.name] = _dataclass_fields(tree, node.name)
    return classes


def _event_kinds(tree: ast.Module) -> dict[str, str]:
    """``{wire tag: class name}`` from the EVENT_KINDS dict literal."""
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if (
            isinstance(target, ast.Name)
            and target.id == "EVENT_KINDS"
            and isinstance(value, ast.Dict)
        ):
            kinds: dict[str, str] = {}
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) and isinstance(
                    val, ast.Name
                ):
                    kinds[key.value] = val.id
            return kinds
    return {}


def expected_fields(project: Project) -> dict[str, set[str]]:
    """``{source label: field names}`` re-derived from the code.

    Used by :meth:`WireSchemaChecker.check` and importable for the
    tests.
    """
    wire = project.source(WIRE).tree
    schema = project.source(SCHEMA).tree
    events = project.source(EVENTS).tree
    parallel = project.source(PARALLEL).tree

    event_fields: set[str] = _dataclass_fields(events, EVENT_BASE)
    for fields in _event_classes(events).values():
        event_fields |= fields

    return {
        f"{WIRE} attempt_to_wire": _dict_keys_in_function(
            wire, "attempt_to_wire"
        ),
        f"{WIRE} assignment_to_wire": _dict_keys_in_function(
            wire, "assignment_to_wire"
        ),
        f"{WIRE} spec_snapshot": _dict_keys_in_function(wire, "spec_snapshot"),
        f"{SCHEMA} RequestOptions.to_wire": _method_dict_keys(
            schema, "RequestOptions", "to_wire"
        ),
        f"{SCHEMA} SynthesisRequest.to_wire": _method_dict_keys(
            schema, "SynthesisRequest", "to_wire"
        ),
        f"{SCHEMA} SynthesisResponse.to_wire": _method_dict_keys(
            schema, "SynthesisResponse", "to_wire"
        ),
        f"{SCHEMA} BatchRequest.to_wire": _method_dict_keys(
            schema, "BatchRequest", "to_wire"
        ),
        f"{SCHEMA} BatchResponse.to_wire": _method_dict_keys(
            schema, "BatchResponse", "to_wire"
        ),
        f"{EVENTS} EVENT_KINDS": set(_event_kinds(events)),
        f"{EVENTS} event fields": event_fields,
        f"{PARALLEL} EngineStats": _dataclass_fields(parallel, "EngineStats"),
    }


def _status_literals(tree: ast.Module) -> set[int]:
    """HTTP statuses a server module produces.

    ``return <int>`` inside ``status_for_exception`` plus every
    ``http_status = <int>`` class attribute (the routing-error classes).
    """
    statuses: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (
            node.name == "status_for_exception"
        ):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Return)
                    and isinstance(sub.value, ast.Constant)
                    and isinstance(sub.value.value, int)
                ):
                    statuses.add(sub.value.value)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "http_status"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    statuses.add(node.value.value)
    return statuses


class WireSchemaChecker(Checker):
    name = "wire-schema"
    description = (
        "wire fields, EVENT_KINDS and error statuses must be exhaustive "
        "and documented"
    )

    def check(self, project: Project) -> list[Finding]:
        missing = [
            rel
            for rel in (WIRE, SCHEMA, EVENTS, PARALLEL, WIRE_DOC)
            if not project.exists(rel)
        ]
        if missing:
            return [
                Finding(
                    self.name, rel, 0,
                    "wire-schema source missing — update tools/janalyze "
                    "config if it moved",
                )
                for rel in missing
            ]
        findings: list[Finding] = []
        findings.extend(self._check_field_sync(project))
        findings.extend(self._check_event_kinds(project))
        findings.extend(self._check_statuses(project))
        return findings

    # ----------------------------------------------------------- field sync
    def _check_field_sync(self, project: Project) -> list[Finding]:
        doc = project.read(WIRE_DOC)
        # Whole-word harvest over the page (tables, prose and JSON
        # examples alike): a field counts as documented when its exact
        # name appears anywhere.  The gate is "nobody adds a wire field
        # without touching the doc", not prose quality.
        documented = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", doc))
        findings = []
        for source, fields in sorted(expected_fields(project).items()):
            if not fields:
                findings.append(
                    Finding(
                        self.name, WIRE_DOC, 0,
                        f"found no fields in {source} — the checker's "
                        "parser is out of date",
                    )
                )
                continue
            for field in sorted(fields):
                if field not in documented:
                    findings.append(
                        Finding(
                            self.name, WIRE_DOC, 0,
                            f"{source} field {field!r} is not documented "
                            f"in {WIRE_DOC}",
                        )
                    )
        return findings

    # ---------------------------------------------------------- EVENT_KINDS
    def _check_event_kinds(self, project: Project) -> list[Finding]:
        sf = project.source(EVENTS)
        tree = sf.tree
        classes = _event_classes(tree)
        kinds = _event_kinds(tree)
        registered = set(kinds.values())
        doc_words = set(
            re.findall(r"[A-Za-z_][A-Za-z0-9_]*", project.read(WIRE_DOC))
        )
        findings: list[Finding] = []
        for cls_name in sorted(classes):
            if cls_name not in registered:
                findings.append(
                    Finding(
                        self.name, EVENTS, 0,
                        f"event class {cls_name} is not registered in "
                        "EVENT_KINDS — it cannot cross the wire",
                        symbol=cls_name,
                    )
                )
            if "event" in classes[cls_name]:
                findings.append(
                    Finding(
                        self.name, EVENTS, 0,
                        f"event class {cls_name} declares a field named "
                        "'event' — collides with the wire tag and breaks "
                        "event_to_wire/event_from_wire round-trips",
                        symbol=cls_name,
                    )
                )
        for tag, cls_name in sorted(kinds.items()):
            if cls_name not in classes:
                findings.append(
                    Finding(
                        self.name, EVENTS, 0,
                        f"EVENT_KINDS tag {tag!r} maps to {cls_name}, "
                        "which is not an EngineEvent subclass",
                    )
                )
            if tag not in doc_words:
                findings.append(
                    Finding(
                        self.name, WIRE_DOC, 0,
                        f"EVENT_KINDS tag {tag!r} is not documented in "
                        f"{WIRE_DOC}",
                    )
                )
        return findings

    # -------------------------------------------------------- error statuses
    def _check_statuses(self, project: Project) -> list[Finding]:
        statuses: set[int] = set()
        for rel in (PROTOCOL, APP, CORE):
            if project.exists(rel):
                statuses |= _status_literals(project.source(rel).tree)
        if not statuses or not project.exists(SERVER_DOC):
            return []  # no server layer in this tree (fixture projects)
        documented = set(
            int(m) for m in re.findall(r"\b[1-5]\d\d\b", project.read(SERVER_DOC))
        )
        return [
            Finding(
                self.name, SERVER_DOC, 0,
                f"error status {status} produced by the server is not "
                f"documented in {SERVER_DOC}",
            )
            for status in sorted(statuses - documented)
        ]
