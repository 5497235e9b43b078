"""Wire-schema checker: field sync, EVENT_KINDS, error statuses.

Includes the absorption coverage for the retired ``tools/check_docs.py``
script: the real repo's schema sources must parse into non-empty field
sets and the checker must pass on the tree as committed.
"""

from __future__ import annotations

import textwrap

from tools.janalyze.checkers.wire_schema import (
    WireSchemaChecker,
    expected_fields,
)

DOC_WORDS = (
    "`rows` `cols` `cells` `num_vars` `jobs` `target` `result` "
    "`requests` `responses` `probe_started` `name`  `solver_calls`\n"
)


def fixture_files() -> dict[str, str]:
    return {
        "src/repro/engine/wire.py": textwrap.dedent(
            """\
            def attempt_to_wire(a):
                return {"rows": a.rows, "cols": a.cols}

            def assignment_to_wire(a):
                return {"cells": a.cells}

            def spec_snapshot(t):
                return {"num_vars": t.num_vars}
            """
        ),
        "src/repro/api/schema.py": textwrap.dedent(
            """\
            class RequestOptions:
                def to_wire(self):
                    return {"jobs": self.jobs}

            class SynthesisRequest:
                def to_wire(self):
                    return {"target": self.target}

            class SynthesisResponse:
                def to_wire(self):
                    return {"result": self.result}

            class BatchRequest:
                def to_wire(self):
                    return {"requests": self.requests}

            class BatchResponse:
                def to_wire(self):
                    return {"responses": self.responses}
            """
        ),
        "src/repro/engine/events.py": textwrap.dedent(
            """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class EngineEvent:
                name: str

            @dataclass(frozen=True)
            class ProbeStarted(EngineEvent):
                rows: int

            EVENT_KINDS = {"probe_started": ProbeStarted}
            """
        ),
        "src/repro/engine/parallel.py": textwrap.dedent(
            """\
            from dataclasses import dataclass

            @dataclass
            class EngineStats:
                solver_calls: int = 0
            """
        ),
        "docs/wire-schema.md": DOC_WORDS,
    }


def run(make_project, files):
    return WireSchemaChecker().check(make_project(files))


def test_synced_fixture_is_quiet(make_project):
    assert run(make_project, fixture_files()) == []


def test_undocumented_field_fires(make_project):
    files = fixture_files()
    files["docs/wire-schema.md"] = DOC_WORDS.replace("`cols` ", "")
    findings = run(make_project, files)
    assert len(findings) == 1
    assert "'cols'" in findings[0].message


def test_unregistered_event_class_fires(make_project):
    files = fixture_files()
    files["src/repro/engine/events.py"] += textwrap.dedent(
        """\

        @dataclass(frozen=True)
        class BoundComputed(EngineEvent):
            rows: int
        """
    )
    findings = run(make_project, files)
    assert any(
        "not registered in EVENT_KINDS" in f.message
        and f.symbol == "BoundComputed"
        for f in findings
    )


def test_event_field_collision_fires(make_project):
    files = fixture_files()
    files["src/repro/engine/events.py"] = files[
        "src/repro/engine/events.py"
    ].replace("    rows: int", "    rows: int\n    event: str")
    files["docs/wire-schema.md"] = DOC_WORDS + "`event`\n"
    findings = run(make_project, files)
    assert len(findings) == 1
    assert "collides with the wire tag" in findings[0].message


def test_undocumented_event_tag_fires(make_project):
    files = fixture_files()
    files["docs/wire-schema.md"] = DOC_WORDS.replace("probe_started", "redacted")
    findings = run(make_project, files)
    assert any(
        "tag 'probe_started' is not documented" in f.message
        for f in findings
    )


def test_missing_schema_source_is_reported(make_project):
    files = fixture_files()
    del files["src/repro/engine/parallel.py"]
    findings = run(make_project, files)
    assert len(findings) == 1
    assert "missing" in findings[0].message


def test_undocumented_status_fires(make_project):
    files = fixture_files()
    files["src/repro/server/protocol.py"] = textwrap.dedent(
        """\
        def status_for_exception(exc):
            if isinstance(exc, ValueError):
                return 400
            return 500
        """
    )
    files["docs/server.md"] = "400 means a bad request\n"
    findings = run(make_project, files)
    assert len(findings) == 1
    assert "error status 500" in findings[0].message


def test_documented_statuses_are_quiet(make_project):
    files = fixture_files()
    files["src/repro/server/protocol.py"] = textwrap.dedent(
        """\
        def status_for_exception(exc):
            return 500
        """
    )
    files["docs/server.md"] = "500 means a server bug\n"
    assert run(make_project, files) == []


# ------------------------------------------------- absorption: the real repo
def real_project(repo_root):
    from tools.janalyze.config import DEFAULT_CONFIG
    from tools.janalyze.project import Project

    return Project(root=repo_root, config=DEFAULT_CONFIG)


def test_real_repo_field_harvest_is_nonempty(repo_root):
    harvested = expected_fields(real_project(repo_root))
    assert len(harvested) == 11
    for source, fields in harvested.items():
        assert fields, f"harvested no fields from {source}"


def test_real_repo_schema_is_synced(repo_root):
    assert WireSchemaChecker().check(real_project(repo_root)) == []
