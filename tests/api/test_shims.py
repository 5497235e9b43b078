"""The old entrypoints are gone, and the no-direct-import rule."""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src" / "repro"


class TestTopLevelSynthesizeShim:
    def test_unknown_attribute_still_raises(self):
        import repro

        for name in ("no_such_thing", "synthesize"):
            with pytest.raises(AttributeError):
                getattr(repro, name)


class TestNoDirectCoreImports:
    """The acceptance criterion: frontends go through the facade."""

    @pytest.mark.parametrize(
        "relpath", ["cli.py", "bench/runner.py", "bench/tables.py"]
    )
    def test_frontends_do_not_import_core_synthesize(self, relpath):
        source = (SRC / relpath).read_text()
        for line in source.splitlines():
            if "from repro.core.janus import" in line:
                imported = line.split("import", 1)[1]
                assert not re.search(r"\bsynthesize\b", imported), (
                    f"{relpath} still imports core.janus.synthesize: {line!r}"
                )
