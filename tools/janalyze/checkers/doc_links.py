"""Relative markdown links in docs/ and README.md must resolve.

External ``http(s)://`` /
``mailto:`` and pure ``#anchor`` links are skipped; ``path#anchor``
forms are checked for the path part only.
"""

from __future__ import annotations

import re
from pathlib import Path

from tools.janalyze.checkers.base import Checker
from tools.janalyze.findings import Finding
from tools.janalyze.project import Project

__all__ = ["DocLinksChecker"]

#: markdown inline links: [text](target)
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

DEFAULT_PAGES = ["docs", "README.md"]


class DocLinksChecker(Checker):
    name = "doc-links"
    description = "every relative markdown link in docs/ and README resolves"

    def check(self, project: Project) -> list[Finding]:
        pages: list[Path] = []
        for scope in self.config(project).get("pages", DEFAULT_PAGES):
            base = project.root / scope
            if base.is_dir():
                pages.extend(sorted(base.glob("*.md")))
            elif base.is_file():
                pages.append(base)
        findings: list[Finding] = []
        for page in pages:
            rel = page.relative_to(project.root).as_posix()
            for lineno, line in enumerate(
                page.read_text(encoding="utf-8").splitlines(), start=1
            ):
                for target in _LINK_RE.findall(line):
                    if target.startswith(
                        ("http://", "https://", "mailto:", "#")
                    ):
                        continue
                    path = target.split("#", 1)[0]
                    if not path:
                        continue
                    if not (page.parent / path).resolve().exists():
                        findings.append(
                            Finding(
                                self.name, rel, lineno,
                                f"broken link -> {target}",
                            )
                        )
        return findings
