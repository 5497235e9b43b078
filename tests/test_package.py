"""Package-level tests: public API surface and end-to-end smoke."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

# Every package's export list, pinned: lazy loading must not change what
# a package offers.
EXPORTS = {
    "repro": """
        BatchRequest BatchResponse CONST0 CONST1 CdclSolver Cnf Cube
        EncodeOptions Entry Grid JanusOptions LatticeAssignment
        MultiFunctionResult ParallelEngine RequestOptions ResultCache
        Session SolveResult Sop SynthesisRequest SynthesisResponse
        SynthesisResult TargetSpec TruthTable __version__
        approx_restricted decompose_pcircuit exact_search
        heuristic_candidates isop make_spec minimize parse_sop solve_cnf
        solve_lm synthesize_multi
    """,
    "repro.api": """
        API_VERSION ApiError Backend BackendContext BackendRegistry
        BatchRequest BatchResponse BoundComputed CacheEvent EVENT_KINDS
        EngineEvent ProbeFinished ProbeStarted REGISTRY RequestOptions
        Session SynthesisFinished SynthesisRequest SynthesisResponse
        SynthesisStarted UnknownBackendError ValidationError
        backend_names event_from_wire event_to_wire get_backend
        register_backend run_batch synthesize
    """,
    "repro.bench": """
        Fig4Report PAPER_TABLE2 PAPER_TABLE3 PaperRow Table2Row Table3Row
        build_instance build_multi_instance clpl_output default_options
        fig4 format_table2 instance_names profile_names run_table2
        squar5_outputs synth_signature table1 table2 table3
    """,
    "repro.boolf": """
        Cube PlaFile Sop TruthTable dot espresso exact_min_sop in_span
        is_prime isop isop_interval minimize orthogonal_complement
        parse_sop prime_implicants rank read_pla row_reduce span_members
        write_pla
    """,
    "repro.core": """
        AffineSpace AutosymmetricResult BoundResult DReducibleReduction
        DReducibleResult EncodeOptions JanusOptions LmAttempt LmEncoding
        LmOutcome MultiFunctionResult
        SynthesisResult TargetSpec UB_METHODS affine_hull
        approx_restricted autosymmetry_degree best_encoding
        best_upper_bound candidate_shapes decompose_pcircuit encode_lm
        exact_search fit_columns heuristic_candidates is_dreducible
        linear_space make_spec merge_straightforward partition_products
        reduce_autosymmetric reduce_dreducible shapes_of_area
        shrink_rows sizes_coverable solve_lm
        structural_check structural_lower_bound synthesize
        synthesize_autosymmetric synthesize_dreducible synthesize_multi
        ub_dp ub_dps ub_ds ub_idps ub_ips ub_ps
    """,
    "repro.engine": """
        BoundComputed CacheEvent CacheStats EngineEvent EngineStats
        EventEmitter GcReport LruCache ParallelEngine ProbeFinished
        ProbeStarted ResultCache SynthesisFinished SynthesisStarted
        VerifyReport cache_stats default_jobs gc_cache lm_cache_key
        options_fingerprint resolve_jobs spec_fingerprint
        suite_cache_key synthesis_from_payload synthesis_payload
        verify_cache
    """,
    "repro.gen": """
        AutosymmetricFamily DReducibleFamily FAMILY_KINDS Family
        FaultFamily LEVELS MultiOutputFamily PlaCoverFamily
        RandomTruthTableFamily TwinPair generated_specs ladder
        make_family make_twins to_batch_request
    """,
    "repro.lattice": """
        CONST0 CONST1 Entry Fault FaultReport Grid LatticeAssignment
        PAPER_TABLE1 TableEntry conducting_cells
        count_left_right_paths8 count_products count_top_bottom_paths
        detecting_vectors fault_coverage fault_table fault_universe
        format_table1 inject iter_left_right_paths8
        iter_top_bottom_paths lattice_dual_function lattice_function
        left_right_paths8 minimal_test_set products_table
        products_to_sop render_ascii render_svg switch_names
        top_bottom_paths
    """,
    "repro.sat": """
        CdclSolver Cnf ProofCheck SolveResult SolverStats VarPool
        at_least_one at_most_one_commander at_most_one_pairwise
        at_most_one_sequential check_refutation
        check_rup exactly_one read_dimacs read_drat solve_cnf
        write_dimacs write_drat
    """,
    "repro.server": """
        MultiProcessServer ServiceCore SessionPool SynthesisServer
        error_wire make_server multiprocess_supported status_for_exception
    """,
}

# Exports that are plain data (no ``__module__`` of their own) and the
# module that defines them.
DATA_HOMES = {
    "__version__": "repro",
    "API_VERSION": "repro.api.schema",
    "EVENT_KINDS": "repro.engine.events",
    "PAPER_TABLE1": "repro.lattice.count",
    "PAPER_TABLE2": "repro.bench.instances",
    "PAPER_TABLE3": "repro.bench.instances",
    "UB_METHODS": "repro.core.bounds",
    "FAMILY_KINDS": "repro.gen.ladder",
    "LEVELS": "repro.gen.ladder",
}

# Exported functions named like the submodule that defines them.
SHADOWING = [
    "repro.boolf.isop",
    "repro.boolf.minimize",
    "repro.boolf.espresso",
    "repro.gen.ladder",
]


def _run_fresh(script: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestApi:
    def test_version(self):
        assert repro.__version__ == "1.22.0"

    def test_all_exports_resolve(self):
        for package, exports in EXPORTS.items():
            pkg = importlib.import_module(package)
            assert sorted(pkg.__all__) == sorted(exports.split()), package
            listed = dir(pkg)
            for name in pkg.__all__:
                value = getattr(pkg, name)
                home = DATA_HOMES.get(name) or value.__module__
                defining = importlib.import_module(home)
                assert getattr(defining, name) is value, (package, name)
                assert name in listed, (package, name)

    @pytest.mark.parametrize("package", sorted(EXPORTS))
    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError):
            pkg.no_such_export
        assert not hasattr(pkg, "no_such_export")

    @pytest.mark.parametrize("submodule", SHADOWING)
    def test_shadowing_export_survives_its_submodule(self, submodule):
        # A fresh interpreter imports the same-named submodule first; the
        # package attribute must still be the exported function, both
        # then and after the package's other exports load.
        package, name = submodule.rsplit(".", 1)
        script = (
            "import importlib, inspect\n"
            f"importlib.import_module({submodule!r})\n"
            f"pkg = importlib.import_module({package!r})\n"
            f"assert inspect.isfunction(pkg.{name}), pkg.{name}\n"
            "for export in pkg.__all__:\n"
            "    getattr(pkg, export)\n"
            f"assert inspect.isfunction(pkg.{name}), pkg.{name}\n"
        )
        _run_fresh(script)

    def test_submodules_resolve_as_attributes(self):
        # As with eager re-exports, a bare ``import repro`` reaches every
        # subpackage and module by attribute.
        _run_fresh(
            "import repro\n"
            "assert callable(repro.core.janus.solve_lm)\n"
            "assert callable(repro.lattice.render.render_ascii)\n"
            "assert callable(repro.sat.drat.check_refutation)\n"
        )

    def test_shadowing_export_is_the_function_in_process(self):
        for submodule in SHADOWING:
            package, name = submodule.rsplit(".", 1)
            module = importlib.import_module(submodule)
            value = getattr(importlib.import_module(package), name)
            assert inspect.isfunction(value)
            assert value is getattr(module, name)

    def test_quickstart_docstring_flow(self):
        with repro.Session() as session:
            result = session.synthesize("ab + a'b'c").result
        assert result.size >= 1
        assert "x" in result.shape
        text = result.assignment.to_text()
        assert text.count("\n") == result.rows - 1


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in (
            "ParseError",
            "DimensionError",
            "EncodingError",
            "SolverError",
            "SynthesisError",
            "BudgetExceeded",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)
