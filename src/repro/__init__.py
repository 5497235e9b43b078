"""repro — JANUS: SAT-based approximate logic synthesis on switching lattices.

A from-scratch reproduction of Aksoy & Altun, *"A Satisfiability-Based
Approximate Algorithm for Logic Synthesis Using Switching Lattices"*
(DATE 2019), including every substrate the paper relies on: a CDCL SAT
solver, a two-level logic minimizer, the switching-lattice path machinery,
the LM-to-SAT encoder, the bound constructions, the JANUS dichotomic
search, JANUS-MF for multi-output functions, and the baseline algorithms
the paper compares against.

Quickstart (the stable public API lives in :mod:`repro.api`)::

    from repro.api import Session

    with Session() as session:
        response = session.synthesize("ab + a'b'c")
    print(response.shape)                    # e.g. "3x2"
    print(response.result.assignment.to_text())  # the switch grid
    print(response.to_json())                # the JSON wire form

The lower-level building blocks (truth tables, covers, the SAT solver,
the encoder, the raw search drivers) stay importable from their
subpackages for research use.
"""

from repro.boolf import Cube, Sop, TruthTable, isop, minimize, parse_sop
from repro.core import (
    EncodeOptions,
    JanusOptions,
    MultiFunctionResult,
    SynthesisResult,
    TargetSpec,
    approx_restricted,
    decompose_pcircuit,
    exact_search,
    heuristic_candidates,
    make_spec,
    solve_lm,
    synthesize_multi,
)
from repro.engine import ParallelEngine, ResultCache
from repro.lattice import CONST0, CONST1, Entry, Grid, LatticeAssignment
from repro.sat import CdclSolver, Cnf, SolveResult, solve_cnf
from repro.api import (
    BatchRequest,
    BatchResponse,
    RequestOptions,
    Session,
    SynthesisRequest,
    SynthesisResponse,
)

__version__ = "1.9.0"

__all__ = [
    "Cube",
    "Sop",
    "TruthTable",
    "isop",
    "minimize",
    "parse_sop",
    "TargetSpec",
    "JanusOptions",
    "EncodeOptions",
    "SynthesisResult",
    "MultiFunctionResult",
    "synthesize_multi",
    "solve_lm",
    "make_spec",
    "exact_search",
    "approx_restricted",
    "heuristic_candidates",
    "decompose_pcircuit",
    "Grid",
    "LatticeAssignment",
    "Entry",
    "CONST0",
    "CONST1",
    "CdclSolver",
    "Cnf",
    "SolveResult",
    "solve_cnf",
    "ParallelEngine",
    "ResultCache",
    "Session",
    "SynthesisRequest",
    "SynthesisResponse",
    "BatchRequest",
    "BatchResponse",
    "RequestOptions",
    "__version__",
]

