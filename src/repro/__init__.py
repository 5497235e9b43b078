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
subpackages for research use.  Every package exports lazily
(:mod:`repro._lazy`): a name's module is imported on first use, so a
request loads only the modules it runs.
"""

from repro._lazy import lazy_exports

__version__ = "1.21.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.boolf.cube": ("Cube",),
    "repro.boolf.sop": ("Sop",),
    "repro.boolf.truthtable": ("TruthTable",),
    "repro.boolf.isop": ("isop",),
    "repro.boolf.minimize": ("minimize",),
    "repro.boolf.parse": ("parse_sop",),
    "repro.core.target": ("TargetSpec",),
    "repro.core.janus": (
        "JanusOptions", "SynthesisResult", "solve_lm", "make_spec",
    ),
    "repro.core.encoder": ("EncodeOptions",),
    "repro.core.multi": ("MultiFunctionResult", "synthesize_multi"),
    "repro.core.baselines": (
        "exact_search", "approx_restricted", "heuristic_candidates",
        "decompose_pcircuit",
    ),
    "repro.lattice.grid": ("Grid",),
    "repro.lattice.assignment": (
        "LatticeAssignment", "Entry", "CONST0", "CONST1",
    ),
    "repro.sat.cnf": ("Cnf",),
    "repro.sat.solver": ("CdclSolver", "SolveResult", "solve_cnf"),
    "repro.engine.parallel": ("ParallelEngine",),
    "repro.engine.cache": ("ResultCache",),
    "repro.api.session": ("Session",),
    "repro.api.schema": (
        "SynthesisRequest", "SynthesisResponse", "BatchRequest",
        "BatchResponse", "RequestOptions",
    ),
})
__all__.append("__version__")
