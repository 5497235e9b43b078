"""JANUS core: targets, bounds, LM encoding, synthesis drivers, baselines.

The paper's algorithm proper, independent of any parallel/caching
machinery:

* :class:`TargetSpec` — the function to realize (truth table +
  don't-cares + minimized covers), the input type every driver takes;
* :func:`encode_lm` / :class:`LmEncoding` — the lattice-mapping-to-SAT
  encoding (primal and dual sides);
* bounds — structural lower bounds and the constructive upper-bound
  ladder (``dp``/``ps``/``dps``/``ips``/``idps`` and the recursive
  ``ds`` decomposition);
* :func:`synthesize` — the dichotomic JANUS driver, parameterized by a
  :class:`SerialProber` (the seam :class:`repro.engine.ParallelEngine`
  plugs into); every probe is one :func:`solve_lm` call, one fresh
  solver per LM instance; :func:`solve_lm_cegar`
  (:mod:`repro.core.cegar`) decides the same LM instance by lazy
  counterexample-guided refinement instead;
* :mod:`repro.core.baselines` — the paper's comparison algorithms
  (exact/approx of Gange et al., the shape heuristic, p-circuits);
* autosymmetry and D-reducibility analyses used by decomposition.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.target": ("TargetSpec",),
    "repro.core.structural": (
        "structural_check", "structural_lower_bound", "sizes_coverable",
        "shapes_of_area",
    ),
    "repro.core.encoder": (
        "EncodeOptions", "LmEncoding", "encode_lm", "best_encoding",
    ),
    "repro.core.bounds": (
        "BoundResult", "UB_METHODS", "best_upper_bound", "ub_dp", "ub_ps",
        "ub_dps", "ub_ips", "ub_idps",
    ),
    "repro.core.decompose": ("ub_ds", "partition_products", "shrink_rows"),
    "repro.core.janus": (
        "JanusOptions", "LmAttempt", "LmOutcome", "SynthesisResult",
        "synthesize", "solve_lm", "candidate_shapes", "fit_columns",
        "make_spec",
    ),
    "repro.core.multi": (
        "MultiFunctionResult", "synthesize_multi", "merge_straightforward",
    ),
    "repro.core.baselines": (
        "approx_restricted", "exact_search", "heuristic_candidates",
        "decompose_pcircuit",
    ),
    "repro.core.autosymmetric": (
        "AutosymmetricResult", "autosymmetry_degree", "linear_space",
        "reduce_autosymmetric", "synthesize_autosymmetric",
    ),
    "repro.core.cegar": ("CegarOutcome", "CegarStats", "solve_lm_cegar"),
    "repro.core.dreducible": (
        "AffineSpace", "DReducibleReduction", "DReducibleResult",
        "affine_hull", "is_dreducible", "reduce_dreducible",
        "synthesize_dreducible",
    ),
})
