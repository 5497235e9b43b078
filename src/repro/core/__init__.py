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
  solver per LM instance; ``solve_lm_lazy`` is the CEGAR alternative;
* :mod:`repro.core.baselines` — the paper's comparison algorithms
  (exact/approx of Gange et al., the shape heuristic, p-circuits);
* autosymmetry and D-reducibility analyses used by decomposition.
"""

from repro.core.target import TargetSpec
from repro.core.structural import (
    shapes_of_area,
    sizes_coverable,
    structural_check,
    structural_lower_bound,
)
from repro.core.encoder import EncodeOptions, LmEncoding, best_encoding, encode_lm
from repro.core.bounds import (
    BoundResult,
    UB_METHODS,
    best_upper_bound,
    ub_dp,
    ub_dps,
    ub_idps,
    ub_ips,
    ub_ps,
)
from repro.core.decompose import partition_products, shrink_rows, ub_ds
from repro.core.janus import (
    JanusOptions,
    LmAttempt,
    LmOutcome,
    SynthesisResult,
    candidate_shapes,
    fit_columns,
    make_spec,
    solve_lm,
    synthesize,
)
from repro.core.multi import (
    MultiFunctionResult,
    merge_straightforward,
    synthesize_multi,
)
from repro.core.baselines import (
    approx_restricted,
    decompose_pcircuit,
    exact_search,
    heuristic_candidates,
)
from repro.core.autosymmetric import (
    AutosymmetricResult,
    autosymmetry_degree,
    linear_space,
    reduce_autosymmetric,
    synthesize_autosymmetric,
)
from repro.core.cegar import CegarOutcome, CegarStats, solve_lm_cegar
from repro.core.dreducible import (
    AffineSpace,
    DReducibleReduction,
    DReducibleResult,
    affine_hull,
    is_dreducible,
    reduce_dreducible,
    synthesize_dreducible,
)

__all__ = [
    "TargetSpec",
    "structural_check",
    "structural_lower_bound",
    "sizes_coverable",
    "shapes_of_area",
    "EncodeOptions",
    "LmEncoding",
    "encode_lm",
    "best_encoding",
    "BoundResult",
    "UB_METHODS",
    "best_upper_bound",
    "ub_dp",
    "ub_ps",
    "ub_dps",
    "ub_ips",
    "ub_idps",
    "ub_ds",
    "partition_products",
    "shrink_rows",
    "JanusOptions",
    "LmAttempt",
    "LmOutcome",
    "SynthesisResult",
    "synthesize",
    "solve_lm",
    "candidate_shapes",
    "fit_columns",
    "make_spec",
    "MultiFunctionResult",
    "synthesize_multi",
    "merge_straightforward",
    "approx_restricted",
    "exact_search",
    "heuristic_candidates",
    "decompose_pcircuit",
    "AutosymmetricResult",
    "autosymmetry_degree",
    "linear_space",
    "reduce_autosymmetric",
    "synthesize_autosymmetric",
    "CegarOutcome",
    "CegarStats",
    "solve_lm_cegar",
    "AffineSpace",
    "DReducibleReduction",
    "DReducibleResult",
    "affine_hull",
    "is_dreducible",
    "reduce_dreducible",
    "synthesize_dreducible",
]
