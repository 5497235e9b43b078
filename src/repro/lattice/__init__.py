"""Switching-lattice substrate: geometry, paths, functions, assignments.

The hardware model the paper synthesizes for: a grid of four-terminal
switches where a function is realized by top-to-bottom connectivity
(and its dual by left-to-right connectivity):

* :class:`Grid` and the path machinery — enumeration/counting of
  top-bottom and (8-connected) left-right paths, the basis of both the
  LM encoding and Table I;
* :func:`lattice_function` / :func:`lattice_dual_function` — evaluate
  what a switch assignment actually computes (the independent checker
  used to verify every synthesized lattice);
* :class:`LatticeAssignment` — the result form (per-cell literals or
  constants), shared by the wire schema and renderers;
* fault analysis (:func:`fault_table`, minimal test sets) and ASCII/SVG
  rendering.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.lattice.grid": ("Grid",),
    "repro.lattice.paths": (
        "top_bottom_paths", "left_right_paths8", "iter_top_bottom_paths",
        "iter_left_right_paths8", "count_top_bottom_paths",
        "count_left_right_paths8",
    ),
    "repro.lattice.function": (
        "lattice_function", "lattice_dual_function", "products_to_sop",
        "switch_names",
    ),
    "repro.lattice.assignment": (
        "Entry", "LatticeAssignment", "CONST0", "CONST1",
    ),
    "repro.lattice.count": (
        "TableEntry", "count_products", "products_table", "format_table1",
        "PAPER_TABLE1",
    ),
    "repro.lattice.render": ("render_ascii", "render_svg", "conducting_cells"),
    "repro.lattice.symmetry": (
        "flip_horizontal", "flip_vertical", "rotate_180", "orbit",
        "canonical_form", "equivalent",
    ),
    "repro.lattice.faults": (
        "Fault", "FaultReport", "inject", "fault_universe",
        "detecting_vectors", "fault_table", "minimal_test_set",
        "fault_coverage",
    ),
})
