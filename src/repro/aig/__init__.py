"""And-Inverter Graphs (AIGs) and SAT-based equivalence checking.

The paper's LM encoding works by building, per truth-table entry, the
combinational circuit of the lattice function and converting it to a POS
formula (its Fig. 2/Fig. 3).  This subpackage provides that circuit
substrate as a first-class citizen:

* :class:`Aig` — structurally hashed and-inverter graphs with complement
  edges, builders from covers/tables, constant propagation and
  simulation;
* :func:`tseitin` — the standard CNF encoding of an AIG cone (the
  general form of the paper's per-gate POS formulas);
* :func:`miter` / :func:`equivalent_sat` — combinational equivalence
  checking by SAT, used in tests to cross-verify lattice realizations
  against their targets through a second, independent pipeline.
"""

from repro._lazy import lazy_exports

# Bound eagerly: the name is also its submodule's, and importing the
# submodule later would rebind the package attribute to the module.
from repro.aig.tseitin import tseitin

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.aig.graph": ("Aig", "AigLit"),
    "repro.aig.tseitin": ("tseitin", "miter", "equivalent_sat"),
    "repro.aig.blif": ("BlifModel", "read_blif", "write_blif"),
})
