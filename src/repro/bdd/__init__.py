"""Reduced ordered binary decision diagrams (ROBDDs).

The classic two-level-minimization literature (including the Minato-
Morreale ISOP algorithm that `repro.boolf.isop` implements over dense
tables) is formulated over BDDs.  This subpackage provides an honest ROBDD
manager sized for the paper's workloads (functions of at most ~16 inputs):

* :class:`Bdd` — manager with a unique table, hash-consed nodes, an ITE
  computed cache, Boolean connectives, quantification, composition,
  satisfying-assignment counting and conversions to/from the dense
  :class:`~repro.boolf.truthtable.TruthTable` and
  :class:`~repro.boolf.sop.Sop` representations.
* :func:`bdd_isop` — Minato-Morreale irredundant SOP extraction over a
  function interval, the BDD counterpart of
  :func:`repro.boolf.isop.isop_interval`.
* :func:`with_order` / :func:`sift` — rebuild-based variable reordering.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bdd.manager": ("Bdd", "BddFunction"),
    "repro.bdd.isop": ("bdd_isop",),
    "repro.bdd.reorder": ("sift", "with_order"),
})
