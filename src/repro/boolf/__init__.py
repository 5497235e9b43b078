"""Boolean-function substrate: cubes, covers, tables, minimization, I/O.

The representations everything above is built on:

* :class:`TruthTable` — dense bit-vector functions (the canonical form;
  cache keys and wire payloads serialize its packed bits);
* :class:`Cube` / :class:`Sop` — product terms and sum-of-products
  covers, with :func:`parse_sop` for the ``"ab + a'b'c"`` syntax the
  CLI and API accept;
* minimization — :func:`isop` (Minato–Morreale irredundant SOPs over
  function intervals), :func:`minimize` / ``exact_min_sop`` (exact
  two-level minimization), :func:`espresso` (heuristic);
* prime implicants, GF(2) linear algebra (for autosymmetry detection),
  and PLA file I/O (:func:`read_pla` / :func:`write_pla`).
"""

from repro._lazy import lazy_exports

# Bound eagerly: each name is also its submodule's, and importing the
# submodule later would rebind the package attribute to the module.
from repro.boolf.espresso import espresso
from repro.boolf.isop import isop
from repro.boolf.minimize import minimize

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.boolf.cube": ("Cube",),
    "repro.boolf.sop": ("Sop",),
    "repro.boolf.truthtable": ("TruthTable",),
    "repro.boolf.isop": ("isop", "isop_interval"),
    "repro.boolf.primes": ("prime_implicants", "is_prime"),
    "repro.boolf.minimize": ("minimize", "exact_min_sop"),
    "repro.boolf.espresso": ("espresso",),
    "repro.boolf.parse": ("parse_sop",),
    "repro.boolf.pla": ("PlaFile", "read_pla", "write_pla"),
    "repro.boolf.gf2": (
        "dot", "row_reduce", "rank", "in_span", "orthogonal_complement",
        "span_members",
    ),
})
