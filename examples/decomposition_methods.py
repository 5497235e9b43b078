#!/usr/bin/env python3
"""Compare plain JANUS with the decomposition baselines ([8], [10]).

The related-work section of the paper surveys synthesis flows that
decompose the target before touching a lattice:

* **autosymmetry** ([10], Bernasconi et al.): factor out the linear
  space L_f, synthesize the smaller restriction, feed the lattice
  through EXOR gates;
* **D-reducibility** ([8]): when the onset lives in a proper affine
  subspace, synthesize only the projection onto that subspace.

Both trade lattice area for external gates — the JANUS paper notes the
extra wires "may not be desirable".  This example quantifies the trade
on a function engineered to favour decomposition:

    f = (a ^ b) (c ^ d) e

It is 2-autosymmetric *and* D-reducible, so all three flows apply.

Run:  python examples/decomposition_methods.py
"""

from repro import make_spec
from repro.api import RequestOptions, synthesize
from repro.boolf import TruthTable
from repro.core import (
    autosymmetry_degree,
    is_dreducible,
    synthesize_autosymmetric,
    synthesize_dreducible,
)


def target() -> TruthTable:
    return TruthTable.from_function(
        lambda x: (x[0] ^ x[1]) and (x[2] ^ x[3]) and x[4], 5
    )


def main() -> None:
    tt = target()
    spec = make_spec(tt, name="axb_cxd_e")
    request_options = RequestOptions(max_conflicts=60_000)
    options = request_options.to_janus_options()

    print("target: f = (a^b)(c^d)e")
    print(f"  minimized cover: {spec.isop.to_string()} "
          f"({spec.num_products} products)")
    print(f"  autosymmetry degree k = {autosymmetry_degree(tt)}")
    print(f"  D-reducible: {is_dreducible(tt)}")

    plain = synthesize(spec, options=request_options)
    print(f"\nplain JANUS        : {plain.shape} = {plain.size} switches, "
          f"no external gates")

    auto = synthesize_autosymmetric(tt, options=options)
    print(f"autosymmetric [10] : {auto.synthesis.shape} = "
          f"{auto.lattice_size} switches + {auto.num_exor_gates} EXOR gates "
          f"(restriction over "
          f"{auto.reduction.restriction.num_vars} vars)")

    dred = synthesize_dreducible(tt, options=options)
    print(f"D-reducible [8]    : {dred.synthesis.shape} = "
          f"{dred.lattice_size} switches + {dred.num_exor_gates} EXOR "
          f"constraints (hull dimension {dred.reduction.hull.dimension})")

    assert auto.realized_truthtable() == tt
    assert dred.realized_truthtable() == tt
    print("\nboth decompositions verified against the target "
          "on all 32 input vectors")


if __name__ == "__main__":
    main()
