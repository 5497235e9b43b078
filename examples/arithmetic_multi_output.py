#!/usr/bin/env python3
"""Realize a multi-output arithmetic block on one shared lattice (JANUS-MF).

The paper's Table III evaluates multi-output synthesis on LGSynth91
benchmarks; the nicest fully-reconstructible one is ``squar5``: the output
bits of a 5-bit squarer.  This example synthesizes a 4-bit squarer's
non-trivial output bits (a smaller sibling, so it runs in seconds) with

* the *straight-forward method*: one JANUS lattice per output, stacked
  side by side behind constant-0 isolation columns, and
* *JANUS-MF*: the same followed by the row-shrinking refinement.

It then reads each output back out of its column band and verifies it
against the arithmetic truth table.

Run:  python examples/arithmetic_multi_output.py
"""

from repro import JanusOptions, TruthTable
from repro.core import TargetSpec, merge_straightforward, synthesize_multi


def squarer_outputs(bits: int) -> list[TruthTable]:
    """Truth tables for the interesting bits of x**2, x a `bits`-bit input.

    Bit 0 equals x0 and bit 1 is constant 0, so real benchmarks (squar5)
    drop them; we do the same.
    """
    outs = []
    for k in range(2, 2 * bits):
        values = [(x * x) >> k & 1 for x in range(1 << bits)]
        outs.append(TruthTable.from_values(values, bits))
    return outs


def main() -> None:
    bits = 4
    tables = squarer_outputs(bits)
    specs = [
        TargetSpec.from_truthtable(tt, name=f"sq{bits}_bit{k + 2}")
        for k, tt in enumerate(tables)
    ]
    print(f"{bits}-bit squarer: {len(specs)} non-trivial output bits")
    for spec in specs:
        print(f"  {spec.name}: #pi={spec.num_products}, degree={spec.degree}")

    options = JanusOptions(max_conflicts=40_000)

    straightforward = merge_straightforward(specs, options)
    print(f"\nstraight-forward merge : {straightforward.shape} "
          f"= {straightforward.size} switches")

    mf = synthesize_multi(specs, options=options)
    print(f"JANUS-MF               : {mf.shape} = {mf.size} switches")
    gain = 100 * (1 - mf.size / straightforward.size)
    print(f"gain                   : {gain:.0f}% "
          f"(the paper reports up to 32% on Table III)")

    # Read each output back out of its column band and verify it.
    for index, spec in enumerate(mf.specs):
        band = mf.output_band(index)
        assert band.realizes(spec.tt), spec.name
        start, end = mf.column_ranges[index]
        print(f"  {spec.name}: columns [{start}, {end}) verified")

    print("\nshared lattice:")
    print(mf.assignment.to_text())


if __name__ == "__main__":
    main()
