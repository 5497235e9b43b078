#!/usr/bin/env python3
"""End-to-end file workflow: PLA in, minimized and verified lattices out.

The LGSynth91 instances the paper benchmarks arrive as PLA files.  This
example runs the full tool-chain a user with their own benchmark files
would run:

1. write a small multi-output PLA (a 2-bit multiplier) to disk;
2. read it back, minimize each output with the espresso loop and
   compare against the exact minimizer;
3. synthesize every output on its own minimal lattice with JANUS and on
   one shared lattice with JANUS-MF, checking each lattice against the
   PLA's truth table on every input vector.

Run:  python examples/pla_workflow.py
"""

import pathlib
import tempfile

from repro import make_spec
from repro.api import RequestOptions, Session
from repro.boolf import TruthTable, espresso, exact_min_sop, read_pla
from repro.core import synthesize_multi


def multiplier_pla() -> str:
    """2x2-bit multiplier as PLA text (4 inputs a1 a0 b1 b0 -> 4 outputs)."""
    rows = []
    for a in range(4):
        for b in range(4):
            inputs = f"{a:02b}{b:02b}"
            product = a * b
            rows.append(f"{inputs} {product:04b}")
    header = ".i 4\n.o 4\n.ilb a1 a0 b1 b0\n.ob p3 p2 p1 p0\n"
    return header + "\n".join(rows) + "\n.e\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pla_path = pathlib.Path(tmp) / "mult2.pla"
        pla_path.write_text(multiplier_pla())

        with open(pla_path) as fh:
            pla = read_pla(fh)
        print(f"read {pla_path.name}: {len(pla.input_names)} inputs, "
              f"{len(pla.output_names)} outputs")

        options = RequestOptions(max_conflicts=40_000)
        tables: dict[str, TruthTable] = {}
        # One session for every per-output synthesis (facade + shared
        # engine config); JANUS-MF below stays on the core multi API.
        with Session() as session:
            for index, name in enumerate(pla.output_names):
                tt = pla.output_truthtable(index)
                tables[name] = tt
                heuristic = espresso(tt, names=pla.input_names)
                exact = exact_min_sop(tt, names=pla.input_names)
                print(f"\n{name}: espresso {len(heuristic)} products, "
                      f"exact minimum {len(exact)} products")
                if tt.is_zero():
                    print("  constant 0 - no lattice needed")
                    continue
                response = session.synthesize(
                    make_spec(tt, name=name), options=options
                )
                assert response.result.assignment.realizes(tt), name
                print(f"  lattice: {response.shape} = "
                      f"{response.size} switches, verified")

        # One shared lattice for the non-constant outputs (JANUS-MF).
        active = {k: v for k, v in tables.items() if not v.is_zero()}
        multi = synthesize_multi(
            list(active.values()), options=options.to_janus_options()
        )
        assert multi.verify(), "a JANUS-MF band misses its output"
        print(f"\nJANUS-MF shared lattice: {multi.rows}x{multi.cols} "
              f"= {multi.size} switches for {len(active)} outputs, "
              f"every band verified")


if __name__ == "__main__":
    main()
