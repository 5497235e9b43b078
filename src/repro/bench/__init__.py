"""Benchmark suite: instances, runner, and table regenerators.

Reproduces the paper's experimental section and doubles as the
heavy-workload harness:

* :mod:`repro.bench.instances` — the Table II/III benchmark functions
  (MCNC PLA outputs) with :func:`build_instance` constructing specs by
  name, plus the paper's published numbers for comparison;
* :mod:`repro.bench.runner` — :func:`run_table2` and profiles
  (``fast``/``medium``/``full`` budget tiers); a suite is one batch
  through :meth:`Session.run_batch <repro.api.Session.run_batch>`
  (``jobs=N`` shards its requests), and each row holds its responses;
* :mod:`repro.bench.tables` — Table I/II/III and Fig. 4 regenerators
  behind the ``janus table1|table2|table3|fig4`` CLI.

Timing benchmarks (wall-clock measurements rather than regenerated
tables) live in the top-level ``benchmarks/`` directory.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bench.instances": (
        "PAPER_TABLE2", "PAPER_TABLE3", "PaperRow", "build_instance",
        "build_multi_instance", "clpl_output", "instance_names",
        "squar5_outputs", "synth_signature",
    ),
    "repro.bench.runner": (
        "Table2Row", "default_options", "format_table2", "profile_names",
        "run_table2",
    ),
    "repro.bench.tables": (
        "Fig4Report", "Table3Row", "fig4", "table1", "table2", "table3",
    ),
})
