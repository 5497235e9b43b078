"""Regenerators for every quantitative artifact in the paper.

* :func:`table1` — product counts of lattice functions and duals.
* :func:`fig4` — the six upper bounds on the worked example.
* :func:`table2` — the 48-instance single-function comparison.
* :func:`table3` — the multi-output comparison (straightforward vs MF).

Each returns structured data and a formatted report mixing measured and
published values, and is wired both to the CLI (``python -m repro ...``)
and to the pytest-benchmark modules in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.api.backends import BackendContext, get_backend
from repro.api.schema import BatchResponse
from repro.core.janus import JanusOptions
from repro.core.multi import merge_straightforward, synthesize_multi
from repro.core.target import TargetSpec
from repro.engine.events import EngineEvent
from repro.lattice.count import PAPER_TABLE1, format_table1, products_table
from repro.bench.instances import (
    PAPER_TABLE3,
    build_multi_instance,
)
from repro.bench.runner import (
    Table2Row,
    default_options,
    format_table2,
    profile_names,
    run_table2,
)

__all__ = ["table1", "fig4", "table2", "table3", "Fig4Report", "Table3Row"]

#: The worked example of Fig. 4 and its published bounds.
FIG4_FUNCTION = "cd + c'd' + abe + a'b'e'"
FIG4_PAPER_BOUNDS = {
    "dp": (6, 4),
    "ps": (3, 7),
    "dps": (11, 4),
    "ips": (3, 5),
    "idps": (8, 4),
    "ds": (3, 5),
}
FIG4_PAPER_LB = 12
FIG4_PAPER_MINIMUM = (3, 4)


def table1(max_m: int = 8, max_n: int = 8, check: bool = True) -> str:
    """Recompute Table I; optionally assert agreement with the paper."""
    entries = products_table(max_m, max_n)
    if check:
        mismatches = [
            (e.rows, e.cols, (e.products, e.dual_products), PAPER_TABLE1[(e.rows, e.cols)])
            for e in entries
            if (e.products, e.dual_products) != PAPER_TABLE1[(e.rows, e.cols)]
        ]
        if mismatches:
            raise AssertionError(f"Table I mismatches: {mismatches}")
    report = format_table1(entries)
    status = "all entries match the paper" if check else "unchecked"
    return f"{report}\n[{status}]"


@dataclass
class Fig4Report:
    bounds: dict[str, tuple[int, int]]
    lb: int
    solution: tuple[int, int]
    wall_time: float

    def format(self) -> str:
        lines = ["Fig. 4 worked example: f = " + FIG4_FUNCTION]
        lines.append(f"{'method':>8} {'measured':>9} {'paper':>7}")
        for method, paper_shape in FIG4_PAPER_BOUNDS.items():
            got = self.bounds.get(method)
            got_s = f"{got[0]}x{got[1]}" if got else "-"
            lines.append(
                f"{method:>8} {got_s:>9} {paper_shape[0]}x{paper_shape[1]:<5}"
            )
        lines.append(f"lower bound: {self.lb} (paper {FIG4_PAPER_LB})")
        lines.append(
            f"JANUS solution: {self.solution[0]}x{self.solution[1]} "
            f"(paper {FIG4_PAPER_MINIMUM[0]}x{FIG4_PAPER_MINIMUM[1]}) "
            f"in {self.wall_time:.1f}s"
        )
        return "\n".join(lines)


def fig4(options: Optional[JanusOptions] = None) -> Fig4Report:
    """Reproduce the Fig. 4 bound comparison and the 3x4 optimum.

    Every figure comes from one JANUS run, which computes the six upper
    bounds and the lower bound before it searches.
    """
    options = options or default_options()
    spec = TargetSpec.from_string(FIG4_FUNCTION, name="fig4")
    # Resolve JANUS through the backend registry (not core.janus
    # directly) but hand it the caller's full JanusOptions — the wire
    # schema's RequestOptions would drop the EncodeOptions knobs.
    result = get_backend("janus").run(spec, options, BackendContext())
    return Fig4Report(
        bounds=dict(result.upper_bounds),
        lb=result.initial_lower_bound,
        solution=(result.rows, result.cols),
        wall_time=result.wall_time,
    )


def table2(
    profile: Optional[str] = None,
    algorithms: Sequence[str] = ("janus",),
    names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = 1,
    cache=None,
    events: Optional[Callable[[EngineEvent], None]] = None,
) -> tuple[list[Table2Row], BatchResponse, str]:
    """Run the Table II comparison for a profile; returns the rows, the
    run's :class:`BatchResponse` and the formatted report."""
    rows, batch = run_table2(
        names if names is not None else profile_names(profile),
        algorithms,
        default_options(profile),
        jobs=jobs,
        cache=cache,
        events=events,
    )
    return rows, batch, format_table2(rows) + "\n" + _table2_summary(rows)


def _table2_summary(rows: list[Table2Row]) -> str:
    n = len(rows)
    avg_lb = sum(r.lb for r in rows) / n
    avg_old = sum(r.old_ub for r in rows) / n
    avg_new = sum(r.new_ub for r in rows) / n
    avg_sz = sum(r.results["janus"].size for r in rows) / n
    opt = sum(1 for r in rows if r.results["janus"].provably_minimum)
    lines = [
        f"instances: {n}",
        f"avg lb {avg_lb:.1f} | avg old ub {avg_old:.1f} | avg new ub "
        f"{avg_new:.1f} | ub improvement {100 * (1 - avg_new / avg_old):.1f}% "
        f"(paper: 42.8% on all 48)",
        f"avg JANUS size {avg_sz:.1f} | provably minimum on {opt}/{n}",
    ]
    for algo in ("exact", "approx", "heuristic", "pcircuit"):
        algo_rows = [r for r in rows if algo in r.results]
        if algo_rows:
            avg = sum(r.results[algo].size for r in algo_rows) / len(algo_rows)
            wins = sum(
                1
                for r in algo_rows
                if r.results["janus"].size <= r.results[algo].size
            )
            lines.append(
                f"avg {algo} size {avg:.1f} | JANUS <= {algo} on "
                f"{wins}/{len(algo_rows)}"
            )
    return "\n".join(lines)


@dataclass
class Table3Row:
    name: str
    outputs: int
    sf_shape: str
    sf_size: int
    sf_cpu: float
    mf_shape: str
    mf_size: int
    mf_cpu: float

    def format(self) -> str:
        paper = PAPER_TABLE3[self.name]
        return (
            f"{self.name:>8} out={self.outputs:<3} "
            f"sf {self.sf_shape:>7} size={self.sf_size:<4} "
            f"(paper {paper['sf_sol']} {paper['sf_size']}) | "
            f"mf {self.mf_shape:>7} size={self.mf_size:<4} "
            f"(paper {paper['mf_sol']} {paper['mf_size']}) | "
            f"gain {100 * (1 - self.mf_size / self.sf_size):.0f}%"
        )


def table3(
    names: Sequence[str] = ("squar5", "misex1", "bw"),
    options: Optional[JanusOptions] = None,
) -> tuple[list[Table3Row], str]:
    """Run the Table III multi-output comparison."""
    options = options or default_options()
    rows = []
    for name in names:
        specs = list(build_multi_instance(name))
        sf = merge_straightforward(specs, options)
        mf = synthesize_multi(specs, options=options)
        rows.append(
            Table3Row(
                name=name,
                outputs=len(specs),
                sf_shape=sf.shape,
                sf_size=sf.size,
                sf_cpu=sf.wall_time,
                mf_shape=mf.shape,
                mf_size=mf.size,
                mf_cpu=mf.wall_time,
            )
        )
    report = "\n".join(r.format() for r in rows)
    return rows, report
