"""Experiment runner: Table II as one batch of synthesis requests.

The runner mirrors the paper's reporting: for every instance it records
the function signature (#in, #pi, degree), the initial bounds (lb, old ub
from DP/PS/DPS, new ub including IPS/IDPS/DS) and, per algorithm, the
solution shape, switch count and wall time.  JANUS computes those bounds
on its way to the lattice, so every bound column is read from the
``janus`` response.  Published values ride along so harnesses can print
paper-vs-measured side by side.

Profiles keep the default run laptop-sized:

* ``fast``   — instances with at most 7 inputs (sub-second LM probes);
* ``medium`` — everything up to 8 inputs;
* ``full``   — all 48 instances (the 10/11-input ones are slow in pure
  Python; expect long runtimes, as the authors did with 6-hour budgets).

Select with ``REPRO_BENCH_PROFILE`` or the ``profile`` argument.

:func:`run_table2` builds one :class:`~repro.api.BatchRequest` with a
request per (instance, algorithm) and runs it through
:meth:`Session.run_batch <repro.api.Session.run_batch>`: ``jobs=4``
shards the requests over four worker processes and ``cache=<dir>``
shares one persistent cache between them and across runs (see
:mod:`repro.engine`).  A warm run is served whole from the suite cache:
zero SAT calls and zero upper-bound constructions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.api.schema import (
    BatchRequest,
    BatchResponse,
    RequestOptions,
    SynthesisRequest,
    SynthesisResponse,
)
from repro.api.session import Session
from repro.core.janus import JanusOptions
from repro.core.target import TargetSpec
from repro.engine.events import EngineEvent
from repro.bench.instances import PAPER_TABLE2, PaperRow, build_instance

__all__ = [
    "Table2Row",
    "profile_names",
    "run_table2",
    "format_table2",
    "default_options",
]

_FAST_MAX_INPUTS = 7
_MEDIUM_MAX_INPUTS = 8
_OLD_UB_METHODS = ("dp", "ps", "dps")


def profile_names(profile: Optional[str] = None) -> list[str]:
    """Instance names included in a bench profile."""
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "fast")
    if profile == "full":
        return [row.name for row in PAPER_TABLE2]
    if profile == "medium":
        return [
            row.name
            for row in PAPER_TABLE2
            if row.num_inputs <= _MEDIUM_MAX_INPUTS
        ]
    if profile == "fast":
        return [
            row.name
            for row in PAPER_TABLE2
            if row.num_inputs <= _FAST_MAX_INPUTS and row.num_products <= 7
        ]
    raise ValueError(f"unknown profile {profile!r} (fast|medium|full)")


def default_options(profile: Optional[str] = None) -> JanusOptions:
    """Solver budgets matched to the profile."""
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "fast")
    if profile == "full":
        return JanusOptions(max_conflicts=400_000, lm_time_limit=1200.0)
    if profile == "medium":
        return JanusOptions(max_conflicts=150_000, lm_time_limit=300.0)
    return JanusOptions(max_conflicts=30_000, lm_time_limit=30.0)


@dataclass
class Table2Row:
    """Everything reported for one instance of Table II.

    ``results`` holds one :class:`SynthesisResponse` per algorithm.  The
    bound columns are read from the ``janus`` response, which computed
    them on its way to the lattice.
    """

    name: str
    spec: TargetSpec
    paper: PaperRow
    results: dict[str, SynthesisResponse] = field(default_factory=dict)

    @property
    def signature_exact(self) -> bool:
        """False when the synthesizer only approximated the signature."""
        return not self.spec.name.startswith("~")

    @property
    def lb(self) -> int:
        """The structural lower bound JANUS started from."""
        return self.results["janus"].initial_lower_bound

    @property
    def new_ub(self) -> int:
        """Best upper bound of every method (IPS/IDPS/DS included)."""
        bounds = self.results["janus"].upper_bounds.values()
        return min(rows * cols for rows, cols in bounds)

    @property
    def old_ub(self) -> int:
        """Best upper bound of the older DP/PS/DPS methods (the new one
        when JANUS computed none of them: a trivial target, or
        ``ub_methods`` without them)."""
        bounds = self.results["janus"].upper_bounds
        return min(
            (rows * cols for m, (rows, cols) in bounds.items()
             if m in _OLD_UB_METHODS),
            default=self.new_ub,
        )


def _request_options(options: JanusOptions) -> RequestOptions:
    """The wire form of ``options``; a setting it cannot carry is an
    error, never dropped."""
    wire = RequestOptions.from_janus_options(options)
    carried = wire.to_janus_options()
    lost = [
        f.name for f in fields(options)
        if getattr(options, f.name) != getattr(carried, f.name)
    ]
    if lost:
        raise ValueError(
            f"table2 runs requests on the wire, which cannot carry the "
            f"non-default option(s) {', '.join(lost)}"
        )
    return wire


def run_table2(
    names: Optional[Sequence[str]] = None,
    algorithms: Sequence[str] = ("janus",),
    options: Optional[JanusOptions] = None,
    jobs: Optional[int] = 1,
    cache: Union[str, Path, None] = None,
    events: Optional[Callable[[EngineEvent], None]] = None,
) -> tuple[list[Table2Row], BatchResponse]:
    """Run Table II instances as one batch; returns (rows, batch).

    The batch holds one request per (instance, algorithm), in that
    order, and runs through ``Session(jobs, cache, events)``.  ``jobs``
    shards its requests over worker processes (0 or None = one per
    available CPU); rows come back in input order either way.
    """
    algorithms = tuple(algorithms)
    if "janus" not in algorithms:
        raise ValueError(
            "table2 needs the janus algorithm: its response carries the "
            "lb and upper-bound columns"
        )
    names = list(names) if names is not None else profile_names()
    request_options = _request_options(options or default_options())
    specs = [build_instance(name) for name in names]
    batch = BatchRequest(requests=tuple(
        SynthesisRequest.from_target(
            spec, backend=algorithm, options=request_options
        )
        for spec in specs
        for algorithm in algorithms
    ))
    with Session(jobs=jobs, cache=cache, events=events) as session:
        response = session.run_batch(batch)
    responses = iter(response.responses)
    rows = [
        Table2Row(
            name=name,
            spec=spec,
            paper=next(r for r in PAPER_TABLE2 if r.name == name),
            results={algorithm: next(responses) for algorithm in algorithms},
        )
        for name, spec in zip(names, specs)
    ]
    return rows, response


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render rows in the paper's Table II layout, paper values alongside."""
    cols = [
        "instance", "#in", "#pi", "d", "lb", "oub", "nub",
        "nub(paper)", "janus", "janus(paper)", "size", "CPU",
    ]
    fmt = (
        "{:>11} {:>4} {:>4} {:>2} {:>4} {:>5} {:>5} {:>10} "
        "{:>7} {:>12} {:>5} {:>8}"
    )
    lines = [fmt.format(*cols)]
    for row in rows:
        janus = row.results["janus"]
        lines.append(
            fmt.format(
                row.name + ("" if row.signature_exact else "~"),
                row.spec.num_inputs,
                row.spec.num_products,
                row.spec.degree,
                row.lb,
                row.old_ub,
                row.new_ub,
                row.paper.nub,
                janus.shape,
                row.paper.sol_janus,
                janus.size,
                f"{janus.wall_time:.1f}",
            )
        )
        for algo, res in row.results.items():
            if algo == "janus":
                continue
            lines.append(
                f"{'':>11} {algo:>14}: {res.shape} size={res.size} "
                f"CPU={res.wall_time:.1f}s"
            )
    return "\n".join(lines)
