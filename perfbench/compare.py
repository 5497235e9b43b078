#!/usr/bin/env python3
"""Compare two sets of benchmark result files, one workload at a time.

Each side is a directory of ``<workload>-seed<n>-trace<t>.json`` files as
``run.py`` writes them under ``.bench_out/results/``.  For every workload
and metric the script prints both medians and their quartile spreads.
It refuses to compare runs served by different propagation cores (pure
vs native), because the core alone moves every solver-bound number.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _load(directory: str, trace: int) -> dict:
    runs: dict = defaultdict(list)
    for path in sorted(Path(directory).glob(f"*-trace{trace}.json")):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        runs[record["provenance"]["workload"]].append(record)
    return runs


def _spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    base, new = _load(args.base, args.trace), _load(args.new, args.trace)
    status = 0
    for workload in sorted(set(base) & set(new)):
        cores = {r["provenance"]["core"] for r in base[workload] + new[workload]}
        if len(cores) > 1:
            print(f"{workload}: refusing to compare runs on different "
                  f"propagation cores {sorted(cores)}")
            status = 1
            continue
        print(f"{workload} (core {cores.pop()}; runs {len(base[workload])} "
              f"vs {len(new[workload])})")
        names = sorted(set().union(*(r["metrics"] for r in base[workload])))
        for name in names:
            a = [r["metrics"][name] for r in base[workload] if name in r["metrics"]]
            b = [r["metrics"][name] for r in new[workload] if name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            print(f"  {name:34s} {ma:14.4f} -> {mb:14.4f} ({change:+7.1%}) "
                  f"spread {_spread(a):.3f} / {_spread(b):.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
