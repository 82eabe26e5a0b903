#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``.

    python3 bench/compare.py OLD.json NEW.json

One row per workload and end-to-end metric: both medians, how much
worse NEW reads (direction-aware, as a share of OLD's median), the
wider of the two sets' own spreads (distance between the quartiles as a
share of the median), and a verdict against the metric's bound:

* ``worse`` / ``better`` - the medians differ by more than the bound;
* ``same`` - they do not;
* ``unresolved`` - the runs' own spread exceeds the bound, so the
  medians cannot be told apart (unless every NEW run reads better than
  every OLD run, which is ``better``).

Exits non-zero on any ``worse`` and on any rise in a workload's failed
share.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import spec  # noqa: E402 - after the path fix above


def load(path: str) -> dict[str, list[dict]]:
    """Runs of a result file, by workload."""
    by_workload: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(old: list[float], new: list[float], lower_is_better: bool,
            bound: float) -> tuple[str, float, float]:
    """``(verdict, share by which NEW is worse, wider spread)``."""
    old_median, new_median = statistics.median(old), statistics.median(new)
    worse_by = (new_median - old_median) / old_median
    if not lower_is_better:
        worse_by = -worse_by
    noise = max(spread(old), spread(new))
    if noise > bound:
        every_new_better = (max(new) < min(old) if lower_is_better
                            else min(new) > max(old))
        return ("better" if every_new_better else "unresolved",
                worse_by, noise)
    if worse_by > bound:
        return "worse", worse_by, noise
    if worse_by < -bound:
        return "better", worse_by, noise
    return "same", worse_by, noise


def failed_share(runs: list[dict]) -> float:
    return sum(run["failed"] for run in runs) / \
        sum(run["attempted"] for run in runs)


def compare(old_path: str, new_path: str) -> int:
    old_runs, new_runs = load(old_path), load(new_path)
    bad = False
    print(f"{'workload':13s} {'metric':26s} {'old':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, _why in spec.WORKLOADS:
        if workload not in old_runs or workload not in new_runs:
            print(f"{workload:13s} missing from "
                  f"{'OLD' if workload not in old_runs else 'NEW'}")
            bad = True
            continue
        for name, _unit, better, bound, _definition in spec.END_TO_END:
            old = [run["end_to_end"][name]["value"]
                   for run in old_runs[workload]]
            new = [run["end_to_end"][name]["value"]
                   for run in new_runs[workload]]
            word, worse_by, noise = verdict(old, new, better == "lower",
                                            bound)
            bad = bad or word == "worse"
            print(f"{workload:13s} {name:26s} "
                  f"{statistics.median(old):12.5g} "
                  f"{statistics.median(new):12.5g} {worse_by:+9.1%} "
                  f"{noise:7.1%} {bound:6.0%}  {word}")
        before = failed_share(old_runs[workload])
        after = failed_share(new_runs[workload])
        if after > before:
            bad = True
            print(f"{workload:13s} failed share rose: "
                  f"{before:.4%} -> {after:.4%}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
