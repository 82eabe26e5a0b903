#!/usr/bin/env python3
"""The repository's benchmark: one command.

All five workloads, every metric by name with its unit::

    python3 bench/run.py --seed 7 [--traced] [--scale 1.0] [--runs 5]
                         [--out bench/baseline/NAME.json]

One workload, as the benchmark driver calls it (the last line of
standard output is the result object)::

    python3 bench/run.py --workload store_file --seed 7 --seconds 10 --trace 0

End-to-end numbers always come from an untraced pass.  ``--trace 1`` /
``--traced`` runs that pass first and a traced pass after it, which
gives the per-layer rows and, from the two passes' primary metric,
``obs.trace_overhead_pct``.  The exit code is non-zero when any
operation's output check failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

_STARTED_NS = time.perf_counter_ns()

import argparse  # noqa: E402 - the clock above must start first
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench/run.py: no src/repro beside bench/ - the benchmark "
             "runs from a checkout of the repository")
# The script's own directory gives way to the checkout root, so that the
# benchmark's modules import as ``bench.*`` and the program as ``repro``.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from bench import layers, spec  # noqa: E402
from bench.harness import tail  # noqa: E402
from bench.sites import child_env  # noqa: E402
from bench.workloads import Run, run_workload  # noqa: E402

WORKLOAD_NAMES = [name for name, _why in spec.WORKLOADS]
UNITS = {name: unit for name, unit, *_rest in spec.END_TO_END + spec.PER_LAYER}
LOWER_IS_BETTER = {name: better == "lower"
                   for name, _unit, better, *_rest in spec.END_TO_END}


def _row(name: str, value: float, samples: list[float] | None = None) -> dict:
    """A reported metric; a timing row also carries its sample count and
    the highest percentile with ten samples beyond it (ungated)."""
    row = {"value": value, "unit": UNITS[name]}
    if samples is not None:
        row["n"] = len(samples)
        high = tail(samples)
        if high is not None:
            row["tail_percentile"], row["tail_value"] = high
    return row


def end_to_end(run: Run) -> dict[str, dict]:
    tracer = run.tracer

    def timing(name: str, phase: str) -> dict:
        samples = tracer.durations_ms(phase)
        return _row(name, median(samples), samples)

    def rate(name: str, phase: str) -> dict:
        samples = tracer.rates(phase)
        return _row(name, median(samples), samples)

    sessions = tracer.durations_ms("session")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": _row("setup_s", run.setup_s),
        "peak_rss_mb": _row("peak_rss_mb", rss_mb),
        "session_p50_ms": timing("session_p50_ms", "session"),
        "sessions_per_s": _row("sessions_per_s",
                               len(sessions) / run.sessions_wall_s),
        "compose_p50_ms": timing("compose_p50_ms", "compose"),
        "go_py_p50_ms": timing("go_py_p50_ms", "go_py"),
        "go_java_p50_ms": timing("go_java_p50_ms", "go_java"),
        "deref_per_s": _row("deref_per_s", median(run.deref_rates),
                            run.deref_rates),
        "stabilize_full_rec_per_s": rate("stabilize_full_rec_per_s", "full"),
        "stabilize_incr_p50_ms": timing("stabilize_incr_p50_ms", "incr"),
        "coldroot_commit_p50_ms": timing("coldroot_commit_p50_ms",
                                         "coldroot"),
        "cold_fault_rec_per_s": rate("cold_fault_rec_per_s", "cold_fault"),
        "warm_get_per_s": rate("warm_get_per_s", "warm"),
        "gc_rec_per_s": rate("gc_rec_per_s", "gc"),
        "bytes_per_record": _row("bytes_per_record", run.bytes_per_record),
    }


def measure(workload: str, seed: int, scale: float, traced: bool) -> dict:
    """Run one workload in this process: the untraced pass, then (if
    asked) the traced one."""
    plain = run_workload(workload, seed, scale, False, _STARTED_NS)
    result = {
        "workload": workload, "seed": seed, "scale": scale,
        "attempted": plain.attempted, "failed": plain.failed,
        "failures": plain.failures, "end_to_end": end_to_end(plain),
    }
    if traced:
        primary = spec.PRIMARY[workload]
        gc.collect()
        again = run_workload(workload, seed, scale, True,
                             time.perf_counter_ns())
        values = layers.per_layer(
            again, result["end_to_end"][primary]["value"],
            end_to_end(again)[primary]["value"], LOWER_IS_BETTER[primary])
        result["per_layer"] = {name: _row(name, values[name])
                               for name, *_rest in spec.PER_LAYER}
        result["mismatches"] = layers.counter_mismatches(again)
        result["attempted"] += again.attempted
        result["failed"] += again.failed
        result["failures"] += again.failures
    return result


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"scale {result['scale']:g}")
    for group in ("end_to_end", "per_layer"):
        for name, row in result.get(group, {}).items():
            extra = ""
            if "n" in row:
                extra = f"  n={row['n']}"
            if "tail_value" in row:
                extra += (f" p{row['tail_percentile']:g}="
                          f"{row['tail_value']:.4g}")
            print(f"{name:36s} {row['value']:14.6g} {row['unit']}{extra}")
    for line in result.get("mismatches", []):
        print(f"obs.counter_mismatch: {line}")
    print(f"ops_attempted {result['attempted']}  "
          f"ops_failed {result['failed']}")
    for line in result["failures"]:
        print(f"FAILED: {line}")


def environment(seed: int, scale: float) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(), "scale": scale, "io": "real",
            "created_unix": time.time()}


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a process of its own (so that set-up
    time and peak memory are that workload's alone)."""
    results = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in args.only or WORKLOAD_NAMES:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--scale", str(args.scale),
                 "--trace", str(int(args.traced)), "--detail"],
                stdout=subprocess.PIPE, text=True, env=child_env())
            lines = done.stdout.splitlines()
            if len(lines) < 2:
                sys.exit(f"{workload} (seed {seed}) gave no result; "
                         f"exit code {done.returncode}")
            result = json.loads(lines[-2])
            print_result(result)
            results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": environment(args.seed, args.scale), "runs": results},
            indent=1) + "\n")
    return 1 if any(result["failed"] for result in results) else 0


def run_one(args: argparse.Namespace) -> int:
    scale = args.scale if args.seconds is None \
        else args.seconds / spec.RUN_SECONDS
    result = measure(args.workload, args.seed, scale, bool(args.trace))
    print_result(result)
    if args.detail:
        print(json.dumps(result))
    reported = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in reported.items()},
    }))
    return 1 if result["failed"] else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every repetition count")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the per-layer rows")
    parser.add_argument("--runs", type=int, default=1,
                        help="all workloads: repeat with seed, seed+1, ...")
    parser.add_argument("--only", action="append", choices=WORKLOAD_NAMES,
                        help="all workloads: just this one (repeatable)")
    parser.add_argument("--out", help="all workloads: write results here")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seconds", type=float,
                        help=f"one workload: scale = seconds / "
                        f"{spec.RUN_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
