"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Runs all five workloads, untraced and traced, at ``--scale 0.02`` and
checks that every end-to-end and per-layer metric ``bench/spec.py``
names is emitted with its unit - so that a later change cannot hollow
the benchmark out - and that ``BENCHMARK.json`` says the same as
``bench/spec.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import spec

BENCH = Path(__file__).resolve().parent
RUN = str(BENCH / "run.py")
WORKLOADS = [name for name, _why in spec.WORKLOADS]


#: The suite has thirty seconds and the host two cores: the five
#: workloads run as two all-workloads commands side by side.  Nothing
#: is gated on numbers measured this way.
LANES = (["store_remote", "hp_reopen"],
         ["store_sqlite", "store_file", "hp_compose"])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """All five workloads, untraced and traced, at scale 0.02."""
    directory = tmp_path_factory.mktemp("bench")
    started = time.monotonic()
    lanes = []
    for number, workloads in enumerate(LANES):
        out = directory / f"lane{number}.json"
        command = [sys.executable, RUN, "--seed", "3", "--scale", "0.02",
                   "--traced", "--out", str(out)]
        for workload in workloads:
            command += ["--only", workload]
        lanes.append((out, subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)))
    runs, printed, env = {}, "", None
    for out, process in lanes:
        said, _ = process.communicate(timeout=300)
        assert process.returncode == 0, said[-3000:]
        printed += said
        written = json.loads(out.read_text())
        env = written["env"]
        runs.update((run["workload"], run) for run in written["runs"])
    return {"elapsed": time.monotonic() - started, "runs": runs,
            "printed": printed, "env": env, "path": out}


def test_all_workloads_run_clean_and_quickly(smoke):
    assert sorted(smoke["runs"]) == sorted(WORKLOADS)
    for run in smoke["runs"].values():
        assert run["attempted"] > 0 and run["failed"] == 0, run["failures"]
    assert smoke["elapsed"] < 30
    env = smoke["env"]
    assert env["io"] == "real" and env["scale"] == 0.02 and env["seed"] == 3
    assert {"commit", "nproc", "python", "platform"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(smoke, workload):
    run, printed = smoke["runs"][workload], smoke["printed"]
    wanted = {name: unit for name, unit, *_rest in spec.END_TO_END}
    assert {name: row["unit"] for name, row in
            run["end_to_end"].items()} == wanted
    for name, row in run["end_to_end"].items():
        assert row["value"] > 0, name  # an end-to-end metric is never 0
        assert f"\n{name} " in printed
    wanted = {name: unit for name, unit, *_rest in spec.PER_LAYER}
    assert {name: row["unit"] for name, row in
            run["per_layer"].items()} == wanted
    for name, row in run["per_layer"].items():
        assert isinstance(row["value"], (int, float)), name
    assert run["per_layer"]["obs.counter_mismatch"]["value"] == 0, \
        run["mismatches"]


def test_result_line_of_a_single_workload():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "hp_reopen", "--seed", "4",
         "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, *_rest
                                      in spec.END_TO_END}


def test_compare_reads_a_result_file(smoke):
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(smoke["path"]),
         str(smoke["path"])], capture_output=True, text=True, timeout=60)
    assert "hp_compose    session_p50_ms" in done.stdout
    assert " same" in done.stdout and " worse\n" not in done.stdout
    # The other lane's workloads are missing from this file.
    assert done.returncode == 1 and "store_remote  missing" in done.stdout


def test_contract_file_agrees_with_the_spec():
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["bench"]
    assert contract["command"] == ["python3", "bench/run.py"]
    assert contract["run_seconds"] == spec.RUN_SECONDS
    assert contract["workloads"] == [{"name": name, "why": why}
                                     for name, why in spec.WORKLOADS]
    assert contract["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound, _definition in spec.END_TO_END]
    assert contract["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _definition in spec.PER_LAYER]
