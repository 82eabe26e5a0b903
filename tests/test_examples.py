"""The ``examples/`` scripts as smoke tests, and the guard that keeps
every directory of tests inside the tier-1 run."""

from __future__ import annotations

import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_discovered():
    assert EXAMPLES, "no examples found: the parametrisation below is empty"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_clean(script, tmp_path):
    """Each example is a full end-to-end drive through the public
    package boundary; it must exit 0 and say something.  TMPDIR keeps
    the stores the scripts ``mkdtemp`` under pytest's own tmp_path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_testpaths_cover_every_directory_of_tests():
    """A ``test_*.py`` file outside ``testpaths`` is never collected by
    the tier-1 command — which is how the paper's conformance checks
    went unrun for ten PRs.  ``bench/`` is the one exception: its smoke
    suite has its own CI step."""
    with open(ROOT / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    testpaths = set(config["tool"]["pytest"]["ini_options"]["testpaths"])
    holding_tests = {
        entry.name for entry in ROOT.iterdir()
        if entry.is_dir() and not entry.name.startswith(".")
        and next(entry.rglob("test_*.py"), None) is not None
    }
    assert holding_tests - {"bench"} <= testpaths
