"""Smoke test: the case-study examples run as scripts and exit 0.

Each example asserts its own outcome (e.g. "the loop should have
rescued this job"), so exit 0 means the scenario behaved.  The scripts
run from a temporary directory so nothing lands in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "misconfig_advisor.py",
        "ost_failover.py",
        "thermal_watch.py",
        "holistic_dashboard.py",
    ],
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
