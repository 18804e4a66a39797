"""Provenance stamping for benchmark artifacts.

CI uploads ``BENCH_*.json`` rows from every run; comparing them across
runs is only meaningful if each row says *which* code produced it and
*when*.  :func:`provenance` returns those fields; ``repro experiments
--json`` merges them into every artifact it writes.
"""

from __future__ import annotations

import os
import subprocess
from datetime import datetime, timezone
from typing import Dict


def git_sha() -> str:
    """The current commit, from the env (CI) or git, else ``"unknown"``.

    ``GITHUB_SHA`` wins when present: artifact provenance must name the
    commit CI checked out even if the workspace has extra commits.
    """
    env = os.environ.get("GITHUB_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def provenance() -> Dict[str, str]:
    """Fields every benchmark artifact should carry."""
    return {
        "git_sha": git_sha(),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def stamp(row: Dict) -> Dict:
    """Return ``row`` with provenance fields merged in (row wins ties)."""
    out: Dict = dict(provenance())
    out.update(row)
    return out
