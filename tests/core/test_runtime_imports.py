"""Loading the loop runtime loads only the analytics the loop path uses.

Every runtime-hosted loop imports ``repro.core.runtime``; an analytics
module that no loop calls must not ride along.  The check runs in a
fresh interpreter so modules imported by other tests do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
LOOP_PATH_ANALYTICS = {"forecast", "similarity", "streaming"}


def test_runtime_loads_only_loop_path_analytics():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    probe = (
        "import sys, repro.core.runtime\n"
        "print(' '.join(m.split('.')[2] for m in sys.modules"
        " if m.startswith('repro.analytics.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert loaded <= LOOP_PATH_ANALYTICS, sorted(loaded - LOOP_PATH_ANALYTICS)
