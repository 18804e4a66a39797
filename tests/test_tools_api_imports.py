"""The public-API import-boundary lint must pass on the current tree.

``tools/check_api_imports.py`` fails (exit 1) when the CLI or an
experiment driver imports engine internals instead of going through
``repro.api``; pre-existing offenders are grandfathered and only warn.
This test keeps the tree at zero *new* violations and pins the
forbidden-import predicate itself.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "check_api_imports.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_api_imports", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tree_has_no_new_violations():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 new violation(s)" in proc.stdout


def test_forbidden_predicate():
    checker = _load_checker()
    assert checker._is_forbidden("repro.query.engine", ())
    assert checker._is_forbidden("repro.query.standing", ("StandingQueryEngine",))
    assert checker._is_forbidden("repro.shard", ())
    assert checker._is_forbidden("repro.shard.parallel", ())
    assert checker._is_forbidden("repro.query", ("QueryEngine",))
    # the public surface stays importable
    assert not checker._is_forbidden("repro.query", ("MetricQuery",))
    assert not checker._is_forbidden("repro.api", ("Client",))
    assert not checker._is_forbidden("repro.serve", ("TenantSpec",))
    # prefix match is dotted, not textual
    assert not checker._is_forbidden("repro.sharding", ())


def test_query_and_telemetry_never_import_the_shard_layer(tmp_path):
    """The layering rule has no grandfather list: one import of
    ``repro.shard`` under ``repro/query`` or ``repro/telemetry`` — direct,
    from the package root, or relative — fails the lint."""
    checker = _load_checker()
    checker.GRANDFATHERED = set()  # the tree below holds none of those files
    query = tmp_path / "repro" / "query"
    query.mkdir(parents=True)
    (query / "fine.py").write_text("from repro.query.engine import QueryEngine\nfrom . import passes\n")
    assert checker.main(tmp_path) == 0
    for source in (
        "from repro.shard import ShardedTimeSeriesStore\n",
        "import repro.shard.parallel\n",
        "from repro import shard\n",
        "from ..shard.store import ShardedTimeSeriesStore\n",
    ):
        (query / "bad.py").write_text(source)
        assert checker.main(tmp_path) == 1, source
        assert [m for _, m in checker._layer_violations(query / "bad.py", "repro.query")]


def test_stale_grandfathered_entry_fails(tmp_path, capsys):
    """A grandfathered entry warns while its import exists and fails the
    lint once no import matches it: the list can only shrink."""
    checker = _load_checker()
    entry = ("repro/experiments/old_exp.py", "repro.shard")
    checker.GRANDFATHERED = {entry}
    experiments = tmp_path / "repro" / "experiments"
    experiments.mkdir(parents=True)
    driver = experiments / "old_exp.py"
    driver.write_text("from repro.shard import ShardedTimeSeriesStore\n")
    assert checker.main(tmp_path) == 0
    assert "grandfathered import of repro.shard" in capsys.readouterr().out
    driver.write_text("from repro.api import Client\n")
    assert checker.main(tmp_path) == 1
    assert "stale grandfathered entry" in capsys.readouterr().err
