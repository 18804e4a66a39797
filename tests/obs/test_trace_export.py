"""Fleet-scale trace export: the PR 9 acceptance shape.

``repro trace`` on a 256-loop fleet over a parallel sharded store must
produce valid Chrome-trace JSON whose worker-process spans parent under
the dispatching scatter/append spans of the main process.
"""

import json

import pytest

from repro.cli import main
from repro.obs.trace import TRACER


@pytest.fixture(autouse=True)
def clean_global_tracer():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


@pytest.mark.usefixtures("every_pass_dispatched")  # 32 nodes: every scatter is a small one
def test_traced_256_loop_fleet_exports_cross_process_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main([
        "trace", "--loops", "256", "--nodes", "32", "--horizon", "480",
        "--shards", "4", "--parallel", "2", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "worker-side" in printed

    doc = json.loads(out.read_text())  # loads => valid JSON
    assert doc["otherData"]["producer"] == "repro.obs"
    events = doc["traceEvents"]
    assert events
    for e in events:  # chrome trace-event required fields
        assert e["ph"] == "X"
        assert isinstance(e["name"], str)
        assert e["dur"] > 0
        assert "span_id" in e["args"]
    # sorted by timestamp, as viewers expect
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)

    names = {e["name"] for e in events}
    # the autonomy path end to end: loop -> hub -> engine -> scatter
    assert {"loop.cycle", "loop.decide", "arbiter.resolve", "hub.query",
            "engine.query", "engine.execute", "federated.scatter",
            "scatter.shard"} <= names

    main_pid = doc["otherData"]["main_pid"]
    by_id = {e["args"]["span_id"]: e for e in events}
    worker_events = [e for e in events if e["pid"] != main_pid]
    assert worker_events  # the pool really executed shard passes
    assert {e["pid"] for e in worker_events} != {main_pid}
    for e in worker_events:
        parent = by_id.get(e["args"].get("parent_id"))
        # every worker span parents under a main-process dispatch span
        assert parent is not None
        assert parent["pid"] == main_pid
        assert parent["name"] in ("federated.scatter", "store.append")
    # and specifically: worker scatter work under the scatter span
    scatter_leaves = [e for e in worker_events if e["name"] == "scatter.shard"]
    assert scatter_leaves
    for e in scatter_leaves:
        assert by_id[e["args"]["parent_id"]]["name"] == "federated.scatter"
