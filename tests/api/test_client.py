"""Tests for the public ``repro.api.Client`` facade.

The client is the one supported external surface: every read passes the
front door (typed request/response, admission, fast paths), the sim
advances under the serving write gate, and the raw engine behind it is
the cluster's one memoized engine.
"""

import numpy as np
import pytest

from repro.api import Client, ClusterConfig, QueryRequest, QueryResult, TenantSpec
from repro.obs import MetricsRegistry

EXPR = "mean(node_cpu_util[300s] by 30s)"


@pytest.fixture(scope="module")
def client():
    with Client.from_config(
        ClusterConfig(n_nodes=4, telemetry_period_s=10.0, seed=3)
    ) as c:
        c.run(until=600.0)
        yield c


class TestServing:
    def test_query_ok_and_engine_exact(self, client):
        at = client.now
        res = client.query(EXPR, at=at)
        assert res.ok and res.status == "ok"
        assert res.tenant == "default"
        assert not res.degraded
        assert len(res.series) > 0
        with client.front_door.write_gate():
            want = client.engine.query(client.engine.parse(EXPR), at=at)
        assert len(res.series) == len(want.series)
        for a, b in zip(res.series, want.series):
            assert a.labels == b.labels
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)

    def test_query_async_future(self, client):
        fut = client.query_async(EXPR, deadline_ms=5000.0)
        res = fut.result(timeout=10.0)
        assert isinstance(res, QueryResult)
        assert res.ok

    def test_samples(self, client):
        times, values = client.samples("mean(node_cpu_util)")
        assert len(times) == len(values) > 0
        assert np.all(np.diff(times) >= 0)

    def test_typed_request_boundary(self, client):
        res = client.front_door.serve(QueryRequest(EXPR, at=client.now))
        assert isinstance(res, QueryResult)
        assert res.request.expr() == EXPR

    def test_add_tenant(self, client):
        client.add_tenant(TenantSpec("team-a", qps=50.0, priority=2))
        res = client.query(EXPR, tenant="team-a")
        assert res.ok and res.tenant == "team-a"

    def test_unknown_tenant_rejected(self, client):
        res = client.query(EXPR, tenant="never-registered")
        assert res.status == "rejected"
        assert res.reason == "unknown_tenant"


class TestReadout:
    def test_stats_shape(self, client):
        stats = client.stats()
        assert "serve" in stats and "engine" in stats
        assert stats["serve"]["tenant_default"]["served"] >= 1.0

    def test_metrics_taxonomy(self, client):
        client.query(EXPR)
        snap = client.metrics(MetricsRegistry()).snapshot()
        assert snap["serve.submitted"] >= 1.0
        assert "serve.pressure" in snap
        assert any(k.startswith("serve.tenant_default.") for k in snap)
        assert any(k.startswith("engine.") for k in snap)

    def test_trace_spans(self, client):
        client.trace(enable=True)
        try:
            client.query(EXPR, at=client.now - 1.0)
            spans = client.trace()
        finally:
            client.trace(enable=False)
        assert any(s[0] == "serve.request" for s in spans)  # span tuple: (name, ...)


class TestLifecycleAndMigration:
    def test_client_engine_is_the_clusters_memoized_engine(self, client):
        engine = client.cluster._query_engine(rollup_resolutions=(10.0, 60.0, 600.0))
        assert engine is client.engine

    def test_close_is_idempotent(self):
        c = Client.from_config(ClusterConfig(n_nodes=2, seed=1))
        c.run(until=50.0)
        assert c.query("mean(node_cpu_util)").ok
        c.close()
        c.close()
