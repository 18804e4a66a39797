"""Every memo on the read path stays bounded under unbounded query shapes.

Ten thousand distinct shapes go through the loops' hub and through the
tenants' front door over one engine, while one shape of each kind is
read again every round.  Standing sightings, engine plans / expressions /
parses, the hub's shape memo and its narrowing positions and the
engine cache must
all stay within their bounds — and the re-read shapes must survive the
churn, which a memo cleared wholesale past its bound would not let them.
"""

import numpy as np

from repro.core.runtime import QueryHub
from repro.query import QueryEngine
from repro.query.engine import _PLANS_MAX
from repro.query.fuse import narrow_result, widen
from repro.query.model import LabelMatcher, MetricQuery
from repro.query.standing import StandingQueryEngine
from repro.serve import QueryFrontDoor, QueryRequest, TenantSpec
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

ROUNDS = 200
SHAPES_PER_ROUND = 50  # 10,000 distinct shapes per client


def _store():
    store = TimeSeriesStore(default_capacity=512)
    times = np.arange(1.0, 400.0, 10.0)
    for i in range(4):
        store.insert_batch(SeriesKey.of("m", node=f"n{i}"), times, np.full(times.size, float(i)))
    return store


def _narrow(node, range_s):
    return MetricQuery(
        "m", agg="mean", matchers=(LabelMatcher("node", "=", node),),
        range_s=range_s, step_s=10.0, group_by=("node",),
    )


def test_ten_thousand_shapes_leave_every_memo_bounded():
    store = _store()
    engine = QueryEngine(store)
    hub = QueryHub(engine, standing=StandingQueryEngine(engine))
    fd = QueryFrontDoor(
        engine, tenants=[TenantSpec("t", qps=1e9, queue_depth=1024, max_inflight=1024)],
        n_workers=1,
    )
    hot_pair = (_narrow("n0", 60.0), _narrow("n1", 60.0))
    hot_standing = "mean(m[50s] by 10s)"  # promoted by the front door
    hot_cached = "max(m)"  # instant, never standing: answered from the cache
    with fd:
        for r in range(ROUNDS):
            at = 300.0 + r * 0.25
            futures = []
            for k in range(SHAPES_PER_ROUND):
                shape = r * SHAPES_PER_ROUND + k
                range_s = 20.0 + shape * 0.01
                # two narrow readers: the second widens, the shape is sighted
                hub.query(_narrow("n2", range_s), at=at)
                hub.query(_narrow("n3", range_s), at=at)
                futures.append(fd.submit(QueryRequest(
                    f"sum(m[{range_s:.2f}s] by 10s)", tenant="t", at=at,
                )))
            for q in hot_pair:
                hub.query(q, at=at)
            futures.append(fd.submit(QueryRequest(hot_standing, tenant="t", at=at)))
            futures.append(fd.submit(QueryRequest(hot_cached, tenant="t", at=300.0)))
            assert all(f.result(timeout=10.0).ok for f in futures)

    for memo in (engine._plans, engine._exprs, engine._parsed, hub._shapes, hub._narrowed,
                 hub.standing._seen, fd.standing._seen):
        assert len(memo) <= _PLANS_MAX
    assert len(engine.cache) <= engine.cache.max_entries
    # the re-read shapes survived ten thousand others
    hot_shape = MetricQuery("m", agg="mean", range_s=60.0, step_s=10.0, group_by=("node",))
    assert hot_shape in hub.standing.shapes
    # a narrowed read looks up its positions, not the engine plans
    assert all(q in hub._narrowed and hub._shapes[q] == hot_shape for q in hot_pair)
    assert engine.parse(hot_standing) in fd.standing.shapes
    assert engine.cached(engine.parse(hot_cached), at=300.0) is not None
    assert fd.hot_hits >= ROUNDS - 1


# ---------------------------------------------------------------------------
# The hub's narrowing positions


def _assert_narrowed_like_fuse(hub, q, got, at):
    """The hub's narrowed read equals ``fuse.narrow_result`` of the same
    widened result, series for series, with the same array objects."""
    wide = hub.engine.query(widen(q), at=at)  # the cached result the hub narrowed
    want = narrow_result(q, wide)
    assert got.source.startswith("fused+")
    assert len(got.series) == len(want.series)
    for a, b in zip(got.series, want.series):
        assert a.labels == b.labels
        assert a.times is b.times and a.values is b.values


def _read_pair(hub, nodes, at):
    """Two narrow readers of one shape at ``at``: the second is fused."""
    first, second = (_narrow(node, 60.0) for node in nodes)
    hub.query(first, at=at)
    return second, hub.query(second, at=at)


def test_narrowing_positions_are_rebuilt_when_a_series_is_admitted():
    store = _store()
    hub = QueryHub(QueryEngine(store))
    q, got = _read_pair(hub, ("n0", "n3"), 300.0)
    _assert_narrowed_like_fuse(hub, q, got, 300.0)
    generation = hub._narrowed[q][0]
    # a series sorting before n3 moves n3's group position in the wide plan
    store.insert(SeriesKey.of("m", node="n20"), 305.0, 7.0)
    q, got = _read_pair(hub, ("n0", "n3"), 310.0)
    assert hub._narrowed[q][0] != generation
    assert hub._narrowed[q][2] == [4]
    _assert_narrowed_like_fuse(hub, q, got, 310.0)
    q, got = _read_pair(hub, ("n1", "n20"), 310.0)
    assert [s.label("node") for s in got.series] == ["n20"]
    _assert_narrowed_like_fuse(hub, q, got, 310.0)


def test_a_wide_result_missing_a_group_is_narrowed_by_label():
    store = _store()
    store.insert_batch(SeriesKey.of("m", node="n00"), np.array([5.0]), np.array([1.0]))
    hub = QueryHub(QueryEngine(store))
    at = 300.0
    wide = hub.engine.query(widen(_narrow("n0", 60.0)), at=at)
    assert len(wide.series) == 4  # n00 has no sample in the window
    for nodes in (("n0", "n3"), ("n1", "n00"), ("n2", "n1")):
        q, got = _read_pair(hub, nodes, at)
        _assert_narrowed_like_fuse(hub, q, got, at)
    assert [s.label("node") for s in got.series] == ["n1"]
    q, got = _read_pair(hub, ("n2", "n00"), at)
    assert got.series == ()
