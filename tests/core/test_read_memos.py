"""Every memo on the read path stays bounded under unbounded query shapes.

Distinct shapes go through the loops' hub and through the tenants'
front door over one engine, while one shape of each kind is read again
every round.  Standing sightings, engine plans / expressions / parses,
the hub's prepared reads and the tick memo of its shapes and the engine
cache must all stay within their bounds — and the re-read shapes must
survive the churn, which a memo cleared wholesale past its bound would
not let them.  The tick memo is void whenever the evaluation time moves,
so as many shapes read at one instant must keep it bounded too.

The memo bound ``_PLANS_MAX`` (4,096) is patched down to
``PLANS_MAX`` here, so 800 shapes pass every memo's bound many times
over: the churn that ten thousand shapes put through the real bound.
"""

import numpy as np
import pytest

import repro.core.runtime
import repro.query.engine
from repro.core.runtime import QueryHub
from repro.query import QueryEngine
from repro.query.fuse import narrow_result, widen
from repro.query.model import LabelMatcher, MetricQuery
from repro.query.standing import StandingQueryEngine
from repro.serve import QueryFrontDoor, QueryRequest, TenantSpec
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

PLANS_MAX = 64  # the patched memo bound: a round adds fewer entries than this
ROUNDS = 80
SHAPES_PER_ROUND = 10  # 800 distinct shapes per client
#: evaluation time between rounds: the front door's re-read standing shape
#: misses the cache (10 s step) every fourth round, so it is sighted
#: again before 64 one-shot sightings push it out of the LRU
ROUND_S = 2.5


@pytest.fixture
def small_memos(monkeypatch):
    """Every read-path memo and the tick memo bounded at ``PLANS_MAX``."""
    monkeypatch.setattr(repro.query.engine, "_PLANS_MAX", PLANS_MAX)
    monkeypatch.setattr(repro.core.runtime, "_PLANS_MAX", PLANS_MAX)


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


def test_800_shapes_past_a_64_entry_bound_leave_every_memo_bounded(small_memos):
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
            at = 200.0 + r * ROUND_S
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

    for memo in (engine._plans, engine._exprs, engine._parsed, hub._reads, hub._shapes,
                 hub.standing._seen, fd.standing._seen):
        assert len(memo) <= PLANS_MAX
    assert len(engine.cache) <= repro.query.engine._ANSWERS_MAX
    # the re-read shapes survived the churn of one-shot shapes
    hot_shape = MetricQuery("m", agg="mean", range_s=60.0, step_s=10.0, group_by=("node",))
    assert hot_shape in hub.standing.shapes
    # a narrowed read looks up its positions, not the engine plans
    assert all(q in hub._reads and hub._reads[q].shape.query == hot_shape for q in hot_pair)
    assert engine.parse(hot_standing) in fd.standing.shapes
    assert engine.cached(engine.parse(hot_cached), at=300.0) is not None
    assert fd.hot_hits >= ROUNDS - 1


def test_800_shapes_at_one_instant_leave_the_tick_memo_bounded(small_memos):
    store = _store()
    engine = QueryEngine(store)
    hub = QueryHub(engine)
    at = 300.0
    for shape in range(ROUNDS * SHAPES_PER_ROUND):
        range_s = 20.0 + shape * 0.01
        hub.query(_narrow("n2", range_s), at=at)  # a first reader enters the shape
        assert len(hub._shapes) <= PLANS_MAX and len(hub._tick) <= PLANS_MAX
    hub.query(_narrow("n3", range_s), at=at)  # widens: the tick keeps the answer
    assert hub.fused_served == 1
    # the newest shape's answer is still kept: a third reader executes nothing
    executed = engine.queries_total
    got = hub.query(_narrow("n1", range_s), at=at)
    assert engine.queries_total == executed and got.source == "fused+cache"
    assert [s.label("node") for s in got.series] == ["n1"]


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
    generation = hub._reads[q].generation
    # a series sorting before n3 moves n3's group position in the wide plan
    store.insert(SeriesKey.of("m", node="n20"), 305.0, 7.0)
    q, got = _read_pair(hub, ("n0", "n3"), 310.0)
    assert hub._reads[q].generation != generation
    assert hub._reads[q].take(tuple(range(5))) == (4,)  # its position among the groups
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
