"""The hub's tick memo: a tick's fused reads share one widened answer.

Within one evaluation time, the first widened answer of a shape is
narrowed for every later reader of the shape whose write version still
matches.  A write in between — a direct insert or a hub-staged row —
must send the next read back to the engine, and a fleet served from the
memo must count, answer and execute exactly like one where every read
looks the widened answer up again.
"""

import numpy as np
import pytest

from repro.core.runtime import LoopRuntime, QueryHub, RuntimeConfig
from repro.experiments.loops_exp import _fill_store, watch_fleet_specs
from repro.query import QueryEngine
from repro.query.fuse import widen
from repro.query.model import LabelMatcher, MetricQuery
from repro.query.reference import evaluate_naive
from repro.query.standing import StandingQueryEngine
from repro.sim import Engine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

AT = 300.0


def _store():
    store = TimeSeriesStore(default_capacity=512)
    times = np.arange(1.0, 300.0, 10.0)
    for i in range(4):
        store.insert_batch(SeriesKey.of("m", node=f"n{i}"), times, np.full(times.size, float(i)))
    return store


def _narrow(node):
    return MetricQuery(
        "m", agg="mean", matchers=(LabelMatcher("node", "=", node),),
        range_s=60.0, step_s=10.0, group_by=("node",),
    )


def assert_equals_reference(store, got, at):
    want = evaluate_naive(store, got.query, at=at)
    assert len(got.series) == len(want.series)
    for a, b in zip(got.series, want.series):
        assert a.labels == b.labels
        np.testing.assert_allclose(a.times, b.times, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("standing", [False, True], ids=["cached", "standing"])
@pytest.mark.parametrize("write", ["insert", "stage"])
def test_a_write_between_two_reads_of_one_tick_is_seen(standing, write):
    store = _store()
    engine = QueryEngine(store)
    hub = QueryHub(engine, standing=StandingQueryEngine(engine) if standing else None)
    if standing:  # promote the shape first: three distinct times
        for at in (AT - 30.0, AT - 20.0, AT - 10.0):
            hub.query(_narrow("n0"), at=at)
            hub.query(_narrow("n1"), at=at)
        assert hub.standing.shapes
    hub.query(_narrow("n0"), at=AT)
    before = hub.query(_narrow("n1"), at=AT)  # the tick's widened answer is kept
    key = SeriesKey.of("m", node="n1")
    if write == "insert":
        store.insert(key, AT - 1.0, 100.0)
    else:
        hub.stage((key,), (100.0,), at=AT - 1.0)
    after = hub.query(_narrow("n1"), at=AT)
    assert after.series[0].values[-1] != before.series[0].values[-1]
    assert_equals_reference(store, after, AT)
    # with no write since, the next reader is served from the kept answer
    executed = engine.queries_total
    again = hub.query(_narrow("n2"), at=AT)
    assert engine.queries_total == executed
    assert again.source == ("fused+standing" if standing else "fused+cache")
    assert_equals_reference(store, again, AT)


def test_a_shared_reader_of_no_or_one_series_takes_a_tuple():
    hub = QueryHub(QueryEngine(_store()))
    hub.query(_narrow("n0"), at=AT)
    none = hub.query(_narrow("n9"), at=AT)  # no such series
    one = hub.query(_narrow("n2"), at=AT)
    assert none.source.startswith("fused+") and none.series == ()
    assert one.source == "fused+cache" and isinstance(one.series, tuple)
    assert_equals_reference(hub.store, one, AT)


# ---------------------------------------------------------------------------
# A 32-loop watch fleet against one that looks every read up again


N_LOOPS, TICKS, PERIOD_S, WINDOW_S = 32, 8, 60.0, 600.0


def _run_fleet(standing, memo=True):
    node_ids = [f"n{i:04d}" for i in range(2 * N_LOOPS)]
    horizon_s = WINDOW_S + TICKS * PERIOD_S
    store = TimeSeriesStore(default_capacity=int(horizon_s / 10.0) + 16)
    _fill_store(store, node_ids, "node_cpu_util", horizon_s, 10.0, 0, 0.1)
    engine = Engine()
    runtime = LoopRuntime(engine, store, config=RuntimeConfig(standing_queries=standing))
    specs = watch_fleet_specs(
        "node_cpu_util", node_ids, N_LOOPS, period_s=PERIOD_S, window_s=WINDOW_S,
        cluster_query=True,
    )
    for spec in specs:
        spec.start_at = WINDOW_S
    runtime.add_many(specs, start=True)
    if not memo:  # every read looks the tick's widened answer up again
        keep = runtime.hub._keep
        runtime.hub._keep = lambda read, version, *rest: keep(read, None, *rest)
    qe = runtime.query_engine
    executed = []
    inner = qe._execute
    qe._execute = lambda q, at: executed.append((q, at)) or inner(q, at)
    engine.run(until=WINDOW_S + TICKS * PERIOD_S - 1.0)
    observations = [
        (it.t_monitor, it.observation.values)
        for h in runtime.handles.values() for it in h.loop.iterations
    ]
    stats = runtime.hub.stats()
    counters = {
        k: stats[k] for k in (
            "fused_served", "standing_served", "direct_served",
            "engine_cache_hits", "engine_cache_misses",
        )
    }
    if standing:
        counters.update(
            {k: stats[f"standing_{k}"] for k in ("reads_served", "snapshot_hits", "scan_fallbacks")}
        )
    return counters, observations, executed


@pytest.mark.parametrize("standing", [False, True], ids=["cached", "standing"])
def test_a_watch_fleet_counts_and_answers_as_without_the_tick_memo(standing):
    counters, observations, executed = _run_fleet(standing)
    want_counters, want_observations, want_executed = _run_fleet(standing, memo=False)
    assert counters == want_counters
    assert observations == want_observations
    assert executed == want_executed
    # at most one widened execution per (shape, tick)
    widened = [(q, at) for q, at in executed if not q.matchers and q.group_by]
    assert len(widened) == len(set(widened))
    if not standing:  # every tick: one lone first reader, then one widened answer for 31
        assert len(widened) == TICKS
        assert counters["fused_served"] == (N_LOOPS - 1) * TICKS
        assert counters["engine_cache_hits"] >= (N_LOOPS - 2) * TICKS
    else:
        assert counters["snapshot_hits"] > 0


def test_a_standing_fallback_is_not_kept_for_the_tick():
    """A registered shape whose standing read falls back is answered by
    the engine; the tick's next reader still asks standing first."""
    store = TimeSeriesStore(default_capacity=1024)
    times = np.arange(5.0, 4000.0, 5.0)
    for i in range(4):
        store.insert_batch(SeriesKey.of("m", node=f"n{i}"), times, np.sin(times + i))
    engine = QueryEngine(store)
    hub = QueryHub(engine, standing=StandingQueryEngine(engine))
    narrow = [
        MetricQuery("m", agg="mean", matchers=(LabelMatcher("node", "=", f"n{i}"),),
                    range_s=300.0, step_s=30.0, group_by=("node",))
        for i in range(3)
    ]
    assert hub.standing.register(widen(narrow[0]))
    for q in narrow:  # a window older than the grid's bins: every reader falls back
        assert_equals_reference(store, hub.query(q, at=600.0), 600.0)
    assert hub.standing.stats()["scan_fallbacks"] == 3.0
    assert (hub.direct_served, hub.fused_served, hub.standing_served) == (1, 2, 0)


def _promoted_hub():
    """A hub whose shape of :func:`_narrow` is maintained by standing."""
    engine = QueryEngine(_store())
    hub = QueryHub(engine, standing=StandingQueryEngine(engine))
    for at in (AT - 30.0, AT - 20.0, AT - 10.0):
        hub.query(_narrow("n0"), at=at)
        hub.query(_narrow("n1"), at=at)
    assert widen(_narrow("n0")) in hub.standing.shapes
    return hub


@pytest.mark.parametrize("drop", ["clear_snapshots", "register"])
def test_a_standing_answer_is_kept_only_while_standing_keeps_its_snapshot(drop):
    hub = _promoted_hub()
    st = hub.standing
    hub.query(_narrow("n0"), at=AT)
    hub.query(_narrow("n1"), at=AT)  # the tick keeps standing's answer
    reads, hits = st.reads_served, st.snapshot_hits
    hub.query(_narrow("n2"), at=AT)
    assert (st.reads_served, st.snapshot_hits) == (reads, hits + 1)
    if drop == "clear_snapshots":
        st.clear_snapshots()
    else:  # a new registration drops every snapshot too
        assert st.register("sum(m[120s] by 10s)")
    got = hub.query(_narrow("n3"), at=AT)  # standing reads again, as it would unmemoised
    assert (st.reads_served, st.snapshot_hits) == (reads + 1, hits + 1)
    assert got.source == "fused+standing"
    assert_equals_reference(hub.store, got, AT)
    hub.query(_narrow("n0"), at=AT)  # and the new answer is kept
    assert (st.reads_served, st.snapshot_hits) == (reads + 1, hits + 2)


def test_a_new_tick_releases_the_last_ticks_answers():
    hub = QueryHub(QueryEngine(_store()))
    hub.query(_narrow("n0"), at=AT)
    hub.query(_narrow("n1"), at=AT)
    shape = hub._reads[_narrow("n1")].shape
    assert shape.wide is not None
    other = MetricQuery(
        "m", agg="max", matchers=(LabelMatcher("node", "=", "n0"),),
        range_s=60.0, step_s=10.0, group_by=("node",),
    )
    hub.query(other, at=AT + 10.0)  # a read of another shape at a new time
    assert shape.wide is None and shape.at is None
    assert hub._tick == [hub._reads[other].shape]
    # back at AT the shape starts over: its first reader reads alone
    direct = hub.direct_served
    hub.query(_narrow("n1"), at=AT)
    assert hub.direct_served == direct + 1
