"""Front-door serving tests: exactness, deadlines, shedding, fast paths.

The bit-identity property is the serving contract from the README: a
non-degraded ``ok`` answer through the front door — whatever fast path
served it — is the engine's own answer, for every engine shape and
worker count.  The concurrency-sensitive tests pin the schedule instead
of racing it: a fake clock drives deadlines, and the engine write gate
(held by the test) parks the single worker so queue pressure can be
built deterministically.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.query import QueryEngine, RollupManager
from repro.query.model import MetricQuery
from repro.serve import QueryFrontDoor, QueryRequest, TenantSpec
from repro.shard import FederatedQueryEngine

from tests.query.test_property import assert_results_match, random_query
from tests.shard.test_federation_property import (
    HORIZON,
    assert_bit_identical,
    build_stores,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def _open_spec(name, **kw):
    kw.setdefault("qps", 1e6)
    kw.setdefault("queue_depth", 256)
    return TenantSpec(name, **kw)


def _small_engine(seed=7):
    rng = np.random.default_rng(seed)
    _sharded, single = build_stores(rng, 2, n_series=6, max_points=60)
    return QueryEngine(single, enable_cache=False), single


def _wait_inflight(fd, tenant, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if fd.admission.tenant(tenant).inflight >= n:
            return
        time.sleep(0.002)
    raise AssertionError(f"worker never picked up a {tenant!r} request")


INSTANT = MetricQuery("m", agg="mean")
RANGE_Q = MetricQuery("m", agg="mean", range_s=600.0, step_s=60.0)


@pytest.mark.parametrize("n_shards,n_workers", [(1, 1), (2, 4), (5, 2)])
def test_served_answers_bit_identical_to_direct_execution(n_shards, n_workers):
    rng = np.random.default_rng(42 + 10 * n_shards + n_workers)
    sharded, single = build_stores(rng, max(n_shards, 2))
    if n_shards == 1:
        engine = QueryEngine(single)
        direct = QueryEngine(single, enable_cache=False)
    else:
        engine = FederatedQueryEngine(sharded)
        direct = FederatedQueryEngine(sharded, enable_cache=False)
    fd = QueryFrontDoor(
        engine,
        tenants=[_open_spec("t")],
        n_workers=n_workers,
        enable_standing=False,
    )
    with fd:
        for _ in range(8):
            q = random_query(rng)
            at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
            want = direct.query(q, at=at)
            first = fd.serve(QueryRequest(q, tenant="t", at=at))
            assert first.status == "ok" and not first.degraded
            assert_bit_identical(first.engine_result, want)
            # the repeat may come from the engine cache at submit — the
            # answer must still be the engine's own, bit for bit
            again = fd.serve(QueryRequest(q, tenant="t", at=at))
            assert again.status == "ok"
            assert_bit_identical(again.engine_result, want)
        stats = fd.stats()
        assert stats["served"] == 16.0
        assert stats["hot_hits"] >= 1.0
        assert stats["tenant_t"]["served"] == 16.0


def test_deadline_expiry_is_accounted():
    clock = FakeClock()
    engine, _store = _small_engine()
    fd = QueryFrontDoor(
        engine, tenants=[_open_spec("t")], n_workers=1,
        enable_standing=False, clock=clock,
    )
    with fd:
        with fd.write_gate():  # park execution so the deadline can pass
            fut = fd.submit(
                QueryRequest(RANGE_Q, tenant="t", at=500.0, deadline_ms=10.0)
            )
            clock.t += 1.0
        res = fut.result(timeout=5.0)
    assert res.status == "expired"
    assert res.reason == "deadline"
    assert res.rejected and not res.ok
    assert fd.admission.tenant("t").expired == 1
    assert fd.admission.tenant("t").served == 0


def test_shed_rejects_lowest_priority_class_only():
    engine, _store = _small_engine()
    fd = QueryFrontDoor(
        engine,
        tenants=[
            TenantSpec("low", qps=1e6, max_inflight=1, queue_depth=4, priority=0),
            _open_spec("high", priority=1),
        ],
        n_workers=1,
        enable_standing=False,
    )
    with fd:
        with fd.write_gate():
            first = fd.submit(QueryRequest(INSTANT, tenant="low", at=500.0))
            _wait_inflight(fd, "low", 1)
            # low's queue fills to capacity behind the parked worker
            queued = [
                fd.submit(QueryRequest(INSTANT, tenant="low", at=500.0))
                for _ in range(4)
            ]
            shed = fd.serve(QueryRequest(INSTANT, tenant="low", at=500.0))
            assert shed.status == "rejected" and shed.reason == "shed"
            # a request-level priority override joins the shed class too
            overridden = fd.serve(
                QueryRequest(INSTANT, tenant="high", at=500.0, priority=0)
            )
            assert overridden.status == "rejected" and overridden.reason == "shed"
            # the higher class keeps service at its own priority
            high = fd.submit(QueryRequest(INSTANT, tenant="high", at=500.0))
        for fut in [first, *queued, high]:
            assert fut.result(timeout=5.0).status == "ok"
    assert fd.admission.tenant("low").shed == 1
    assert fd.admission.tenant("high").shed == 1
    assert fd.shedder.shed_rejections == 2
    assert fd.shedder.level >= 2


def test_degrade_serves_coarse_tier_and_respects_exact_tenants():
    rng = np.random.default_rng(3)
    _sharded, single = build_stores(rng, 2)
    rollups = RollupManager(single, resolutions=(10.0, 600.0))
    rollups.fold(HORIZON * 2)
    engine = QueryEngine(single, rollups=rollups, enable_cache=False)
    direct = QueryEngine(single, rollups=rollups, enable_cache=False)
    fd = QueryFrontDoor(
        engine,
        tenants=[
            TenantSpec("flex", qps=1e6, max_inflight=1, queue_depth=4, priority=1),
            _open_spec("exact", priority=1, allow_degraded=False),
        ],
        n_workers=1,
        enable_standing=False,
    )
    at = HORIZON
    with fd:
        with fd.write_gate():
            blocker = fd.submit(QueryRequest(INSTANT, tenant="flex", at=at))
            _wait_inflight(fd, "flex", 1)
            fillers = [
                fd.submit(QueryRequest(INSTANT, tenant="flex", at=at))
                for _ in range(2)
            ]
            target = fd.submit(QueryRequest(RANGE_Q, tenant="flex", at=at))
            assert fd.shedder.level == 1  # 2/4 queue fill entered degrade
            exact = fd.submit(QueryRequest(RANGE_Q, tenant="exact", at=at))
        deg = target.result(timeout=5.0)
        exa = exact.result(timeout=5.0)
        for fut in [blocker, *fillers]:
            assert fut.result(timeout=5.0).status == "ok"
    # degraded answer == direct execution at the coarsest tier step
    assert deg.status == "ok" and deg.degraded
    want_coarse = direct.query(dataclasses.replace(RANGE_Q, step_s=600.0), at=at)
    assert_bit_identical(deg.engine_result, want_coarse)
    # the exact-only tenant kept full-resolution execution
    assert exa.status == "ok" and not exa.degraded
    assert_bit_identical(exa.engine_result, direct.query(RANGE_Q, at=at))
    assert fd.shedder.degraded_served == 1
    assert fd.admission.tenant("flex").degraded == 1
    assert fd.admission.tenant("exact").degraded == 0
    # instants never degrade: there is no coarser tier for a point read
    assert all(
        not fut.result().degraded for fut in [blocker, *fillers]
    )


def test_hot_cache_hits_and_epoch_invalidation():
    _uncached, store = _small_engine()
    engine = QueryEngine(store)  # its cache is the front door's only cache
    fd = QueryFrontDoor(
        engine, tenants=[_open_spec("t")], n_workers=1, enable_standing=False,
    )
    at = HORIZON * 0.9
    with fd:
        first = fd.serve(QueryRequest(RANGE_Q, tenant="t", at=at))
        assert first.status == "ok" and first.source != "cache"
        hit = fd.serve(QueryRequest(RANGE_Q, tenant="t", at=at))
        assert hit.status == "ok" and hit.source == "cache"
        assert fd.hot_hits == 1
        assert_bit_identical(hit.engine_result, first.engine_result)
        # a commit mints a new epoch: the stale entry must not serve
        from repro.telemetry.metric import SeriesKey

        with fd.write_gate():
            store.insert_batch(
                SeriesKey.of("m", node="n0", shard="0", rack="r0"),
                np.array([HORIZON * 2]),
                np.array([123.0]),
            )
        fresh = fd.serve(QueryRequest(RANGE_Q, tenant="t", at=at))
        assert fresh.source != "cache"
        assert fd.hot_hits == 1


def test_standing_auto_promotion():
    engine, single = _small_engine(seed=11)
    fd = QueryFrontDoor(engine, tenants=[_open_spec("t")], n_workers=1)
    ats = [HORIZON * 0.6, HORIZON * 0.7, HORIZON * 0.8]
    with fd:
        for at in ats[:2]:
            for _ in range(2):  # a repeat at one time is no new sighting
                early = fd.serve(QueryRequest(RANGE_Q, tenant="t", at=at))
                assert early.status == "ok" and early.source != "standing"
        assert RANGE_Q not in fd.standing.shapes
        # the third distinct evaluation time promotes, and is served
        third = fd.serve(QueryRequest(RANGE_Q, tenant="t", at=ats[2]))
        assert RANGE_Q in fd.standing.shapes
    assert third.status == "ok" and third.source == "standing"
    assert fd.standing_served >= 1
    direct = QueryEngine(single, enable_cache=False)
    assert_results_match(third.engine_result, direct.query(RANGE_Q, at=ats[2]))


def test_unknown_tenant_rejected():
    engine, _store = _small_engine()
    fd = QueryFrontDoor(engine, n_workers=0, enable_standing=False)
    res = fd.serve(QueryRequest(INSTANT, tenant="nobody", at=1.0))
    assert res.status == "rejected" and res.reason == "unknown_tenant"
    assert fd.rejected_unknown == 1


def test_stop_resolves_queued_requests():
    engine, _store = _small_engine()
    fd = QueryFrontDoor(
        engine, tenants=[_open_spec("t")], n_workers=0, enable_standing=False,
    )
    fd.start()
    fut = fd.submit(QueryRequest(INSTANT, tenant="t", at=1.0))
    fd.stop()
    res = fut.result(timeout=5.0)
    assert res.status == "rejected" and res.reason == "shutdown"


def test_error_answers_instead_of_dying():
    engine, _store = _small_engine()
    fd = QueryFrontDoor(
        engine, tenants=[_open_spec("t")], n_workers=1, enable_standing=False,
    )
    with fd:
        res = fd.serve(QueryRequest("not a query ((", tenant="t", at=1.0))
        assert res.status == "error"
        assert res.reason
        # the worker survived: a well-formed follow-up still serves
        ok = fd.serve(QueryRequest(INSTANT, tenant="t", at=500.0))
        assert ok.status == "ok"
    assert fd.admission.tenant("t").errors == 1


def _served_at_resolution(fd, futures, tenant):
    """Per future, the tenant's ``served`` count when it was resolved."""
    seen = [None] * len(futures)
    for i, fut in enumerate(futures):
        fut.add_done_callback(
            lambda _f, _i=i: seen.__setitem__(_i, fd.admission.tenant(tenant).served)
        )
    return seen


def test_answers_wait_for_their_tenants_queue_to_run_empty():
    clock = FakeClock()  # stands still while the worker runs: no bound fires
    engine, _store = _small_engine()
    fd = QueryFrontDoor(
        engine, tenants=[_open_spec("t")], n_workers=1, enable_standing=False,
        clock=clock,
    )
    with fd:
        with fd.write_gate():
            futures = [fd.submit(QueryRequest(INSTANT, tenant="t", at=500.0))]
            _wait_inflight(fd, "t", 1)
            for i in range(1, 4):
                clock.t += 0.001
                futures.append(fd.submit(QueryRequest(INSTANT, tenant="t", at=500.0 + i)))
            seen = _served_at_resolution(fd, futures, "t")
        results = [fut.result(timeout=5.0) for fut in futures]
    assert [r.status for r in results] == ["ok"] * 4
    # nothing left the worker before the last queued request had run ...
    assert seen == [4, 4, 4, 4]
    # ... and every latency runs to that one hand-over
    assert [r.latency_ms for r in results] == pytest.approx([3.0, 2.0, 1.0, 0.0])
    assert fd.p99_ms("t") == pytest.approx(3.0)


def test_a_tenant_without_backlog_is_answered_at_once():
    engine, _store = _small_engine()
    fd = QueryFrontDoor(
        engine, tenants=[_open_spec("greedy"), _open_spec("quiet")],
        n_workers=1, enable_standing=False, clock=FakeClock(),
    )
    with fd:
        with fd.write_gate():
            greedy = [fd.submit(QueryRequest(INSTANT, tenant="greedy", at=500.0))]
            _wait_inflight(fd, "greedy", 1)
            greedy += [
                fd.submit(QueryRequest(INSTANT, tenant="greedy", at=500.0 + i))
                for i in range(1, 4)
            ]
            quiet = fd.submit(QueryRequest(INSTANT, tenant="quiet", at=500.0))
            seen = _served_at_resolution(fd, [quiet], "greedy")
        for fut in [*greedy, quiet]:
            assert fut.result(timeout=5.0).status == "ok"
    assert seen[0] < len(greedy)  # not held behind the other tenant's queue


def test_held_answers_leave_after_the_handover_bound():
    from repro.serve.frontdoor import HANDOVER_MAX_S

    class TickingClock:
        t = 0.0

        def __call__(self):
            self.t += HANDOVER_MAX_S
            return self.t

    engine, _store = _small_engine()
    fd = QueryFrontDoor(
        engine, tenants=[_open_spec("t")], n_workers=1, enable_standing=False,
        clock=TickingClock(),
    )
    with fd:
        with fd.write_gate():
            futures = [fd.submit(QueryRequest(INSTANT, tenant="t", at=500.0))]
            _wait_inflight(fd, "t", 1)
            futures += [
                fd.submit(QueryRequest(INSTANT, tenant="t", at=500.0 + i))
                for i in range(1, 4)
            ]
            seen = _served_at_resolution(fd, futures, "t")
        for fut in futures:
            assert fut.result(timeout=5.0).status == "ok"
    assert seen == [1, 2, 3, 4]  # the queue never ran empty; the bound did it
