"""The engine cache under a submit-side probe racing a worker.

The front door answers a request from the engine's cache at submit, on
the caller's thread and without the engine lock, while its worker stores
and evicts.  A tiny cache keeps evictions constant; the probe must never
raise and never hand back a result stored under another expression,
window or write epoch.
"""

import sys
import threading

import numpy as np

from repro.query import QueryEngine
from repro.query.cache import QueryCache
from repro.query.engine import _PLANS_MAX, _Memo
from repro.query.model import MetricQuery
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

ITERATIONS = 10_000


def _race(probe, work, n_probes=3):
    """Run ``probe`` on ``n_probes`` threads — more threads than cores —
    for as long as ``work`` runs here, with the interpreter switching
    threads more often than usual; re-raise what a probe thread raised."""
    stop = threading.Event()
    errors = []

    def loop():
        try:
            while not stop.is_set():
                probe()
        except Exception as exc:  # handed to the test thread below
            errors.append(exc)

    threads = [threading.Thread(target=loop) for _ in range(n_probes)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def test_probe_never_sees_another_keys_result():
    cache = QueryCache(max_entries=4)
    rng = np.random.default_rng(0)
    # twelve keys over three expressions, two windows and two epochs:
    # three times the cache, so probes hit entries being evicted
    exprs = [f"mean(m{i}[60s])" for i in range(3)]

    def key_of(i, t, epoch):
        return QueryCache.make_key(exprs[i], t - 60.0, t, 1.0, version=epoch)

    seen = {"hits": 0, "probes": 0}
    probe_rng = np.random.default_rng(1)

    def probe():
        key = key_of(int(probe_rng.integers(3)), float(probe_rng.integers(2)),
                     int(probe_rng.integers(2)))
        hit = cache.probe(key)
        seen["probes"] += 1
        if hit is not None:
            assert hit == key  # every entry stores its own key
            seen["hits"] += 1

    def work():
        for _ in range(ITERATIONS):
            key = key_of(int(rng.integers(3)), float(rng.integers(2)), int(rng.integers(2)))
            if cache.get(key) is None:
                cache.put(key, key)

    _race(probe, work)
    assert len(cache) <= 4
    assert cache.evictions > 0
    assert seen["probes"] > 0 and seen["hits"] > 0


def test_engine_cached_probe_races_queries_and_commits():
    store = TimeSeriesStore(default_capacity=1024)
    for i in range(4):
        store.insert(SeriesKey.of("m", node=f"n{i}"), 1.0, float(i))
    engine = QueryEngine(store, cache=QueryCache(max_entries=4))
    exprs = ["mean(m[60s])", "max(m[60s])", "sum(m[120s] by 30s)", "last(m)"]
    probe_rng = np.random.default_rng(2)

    def probe():
        q = engine.parse(exprs[int(probe_rng.integers(len(exprs)))])
        at = float(probe_rng.integers(100, 104))
        hit = engine.cached(q, at=at)
        if hit is not None:
            # same expression and the same quantized window
            quantum = q.step_s or engine.instant_quantum_s
            assert hit.query == q
            assert hit.t1 // quantum == at // quantum
            assert hit.source == "cache"

    rng = np.random.default_rng(3)

    def work():
        t = 2.0
        for n in range(ITERATIONS // 5):
            engine.query(exprs[int(rng.integers(len(exprs)))], at=float(rng.integers(100, 104)))
            if n % 16 == 0:  # a commit mints new epochs under the probe
                store.insert(SeriesKey.of("m", node=f"n{n % 4}"), t, float(n))
                t += 1e-3
            if n % 200 == 0:  # so does a brand-new metric
                store.insert(SeriesKey.of(f"x{n}", node="n0"), t, 0.0)

    _race(probe, work)
    assert len(engine.cache) <= 4


def test_memo_lookup_races_eviction():
    """The engine's expression and plan memos are shared the same way:
    the probe looks a query up at submit while the worker plans and
    evicts.  Their keys hash in Python, so a thread switch can fall
    between finding an entry and refreshing it."""
    memo = _Memo()
    keys = [MetricQuery("m", range_s=float(k + 1)) for k in range(_PLANS_MAX + 64)]
    probe_rng = np.random.default_rng(4)

    def probe():
        key = keys[int(probe_rng.integers(len(keys)))]
        assert memo.lookup(key, lambda k: k.range_s) == key.range_s

    def work():
        for n in range(5 * ITERATIONS):
            key = keys[n % len(keys)]  # every pass over the keys evicts
            memo.lookup(key, lambda k: k.range_s)

    _race(probe, work)
    assert len(memo) <= _PLANS_MAX
