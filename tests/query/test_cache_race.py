"""The engine's result memo under a submit-side probe racing a worker.

The front door answers a request from the engine's memo at submit, on
the caller's thread and without the engine lock, while its worker stores,
drops superseded versions and evicts.  A tiny memo bound keeps evictions
constant; the probe must never raise and never hand back a result stored
under another expression, window or write version.
"""

import sys
import threading

import numpy as np

import repro.query.engine
from repro.query import QueryEngine
from repro.query.engine import _PLANS_MAX, _Answers, _Memo
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


def test_probe_never_sees_another_keys_result(monkeypatch):
    monkeypatch.setattr(repro.query.engine, "_ANSWERS_MAX", 4)
    cache = _Answers()
    rng = np.random.default_rng(0)
    # twelve keys over three expressions, two windows and two epochs:
    # three times the memo, so probes hit entries being evicted
    exprs = [f"mean(m{i}[60s])" for i in range(3)]

    def key_of(i, t, epoch):
        """The memo key — expression, quantized window — and the version."""
        return (exprs[i], int(t) - 60, int(t)), epoch

    seen = {"hits": 0, "probes": 0}
    probe_rng = np.random.default_rng(1)

    def probe():
        key = key_of(int(probe_rng.integers(3)), float(probe_rng.integers(2)),
                     int(probe_rng.integers(2)))
        answer = cache.probe(*key)
        hit = None if answer is None else answer.result
        seen["probes"] += 1
        if hit is not None:
            assert hit == key  # every entry stores its own key
            seen["hits"] += 1

    def work():
        for _ in range(ITERATIONS):
            key = key_of(int(rng.integers(3)), float(rng.integers(2)), int(rng.integers(2)))
            if cache.probe(*key, miss=1) is None:
                cache.put(*key, key)

    _race(probe, work)
    assert len(cache) <= 4
    assert cache.evictions > 0
    assert seen["probes"] > 0 and seen["hits"] > 0


def test_engine_cached_probe_races_queries_and_commits(monkeypatch):
    monkeypatch.setattr(repro.query.engine, "_ANSWERS_MAX", 4)
    store = TimeSeriesStore(default_capacity=1024)
    for i in range(4):
        store.insert(SeriesKey.of("m", node=f"n{i}"), 1.0, float(i))
    engine = QueryEngine(store)
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


def test_a_late_put_never_drops_a_newer_answer(monkeypatch):
    """A put at version ``v`` drops its expression's records at older
    versions, and a put behind a newer version — a worker that read the
    version before a commit and stores after it — is not kept and drops
    nothing.  Range reads carry int epochs, instant reads over tiers
    ``(epoch, folds)`` pairs.  The probe still never sees another key's
    answer.  Eight records fit the bound: nothing here is evicted."""
    monkeypatch.setattr(repro.query.engine, "_ANSWERS_MAX", 8)
    cache = _Answers()
    exprs = ["mean(m0[60s] by 10s)", "max(m1[60s] by 10s)", "last(m2)", "mean(m3[60s])"]
    live = [0, 0, (0, 0), (0, 0)]  # the version of each expression's records
    stored = [set() for _ in exprs]  # the windows recorded at that version
    rng = np.random.default_rng(5)

    def newer(v):
        if isinstance(v, int):
            return v + 1
        return (v[0] + 1, 0) if rng.random() < 0.5 else (v[0], v[1] + 1)

    def older(v):
        return v - 1 if isinstance(v, int) else (v[0] - 1, v[1] + 7)

    def key_of(i, t):
        return (exprs[i], t, t + 6)

    probe_rng = np.random.default_rng(6)

    def probe():
        i, t = int(probe_rng.integers(4)), int(probe_rng.integers(2))
        version = live[i] if probe_rng.random() < 0.5 else older(live[i])
        answer = cache.probe(key_of(i, t), version)
        if answer is not None:
            assert answer.result == (key_of(i, t), version)

    def work():
        for _ in range(ITERATIONS):
            i, t = int(rng.integers(4)), int(rng.integers(2))
            key, draw = key_of(i, t), rng.random()
            if draw < 0.1 and stored[i]:  # a late put: refused, the newer records stay
                late = older(live[i])
                cache.put(key, late, (key, late))
                assert cache.probe(key, late) is None
            else:
                version = newer(live[i]) if draw > 0.8 else live[i]
                if cache.probe(key, version, miss=1) is None:
                    cache.put(key, version, (key, version))
                if version != live[i]:  # the older records went
                    assert all(cache.probe(key_of(i, w), live[i]) is None for w in (0, 1))
                    live[i], stored[i] = version, set()
                stored[i].add(t)
            for j in range(4):
                for w in stored[j]:
                    got = cache.probe(key_of(j, w), live[j])
                    assert got is not None and got.result == (key_of(j, w), live[j])
            assert len(cache) == sum(map(len, stored))

    _race(probe, work)
    assert cache.evictions == 0


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
