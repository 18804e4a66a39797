"""A scatter pass reads a place's windows with one kernel call, never
series by series.

The twin of the fleet tick's ``shard.inserts == 0`` guard, on the read
side and over every executor: a 4,096-series range read (tier rows
below the fold watermarks plus the raw tail past them) and a 257-series
instant ``max(…) group by (loop)`` read make no scalar
``RawRings.window`` / ``DenseTier.window`` call.  In process such a call
is counted; in a pool worker, forked after the patch, it raises and
fails the dispatch.  (Folds are not reads: the counters arm after
them.)  The passes are over more series than the kernel reads ring by
ring, so the vectorised bisect serves them.  The answers are the plain
store's, bit for bit.

A small read pays only for what it reads: a drill-down whose window is
below every fold watermark reads no raw ring, and a window read whose
every range is empty or inverted reaches neither read, on either side
of :data:`~repro.telemetry.tsdb.WINDOW_LOOP_SERIES`.
"""

import os
from collections import Counter

import numpy as np
import pytest

from repro.query import MetricQuery, QueryEngine
from repro.query.rollup import DenseTier
from repro.telemetry import tsdb
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import DenseRings, RawRings, TimeSeriesStore

from tests.shard.test_federation_property import assert_bit_identical

N_NODES = 4096
N_LOOPS = 257
TICKS = 60
PERIOD_S = 10.0
RESOLUTIONS = (10.0, 60.0)


class Reads:
    """Scalar window reads and ring-by-ring kernel reads, counted while
    armed — the flag is a file, so a forked pool worker sees it too."""

    def __init__(self, flag, monkeypatch) -> None:
        self.flag = flag
        self.calls = Counter()
        self._monkeypatch = monkeypatch
        self._parent = os.getpid()

    def arm(self) -> None:
        self.flag.touch()

    def counted(self, cls, name, kind) -> None:
        """Count the calls of ``cls.name`` as ``kind`` while armed (a
        call in a pool worker fails its dispatch)."""
        fn = getattr(cls, name)

        def wrapper(this, *args, **kwargs):
            if self.flag.exists():
                if os.getpid() != self._parent:
                    raise AssertionError(f"{kind} read in a pool worker")
                self.calls[kind] += 1
            return fn(this, *args, **kwargs)

        self._monkeypatch.setattr(cls, name, wrapper)


@pytest.fixture
def reads(monkeypatch, tmp_path):
    reads = Reads(tmp_path / "armed", monkeypatch)
    reads.counted(RawRings, "window", "raw")
    reads.counted(DenseTier, "window", "tier")
    reads.counted(DenseRings, "_window_loop", "loop")
    return reads


def fill(store):
    nodes = [SeriesKey.of("node_cpu_util", node=f"n{i:04d}") for i in range(N_NODES)]
    loops = [SeriesKey.of("loop_iteration_ms", loop=f"l{i:03d}") for i in range(N_LOOPS)]
    ids = np.array([store.registry.id_for(key) for key in nodes + loops], dtype=np.int64)
    rng = np.random.default_rng(7)
    for tick in range(TICKS):
        t = tick * PERIOD_S + rng.uniform(0.0, 1.0, ids.size)
        store.append_batch(ids, np.round(t, 3), rng.normal(50.0, 10.0, ids.size))


def oracle():
    store = TimeSeriesStore(default_capacity=128)
    store.create_tiersets(RESOLUTIONS)
    fill(store)
    return store


QUERIES = (
    MetricQuery("node_cpu_util", agg="mean", range_s=480.0, step_s=60.0, group_by=("node",)),
    MetricQuery("loop_iteration_ms", agg="max", range_s=300.0, group_by=("loop",)),
)


def test_wide_reads_make_no_per_series_window_read(executor, reads):
    store = executor.store(4, resolutions=RESOLUTIONS, capacity=128)
    fill(store)
    engine = executor.engine(store, enable_cache=False)
    plain = oracle()
    want = executor.engine(plain, enable_cache=False)
    for qe in (engine, want):
        qe.fold_rollups(400.0)
    executor.degrade(store)
    at = TICKS * PERIOD_S
    reads.arm()
    got = [engine.query(q, at=at) for q in QUERIES]
    assert reads.calls == Counter()
    assert got[0].source == "rollup:60s"
    assert [len(r.series) for r in got] == [N_NODES, N_LOOPS]
    for q, result in zip(QUERIES, got):
        assert_bit_identical(result, want.query(q, at=at))


def test_a_few_series_are_read_ring_by_ring(reads):
    engine = QueryEngine(oracle(), enable_cache=False)
    reads.arm()
    q = engine.parse('max(loop_iteration_ms{loop=~"l00[01]"}[300s]) group by (loop)')
    assert len(engine.query(q, at=TICKS * PERIOD_S).series) == 2 <= tsdb.WINDOW_LOOP_SERIES
    assert reads.calls == Counter(loop=1)


def test_a_folded_window_reads_no_raw_ring(reads):
    """A drill-down whose window ends before every fold watermark has no
    raw tail: its pass reads the tier ring by ring and no raw ring at
    all.  A window past the watermarks reads both."""
    store = oracle()
    engine = QueryEngine(store, enable_cache=False)
    engine.fold_rollups(TICKS * PERIOD_S)
    reads.counted(DenseTier, "_window_loop", "tier loop")
    reads.counted(RawRings, "windows", "raw windows")
    reads.arm()
    q = engine.parse('mean(node_cpu_util{node=~"n000[0-7]"}[300s] by 10s) group by (node)')
    folded = engine.query(q, at=TICKS * PERIOD_S - 100.0)
    assert folded.source == "rollup:10s" and len(folded.series) == 8
    assert reads.calls == Counter({"loop": 1, "tier loop": 1})
    reads.calls.clear()
    engine.query(q, at=TICKS * PERIOD_S + 30.0)
    assert reads.calls == Counter({"loop": 2, "tier loop": 1, "raw windows": 1})


@pytest.mark.parametrize("n", [2, 2 * tsdb.WINDOW_LOOP_SERIES])  # ring by ring; the kernel
def test_an_empty_or_inverted_range_touches_no_ring(reads, n):
    store = oracle()
    QueryEngine(store).fold_rollups(TICKS * PERIOD_S)
    tier = store.tiersets[0].tiers[0]
    sids = store.series_ids("node_cpu_util")[:n]
    reads.counted(DenseRings, "_chunk_windows", "kernel")
    reads.arm()
    per_series = np.linspace(100.0, 500.0, n)
    for lo, hi, inclusive in (
        (300.0, 300.0, False),  # empty half-open
        (300.0, 299.0, True),  # inverted
        (400.0, 100.0, False),
        (per_series, per_series - 1.0, True),
        (per_series, per_series, False),
    ):
        t, v, lens = store.rings.windows(sids, lo, hi, right_inclusive=inclusive)
        cols, tier_lens = tier.windows(sids, lo, hi, right_inclusive=inclusive)
        assert t.size == v.size == 0 and all(col.size == 0 for col in cols)
        assert lens.tolist() == tier_lens.tolist() == [0] * n
    assert reads.calls == Counter()
    store.rings.windows(sids, 300.0, 300.0, right_inclusive=True)  # a point: read
    assert sum(reads.calls.values()) == 1
