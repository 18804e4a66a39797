"""A small read's short cuts give the long way's answer, bit for bit.

Two short cuts serve the drill-downs of a dashboard or a loop:

* :func:`repro.query.passes._partial_rows` passes rows through as they
  are where every ``(series, bin)`` holds one row — tier rows read at
  their own resolution — instead of reducing size-one segments.  Its
  output must be ``tobytes``-equal to the ``reduceat`` reduction of the
  same rows (:func:`reduced_rows`), for raw windows (``count`` ``None``),
  tier rows at step = resolution and at 3 × resolution, and instant reads.
* A pass whose windows are all below the fold watermarks reads no raw
  ring, and the gather of one pass's rows over single-series groups
  skips its order check.  Drill-downs over eight series then answer as
  an engine that takes neither short cut — windows read by the
  vectorised kernel, rows always reduced, the gather always checked —
  on every store shape and executor, folded or with a raw tail, and as
  the brute-force reference at 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import engine as engine_mod
from repro.query import passes
from repro.query.kernels import segment_bounds
from repro.query.reference import evaluate_naive
from repro.telemetry import tsdb
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

from tests.query.test_property import assert_results_match

COLUMNS = ("gidx", "rank", "bin", "source", "sum", "count", "min", "max", "last_t", "last_v")


def reduced_rows(cols, lens, gidxs, ranks, grid_t0, step, source):
    """The rows of :func:`~repro.query.passes._partial_rows`, every
    segment reduced with ``reduceat`` whatever its size."""
    series_pos = np.repeat(np.arange(lens.size), lens)
    bins = passes._bin_of(cols["time"], grid_t0, step)
    starts, ends = segment_bounds(series_pos, bins)
    sel = series_pos[starts]
    count = cols["count"]
    return {
        "gidx": gidxs[sel],
        "rank": ranks[sel],
        "bin": bins[starts],
        "source": np.full(starts.size, source, dtype=np.int64),
        "sum": np.add.reduceat(cols["sum"], starts),
        "count": (ends - starts).astype(np.float64) if count is None
        else np.add.reduceat(count, starts),
        "min": np.minimum.reduceat(cols["min"], starts),
        "max": np.maximum.reduceat(cols["max"], starts),
        "last_t": cols["last_t"][ends - 1],
        "last_v": cols["last_v"][ends - 1],
    }


def assert_same_rows(got, want):
    for name in COLUMNS:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


VALUE = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e300, -1e-300, np.inf, -np.inf, np.nan]),
)
RES = 10.0
GRID_T0 = 1000.0


@st.composite
def windows(draw, kind):
    """``(cols, lens, step)`` of back-to-back windows of up to six series.

    ``tier-res`` / ``tier-3res``: one row per occupied bin of the
    resolution (gaps allowed), read at step = resolution or 3 ×
    resolution.  ``raw``: time-sorted samples, several to a bin.
    ``instant``: raw samples pooled into one bin, one or more a series.
    """
    n = draw(st.integers(1, 6))
    times, lens = [], []
    for _ in range(n):
        if kind.startswith("tier"):
            bins = sorted(draw(st.sets(st.integers(0, 11), max_size=8)))
            t = [GRID_T0 + b * RES for b in bins]
        else:
            t = sorted(draw(st.lists(st.integers(0, 1199), max_size=8)))
            t = [GRID_T0 + k / 10.0 for k in t]
        times += t
        lens.append(len(t))
    total = len(times)
    time = np.array(times, dtype=np.float64)
    vals = [np.array(draw(st.lists(VALUE, min_size=total, max_size=total)), dtype=np.float64)
            for _ in range(5)]
    if kind.startswith("tier"):
        count = np.array(draw(st.lists(st.integers(1, 9), min_size=total, max_size=total)),
                         dtype=np.float64)
        cols = {"time": time, "sum": vals[0], "count": count, "min": vals[1], "max": vals[2],
                "last_t": time + draw(st.floats(0.0, RES - 1.0)), "last_v": vals[3]}
    else:  # a raw window's columns are its samples
        v = vals[4]
        cols = {"time": time, "sum": v, "count": None, "min": v, "max": v, "last_t": time,
                "last_v": v}
    step = {"tier-res": RES, "tier-3res": 3 * RES, "raw": RES, "instant": None}[kind]
    return cols, np.array(lens, dtype=np.int64), step


@pytest.mark.parametrize("kind", ["tier-res", "tier-3res", "raw", "instant"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pass_through_rows_equal_the_reduced_rows(kind, data):
    cols, lens, step = data.draw(windows(kind))
    gidxs = np.arange(lens.size, dtype=np.int64) // 2  # two series a group
    ranks = np.arange(lens.size, dtype=np.int64) % 2
    source = data.draw(st.sampled_from([0, 1]))
    with np.errstate(invalid="ignore"):  # inf - inf in a sum is NaN either way
        got = passes._partial_rows(cols, lens, gidxs, ranks, GRID_T0, step, source)
        want = reduced_rows(cols, lens, gidxs, ranks, GRID_T0, step, source)
    assert_same_rows(got, want)
    if kind == "tier-res":  # one row a bin: nothing to reduce
        assert got["bin"].size == int(lens.sum())


# --------------------------------------------------------------------------
# Drill-downs on every executor.

N_NODES = 32
TICKS = 90
PERIOD_S = 10.0
RESOLUTIONS = (10.0, 60.0)
FOLD_AT = 800.0


def fill(store):
    keys = [SeriesKey.of("node_cpu_util", node=f"n{i:02d}") for i in range(N_NODES)]
    ids = np.array([store.registry.id_for(key) for key in keys], dtype=np.int64)
    rng = np.random.default_rng(3)
    for tick in range(TICKS):
        t = tick * PERIOD_S + rng.uniform(0.0, 1.0, ids.size)
        store.append_batch(ids, np.round(t, 3), rng.normal(50.0, 10.0, ids.size))


def drill_downs():
    """``(expression, at)``: eight-node drill-downs at every window and
    step of the serving mix, fully folded (at ≤ the watermark minus a
    step) and with a raw tail past the watermark; grouped by node (every
    group one series) and pooled into one group."""
    rng = np.random.default_rng(11)
    out = []
    for at in (FOLD_AT - 60.0, FOLD_AT - 125.0, FOLD_AT + 45.0, TICKS * PERIOD_S):
        for window in (120, 300, 600):
            for step in (10, 30, 60):
                for agg in ("mean", "max", "last"):
                    nodes = sorted(rng.choice(N_NODES, 8, replace=False).tolist())
                    sel = "|".join(f"n{i:02d}" for i in nodes)
                    expr = f'{agg}(node_cpu_util{{node=~"{sel}"}}[{window}s] by {step}s)'
                    out += [(expr + " group by (node)", at), (expr, at)]
    return out


def long_way(monkeypatch, queries):
    """The answers of a plain store's engine that takes no short cut."""
    store = TimeSeriesStore()
    store.create_tiersets(RESOLUTIONS)
    fill(store)
    engine = engine_mod.QueryEngine(store, enable_cache=False)
    engine.fold_rollups(FOLD_AT)
    reduce = engine_mod.reduce_partial
    with monkeypatch.context() as patch:
        patch.setattr(tsdb, "WINDOW_LOOP_SERIES", -1)
        patch.setattr(passes, "_partial_rows", reduced_rows)
        patch.setattr(engine_mod, "reduce_partial",
                      lambda *args, canonical=False: reduce(*args))
        return store, [engine.query(q, at=at) for q, at in queries]


def test_drill_downs_answer_as_the_long_way(executor, monkeypatch):
    store = executor.store(4, resolutions=RESOLUTIONS)
    fill(store)
    engine = executor.engine(store, enable_cache=False)
    engine.fold_rollups(FOLD_AT)
    queries = drill_downs()
    plain, want = long_way(monkeypatch, queries)
    executor.degrade(store)
    sources = set()
    for (q, at), expected in zip(queries, want):
        got = engine.query(q, at=at)
        sources.add(got.source)
        assert [s.labels for s in got.series] == [s.labels for s in expected.series]
        for a, b in zip(got.series, expected.series):
            assert a.times.tobytes() == b.times.tobytes(), (q, at)
            assert a.values.tobytes() == b.values.tobytes(), (q, at, a.labels)
        assert_results_match(got, evaluate_naive(plain, q, at=at))
    assert {"rollup:10s", "rollup:60s"} <= sources
