"""A result whose groups all hold the same bins is built dense.

:func:`repro.query.engine.build_series` builds such a result from the
rows of one values block over one shared ``times`` array; every other
result is sliced group by group.  Both must give the same labels, equal
times and values, and read-only arrays — and a result in which one group
misses one bin must take the slice path.
"""

import numpy as np
import pytest

from repro.query import QueryEngine
from repro.query.engine import build_series, dense_series, sliced_series
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

LABELS = tuple(((("node", f"n{i}"),) for i in range(6)))


def rows(groups, bins):
    """Reduced ``(group, bin)`` rows: each of ``groups`` holds ``bins``."""
    gidx = np.repeat(np.array(groups), len(bins))
    b = np.tile(np.array(bins), len(groups))
    return gidx, b, np.arange(gidx.size) * 1.5


def assert_same_series(got, want):
    assert [s.labels for s in got] == [s.labels for s in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)
        for arr in (a.times, a.values, b.times, b.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


@pytest.mark.parametrize("groups, bins, step", [
    ([0, 1, 2, 3, 4, 5], [3, 4, 7], 60.0),
    ([1, 4, 5], [0], 60.0),
    ([2], [0, 1, 2, 5], 60.0),
    ([0, 1, 2, 3, 4, 5], [0], None),  # instant: one bin per group
    ([3], [0], None),
])
def test_dense_rows_build_the_slice_paths_series_over_one_times(groups, bins, step):
    gidx, b, vals = rows(groups, bins)
    got = build_series(LABELS, gidx, b, vals, 120.0, step)
    assert dense_series(LABELS, gidx, b, vals.copy(), 120.0, step) is not None
    assert_same_series(got, sliced_series(LABELS, gidx, b, vals.copy(), 120.0, step))
    assert all(s.times is got[0].times for s in got)
    assert all(s.values.base is got[0].values.base for s in got)


def test_a_group_missing_a_bin_takes_the_slice_path():
    gidx, b, vals = rows([0, 1, 2], [0, 1, 2])
    drop = np.arange(gidx.size) != 4  # group 1, bin 1
    gidx, b, vals = gidx[drop], b[drop], vals[drop]
    assert dense_series(LABELS, gidx, b, vals, 0.0, 10.0) is None
    got = build_series(LABELS, gidx, b, vals, 0.0, 10.0)
    assert_same_series(got, sliced_series(LABELS, gidx, b, vals.copy(), 0.0, 10.0))
    assert [s.times.tolist() for s in got] == [[0.0, 10.0, 20.0], [0.0, 20.0], [0.0, 10.0, 20.0]]
    # same row count per group, other bins: not dense either
    gidx, b, vals = rows([0, 1], [0, 1])
    b[2:] += 1
    assert dense_series(LABELS, gidx, b, vals, 0.0, 10.0) is None


def test_engine_results_are_dense_exactly_when_every_group_has_every_bin():
    store = TimeSeriesStore(default_capacity=64)
    for i in range(4):
        times = np.arange(0.0, 300.0, 10.0)
        if i == 3:
            times = times[times < 100.0]  # stops reporting: misses later bins
        store.insert_batch(SeriesKey.of("m", node=f"n{i}"), times, times + i)
    engine = QueryEngine(store, enable_cache=False)
    full = engine.query("mean(m[120s] by 30s) group by (node)", at=90.0)
    assert len(full.series) == 4 and all(s.times is full.series[0].times for s in full.series)
    ragged = engine.query("mean(m[200s] by 30s) group by (node)", at=290.0)
    assert len(ragged.series) == 4
    assert ragged.series[3].times.size < ragged.series[0].times.size
