"""Property: the multi-series window kernel equals the per-series reads.

:meth:`repro.telemetry.tsdb.DenseRings.windows` (through
:meth:`RawRings.windows` for raw rings, directly for a rollup
:class:`~repro.query.rollup.DenseTier`) reads the windows of many series
in one call: flat columns back to back plus one length per series.
Split by those lengths, they must equal the scalar ``RawRings.window``
(filtered to ``t < hi`` for a half-open window) and ``DenseTier.window``
of every series — over wrapped rings, rings holding fewer rows than
their capacity, empty rings, ids with no ring or no storage, mixed
capacity classes, several storage chunks, several lanes, ids in any
order (repeats included), both right-edge inclusivities, scalar or
per-series ``lo`` / ``hi``, and NaN left edges (a NaN range has no
rows).  Both implementations are held to it: the
vectorised bisect and the ring-by-ring loop the kernel keeps for a few
series (:data:`~repro.telemetry.tsdb.WINDOW_LOOP_SERIES`).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.rollup import ROW_COLUMNS, DenseTier
from repro.telemetry import tsdb
from repro.telemetry.tsdb import RawRings

#: ids ``[0, N_IDS)``; rings are created for a subset, in three batches
#: so that a class grows past its first 64-id chunk
N_IDS = 200
CAPACITIES = (3, 5, 16)
#: every read goes through the kernel (``-1``) or the ring-by-ring loop
IMPLEMENTATIONS = (-1, 10**9)

TIME = st.integers(0, 60).map(float)
ring_spec = st.tuples(
    st.sampled_from(CAPACITIES),
    st.lists(TIME, min_size=0, max_size=40).map(sorted),
)
scenario = st.fixed_dictionaries({
    "lanes": st.sampled_from([1, 3]),
    "rings": st.dictionaries(st.integers(0, N_IDS - 1), ring_spec, min_size=1, max_size=40),
    #: the ids read: a ring's (by index into the rings) or any id
    "ids": st.lists(
        st.one_of(st.integers(0, N_IDS + 20), st.integers(0, 40).map(lambda k: ("ring", k))),
        min_size=0, max_size=60,
    ),
    "lo": st.one_of(st.integers(-5, 40).map(float), st.just(None)),
    "width": st.one_of(st.integers(-3, 40).map(float), st.just(None)),
    "right_inclusive": st.booleans(),
    "nan_lo": st.booleans(),
    "loop": st.sampled_from(IMPLEMENTATIONS),
    "seed": st.integers(0, 2**16),
})


def _bounds(sc, n):
    """The scenario's ``lo`` and ``hi = lo + width``: each a scalar, or
    (``None``) one per id; with ``nan_lo`` the left edge (some of them,
    per id) is NaN and the right edge stays."""
    rng = np.random.default_rng(sc["seed"])
    lo = sc["lo"] if sc["lo"] is not None else rng.integers(-5, 40, n).astype(float)
    width = sc["width"] if sc["width"] is not None else rng.integers(-3, 40, n).astype(float)
    hi = lo + width
    if sc["nan_lo"]:
        lo = np.where(rng.random(n) < 0.5, np.nan, lo) if np.ndim(lo) else np.nan
    return lo, hi


def _ids(sc):
    rings = sorted(sc["rings"])
    return np.array([
        (rings[i[1] % len(rings)] if rings else 0) if isinstance(i, tuple) else i
        for i in sc["ids"]
    ], dtype=np.int64)


def _split(cols, lens):
    ends = np.cumsum(lens)
    assert all(col.size == (int(ends[-1]) if lens.size else 0) for col in cols)
    return [[col[e - n:e] for col in cols] for e, n in zip(ends.tolist(), lens.tolist())]


def _raw_rings(sc):
    rings = RawRings(lanes=sc["lanes"])
    by_cap = {}
    for sid, (cap, _) in sc["rings"].items():
        by_cap.setdefault(cap, []).append(sid)
    for cap, sids in by_cap.items():
        sids = np.array(sorted(sids))
        for part in np.array_split(sids, 3):  # several chunks
            if part.size:
                rings.create(part, cap)
    for sid, (_, times) in sc["rings"].items():
        # appended in pieces, so that a ring wraps at any slot
        for t in np.array_split(np.array(times), [len(times) // 3, len(times) // 2]):
            if t.size:
                rings.append(np.array([sid]), np.array([t.size]), t, t * 3.0 + sid)
    return rings


@settings(max_examples=200, deadline=None)
@given(scenario)
def test_raw_windows_equal_the_scalar_window_of_every_series(sc):
    rings = _raw_rings(sc)
    ids = _ids(sc)
    lo, hi = _bounds(sc, ids.size)
    with mock.patch.object(tsdb, "WINDOW_LOOP_SERIES", sc["loop"]):
        times, values, lens = rings.windows(ids, lo, hi, right_inclusive=sc["right_inclusive"])
    assert lens.shape == ids.shape and lens.dtype == np.int64
    for i, (t, v) in enumerate(_split([times, values], lens)):
        t0 = lo if np.ndim(lo) == 0 else lo[i]
        t1 = hi if np.ndim(hi) == 0 else hi[i]
        want_t, want_v = rings.window(int(ids[i]), t0, t1)
        if not sc["right_inclusive"]:
            keep = want_t < t1
            want_t, want_v = want_t[keep], want_v[keep]
        assert np.array_equal(t, want_t), (i, int(ids[i]))
        assert np.array_equal(v, want_v), (i, int(ids[i]))


@settings(max_examples=150, deadline=None)
@given(scenario)
def test_tier_windows_equal_the_scalar_tier_window_of_every_series(sc):
    tier = DenseTier(10.0, capacity=5, lanes=sc["lanes"])
    for n in (64 * sc["lanes"], 128 * sc["lanes"]):  # two chunks
        tier.add_chunk(np.zeros(tier.block_size(n)), n, fresh=True)
    rows = {sid: times for sid, (_, times) in sc["rings"].items() if sid < tier.n_series}
    for sid, times in sorted(rows.items()):
        for t in np.array_split(np.array(times), [len(times) // 3, len(times) // 2]):
            if t.size:
                cols = [t] + [t * (k + 1) + sid for k in range(len(ROW_COLUMNS) - 1)]
                tier.append_rows(np.array([sid]), np.array([t.size]), cols)
    ids = _ids(sc)
    ids[ids >= tier.n_series] = tier.n_series + 3  # ids without storage
    lo, hi = _bounds(sc, ids.size)
    with mock.patch.object(tsdb, "WINDOW_LOOP_SERIES", sc["loop"]):
        cols, lens = tier.windows(ids, lo, hi, right_inclusive=False)
    assert len(cols) == len(ROW_COLUMNS)
    for i, got in enumerate(_split(cols, lens)):
        t0 = lo if np.ndim(lo) == 0 else lo[i]
        t1 = hi if np.ndim(hi) == 0 else hi[i]
        want = tier.window(int(ids[i]), t0, t1)
        if want is None:
            assert got[0].size == 0
            continue
        for name, col in zip(ROW_COLUMNS, got):
            assert np.array_equal(col, want[name]), (i, name)


def test_an_empty_selection_and_a_store_without_rings_read_nothing():
    rings = RawRings()
    for ids in (np.zeros(0, dtype=np.int64), np.array([5, 1, 5])):
        for loop in IMPLEMENTATIONS:
            with mock.patch.object(tsdb, "WINDOW_LOOP_SERIES", loop):
                times, values, lens = rings.windows(ids, 0.0, 10.0)
            assert times.size == values.size == 0
            assert np.array_equal(lens, np.zeros(ids.size))


def _nan_edges(case, n):
    """``(lo, hi)`` over ``[0, 10]`` with a NaN edge: scalar, or on the
    even-indexed series only (``mixed_*``)."""
    even = np.arange(n) % 2 == 0
    return {
        "scalar_lo": (np.nan, 10.0),
        "scalar_hi": (0.0, np.nan),
        "mixed_lo": (np.where(even, np.nan, 0.0), 10.0),
        "mixed_hi": (0.0, np.where(even, np.nan, 10.0)),
    }[case]


@pytest.mark.parametrize("case", ["scalar_lo", "scalar_hi", "mixed_lo", "mixed_hi"])
@pytest.mark.parametrize("right_inclusive", [False, True])
@pytest.mark.parametrize("loop", IMPLEMENTATIONS, ids=["kernel", "ring_by_ring"])
def test_a_nan_edge_has_no_rows_on_either_path(case, right_inclusive, loop):
    n = 40
    rings = RawRings()
    ids = np.arange(n)
    rings.create(ids, 5)
    t = np.tile([1.0, 2.0, 3.0], n)
    rings.append(ids, np.full(n, 3), t, t * 3.0)
    lo, hi = _nan_edges(case, n)
    with mock.patch.object(tsdb, "WINDOW_LOOP_SERIES", loop):
        times, values, lens = rings.windows(ids, lo, hi, right_inclusive=right_inclusive)
    want = np.where(ids % 2 == 0, 0, 3) if case.startswith("mixed") else np.zeros(n)
    assert np.array_equal(lens, want)
    assert np.array_equal(times, np.tile([1.0, 2.0, 3.0], int(want.sum()) // 3))
    assert np.array_equal(values, times * 3.0)
