"""Property: the batched rollup fold is byte-equal to the per-series one.

Random multi-series column streams — duplicate timestamps inside a bin,
empty bins, samples arriving behind a watermark, series first seen after
folds began, data committed before the folder listened (bootstrap
scans), more rows per series than the tier retains, series ids beyond
the store's current blocks (growth), early buffer drains — are folded by
:class:`repro.query.rollup.CascadeFolder` over the dense tier store and
by the per-series oracle in ``rollup_oracle.py``.  Rows, watermarks,
late-sample counts and written counts must agree exactly after every
fold, on heap storage and on shared-memory storage folded through a
second mapping of the blocks (the worker's view).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.rollup import ROW_COLUMNS, CascadeFolder, TierStore
from repro.shard.parallel import SharedArena, _BlockCache

from tests.query.rollup_oracle import OracleFolder


class Raw:
    """Sid-addressed raw series (unbounded; the fold's bootstrap reader)."""

    def __init__(self, n_series: int) -> None:
        self.times = [[] for _ in range(n_series)]
        self.values = [[] for _ in range(n_series)]

    def __len__(self) -> int:
        return len(self.times)

    def extend(self, ids, times, values) -> None:
        for sid, t, v in zip(ids.tolist(), times.tolist(), values.tolist()):
            self.times[sid].append(t)
            self.values[sid].append(v)

    def earliest_time(self, sid: int):
        return self.times[sid][0] if self.times[sid] else None

    def window(self, sid: int, t0: float, t1: float):
        t = np.asarray(self.times[sid], dtype=np.float64)
        v = np.asarray(self.values[sid], dtype=np.float64)
        keep = (t >= t0) & (t <= t1)
        return t[keep], v[keep]


#: series ``k`` of a scenario has id ``k * SPREAD``: ids land in several
#: of the store's (64, 64, 128, ...)-series chunks and on both sides of
#: its current end, and the ids between them are interned but dataless
SPREAD = 29

#: time advances: repeats of one timestamp, neighbours in a bin, skipped bins
DT = st.sampled_from([0.0, 0.0, 0.5, 3.0, 7.0, 12.0, 45.0])
VALUE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)

commit = st.lists(st.tuples(st.integers(0, 9), DT, VALUE), min_size=0, max_size=24)
#: after a commit: nothing, a fold just behind / at / far ahead of the
#: data (the last makes later samples late), or a store growth step
action = st.sampled_from(["none", "fold_behind", "fold_at", "fold_ahead", "grow"])

scenario = st.fixed_dictionaries({
    "n_series": st.integers(1, 10),
    "capacity": st.integers(2, 5),
    "resolutions": st.sampled_from([(10.0,), (10.0, 30.0), (10.0, 20.0, 60.0)]),
    "initial_sids": st.integers(0, 10),
    "pre_steps": st.integers(0, 2),
    "buffer_cap": st.sampled_from([4, 1 << 18]),
    "steps": st.lists(st.tuples(commit, action), min_size=1, max_size=10),
})


def assert_same_tiers(store: TierStore, oracle: OracleFolder, n_series: int) -> None:
    used = [k * SPREAD for k in range(n_series)]
    for ti, tier in enumerate(store.tiers):
        for sid in used + [1, 63, 64, store.n_sids - 1, store.n_sids]:
            assert tier.watermark(sid) == oracle.watermark(ti, sid), (ti, sid)
            got = tier.window(sid, -np.inf, np.inf)
            want = oracle.window(ti, sid, -np.inf, np.inf)
            assert (got is None) == (want is None), (ti, sid)
            if got is not None:
                for name in ROW_COLUMNS:
                    assert got[name].tobytes() == want[name].tobytes(), (ti, sid, name)
            # narrower reads go through the same ring arithmetic
            got = tier.window(sid, 15.0, 65.0)
            want = oracle.window(ti, sid, 15.0, 65.0)
            if got is not None:
                assert got["time"].tobytes() == want["time"].tobytes(), (ti, sid)


def run_scenario(sc, owner: TierStore, folded: TierStore, sync) -> None:
    """Fold ``sc`` through ``folded`` (a view of ``owner``'s storage, or
    ``owner`` itself) and through the oracle; compare after every fold."""
    n_series = sc["n_series"]
    n_ids = (n_series - 1) * SPREAD + 1
    raw = Raw(n_ids)
    folder = CascadeFolder(folded.tiers, raw, buffer_cap=sc["buffer_cap"])
    oracle = OracleFolder(
        [t.resolution_s for t in owner.tiers], sc["capacity"], raw, buffer_cap=sc["buffer_cap"]
    )

    def grow(n: int) -> None:
        sync(owner.grow(n))
        oracle.n_sids = owner.n_sids

    if sc["initial_sids"]:
        grow(min(sc["initial_sids"] * SPREAD, n_ids))
    clock = np.zeros(n_series)
    for step, (rows, act) in enumerate(sc["steps"]):
        if rows:
            ids = np.array([sid % n_series * SPREAD for sid, _, _ in rows], dtype=np.int64)
            times = np.empty(len(rows))
            for i, (sid, dt, _) in enumerate(rows):
                clock[sid % n_series] += dt
                times[i] = clock[sid % n_series]
            values = np.array([v for _, _, v in rows], dtype=np.float64)
            raw.extend(ids, times, values)
            if step >= sc["pre_steps"]:  # earlier commits predate the listener
                folder.on_columns(ids, times, values)
                oracle.on_columns(ids, times, values)
                assert folder.late_dropped == oracle.late_dropped
        if act == "grow":
            grow(owner.n_sids + 1)  # one more chunk
        elif act != "none":
            boundary = {
                "fold_behind": np.floor(clock.max() / 10.0) * 10.0 - 10.0,
                "fold_at": np.floor(clock.max() / 10.0) * 10.0,
                "fold_ahead": np.floor(clock.max() / 10.0) * 10.0 + 50.0,
            }[act]
            assert folder.fold(boundary) == oracle.fold(boundary)
            assert folder.late_dropped == oracle.late_dropped
            assert_same_tiers(owner, oracle, n_series)
    grow(n_ids)
    final = np.floor(clock.max() / 10.0) * 10.0 + 120.0
    for boundary in (final, final):  # the second fold must be a no-op
        assert folder.fold(boundary) == oracle.fold(boundary)
    assert folder.fold(final) == 0
    assert folder.late_dropped == oracle.late_dropped
    assert_same_tiers(owner, oracle, n_series)


@settings(max_examples=120, deadline=None)
@given(sc=scenario)
def test_batched_fold_matches_oracle_on_heap(sc):
    store = TierStore(sc["resolutions"], sc["capacity"])
    run_scenario(sc, store, store, sync=lambda grown: None)


@settings(max_examples=40, deadline=None)
@given(sc=scenario)
def test_batched_fold_matches_oracle_on_shared_memory(sc):
    """The parent allocates and announces blocks; the fold runs on a
    second mapping built purely from the announced descriptors."""
    arena = SharedArena(f"repro.test.{os.getpid()}", block_bytes=1 << 12)
    cache = _BlockCache()
    try:
        owner = TierStore(sc["resolutions"], sc["capacity"], alloc=arena.alloc)
        mirror = TierStore(sc["resolutions"], sc["capacity"], alloc=None)

        def sync(grown) -> None:
            if grown is not None:
                sid0, n, descs = grown
                for _ in range(2):  # re-delivery is a no-op
                    mirror.attach(sid0, n, [cache.view(desc) for desc in descs])

        run_scenario(sc, owner, mirror, sync)
        assert mirror.n_sids == owner.n_sids
    finally:
        cache.close()
        arena.close(unlink=True)


def test_late_and_deferred_series_explicitly():
    """One hand-written pass over the paths the property relies on
    hypothesis to find: late drop, deferral beyond storage, growth."""
    store = TierStore((10.0, 30.0), 4)
    raw = Raw(3)
    folder = CascadeFolder(store.tiers, raw)
    oracle = OracleFolder((10.0, 30.0), 4, raw)
    store.grow(1)
    oracle.n_sids = store.n_sids  # chunks cover 64 ids: all three stored

    def commit(ids, times, values):
        cols = (np.array(ids), np.array(times, dtype=float), np.array(values, dtype=float))
        raw.extend(*cols)
        folder.on_columns(*cols)
        oracle.on_columns(*cols)

    commit([0, 1], [1.0, 2.0], [1.0, 2.0])
    assert folder.fold(50.0) == oracle.fold(50.0) > 0
    commit([0, 1, 1, 2], [12.0, 55.0, 55.0, 61.0], [9.0, 3.0, 4.0, 5.0])  # 12.0 is late
    assert folder.fold(70.0) == oracle.fold(70.0)
    assert folder.late_dropped == oracle.late_dropped == 1
    for ti, tier in enumerate(store.tiers):
        for sid in range(3):
            assert tier.watermark(sid) == oracle.watermark(ti, sid)
    np.testing.assert_array_equal(store.tiers[0].window(1, 0.0, 100.0)["count"], [1.0, 2.0])
    np.testing.assert_array_equal(store.tiers[0].window(1, 0.0, 100.0)["last_v"], [2.0, 4.0])


@pytest.mark.parametrize("stored", [0, 1])
def test_series_beyond_storage_wait_for_growth(stored):
    store = TierStore((10.0,), 4)
    raw = Raw(70)
    folder = CascadeFolder(store.tiers, raw)
    if stored:
        store.grow(1)  # one 64-series chunk: sid 69 is still beyond it
    cols = (np.array([3, 69]), np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    raw.extend(*cols)
    folder.on_columns(*cols)
    folder.fold(20.0)
    assert store.tiers[0].watermark(69) is None
    assert (store.tiers[0].watermark(3) == 20.0) == bool(stored)
    store.grow(70)
    assert folder.fold(20.0) == (1 if stored else 2)  # bootstrap scan catches up
    assert store.tiers[0].watermark(69) == 20.0
    assert store.tiers[0].window(69, 0.0, 20.0)["count"].tolist() == [1.0]
