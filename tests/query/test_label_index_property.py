"""Property: selection and plans built from the label index equal the
per-key path.

Random label sets — labels missing on some series or on all of them,
empty values, values shared between labels — and random queries over all
four matcher ops (equality, literal alternations, regexes that are not
literal, matchers and ``group_by`` on labels no series has) are resolved
by :meth:`QueryEngine.select` / :meth:`QueryEngine.plan` from the store's
:class:`~repro.telemetry.tsdb.LabelIndex` and by the brute-force oracle
in ``plan_oracle.py``: keys, labels, bounds, fan-out and every per-shard
``sids/gidx/rank/sel`` column must be equal, on a single store and on 1,
2 and 8 shards, before and after more series appear (the generation
bump), and the index's ``(shard, sid)`` columns must be the CRC-32
routing's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import LabelMatcher, MetricQuery, QueryEngine
from repro.shard import ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

from tests.query.plan_oracle import oracle_locate, oracle_plan, oracle_select

NAMES = ("node", "rack", "zone")
VALUES = ("", "a", "b", "a1", "b1", "ab", "n-1", "n:2")
#: literal alternations (set membership) and regexes that are not
REGEXES = ("a", "a|b1", "n-1|n:2|zz", "a.*", "[ab]1?", ".*", ".+", "", "(a|b)+", "n.\\d", "a|b.")

labels = st.dictionaries(st.sampled_from(NAMES), st.sampled_from(VALUES), max_size=3)
matcher = st.one_of(
    st.builds(
        LabelMatcher,
        st.sampled_from(NAMES + ("nowhere",)),
        st.sampled_from(("=", "!=")),
        st.sampled_from(VALUES + ("zz",)),
    ),
    st.builds(
        LabelMatcher,
        st.sampled_from(NAMES + ("nowhere",)),
        st.sampled_from(("=~", "!~")),
        st.sampled_from(REGEXES),
    ),
)
query = st.builds(
    MetricQuery,
    st.just("m"),
    matchers=st.lists(matcher, max_size=3).map(tuple),
    group_by=st.lists(st.sampled_from(NAMES + ("nowhere",)), max_size=2).map(tuple),
)
scenario = st.fixed_dictionaries({
    "n_shards": st.sampled_from([0, 1, 2, 8]),  # 0: a single store
    "first": st.lists(labels, max_size=12),
    "later": st.lists(labels, min_size=1, max_size=6),
    "queries": st.lists(query, min_size=1, max_size=6),
})


def build(n_shards):
    if n_shards == 0:
        store = TimeSeriesStore(default_capacity=8)
        return store, QueryEngine(store, enable_cache=False)
    store = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=8)
    return store, QueryEngine(store, enable_cache=False)


def write(store, label_sets, t):
    for i, lab in enumerate(label_sets):  # equal label sets: one series, later samples
        store.insert(SeriesKey.of("m", **lab), t + 0.01 * i, float(i))
    store.insert(SeriesKey.of("other", node="a"), t, 0.0)  # never selected


def assert_plans_equal(got, want):
    assert got.generation == want.generation
    assert got.labels == want.labels
    assert got.keys == want.keys
    assert got.bounds == want.bounds
    assert got.fanout == want.fanout
    assert len(got.shards) == len(want.shards)
    for a, b in zip(got.shards, want.shards):
        for col in ("sids", "gidx", "rank", "sel"):
            got_col, want_col = getattr(a, col), getattr(b, col)
            assert got_col.dtype == want_col.dtype == np.int64
            assert np.array_equal(got_col, want_col), col


def check(store, engine, queries):
    index = store.label_index("m")
    assert index.keys == sorted(index.keys, key=str) == store.series_keys("m")
    located = [oracle_locate(store, key) for key in index.keys]
    assert list(zip(index.places.tolist(), index.sids.tolist())) == located
    for q in queries:
        assert engine.select(q) == oracle_select(store, q)
        assert_plans_equal(engine.plan(q), oracle_plan(store, q))


@settings(max_examples=150, deadline=None)
@given(scenario)
def test_index_plans_equal_the_per_key_oracle(sc):
    store, engine = build(sc["n_shards"])
    write(store, sc["first"], 1.0)
    check(store, engine, sc["queries"])
    # the same shapes again after more series appeared: the memoised
    # plans and the index are of an older generation
    write(store, sc["later"], 2.0)
    check(store, engine, sc["queries"])


def test_postings_and_the_wide_mask_pass_select_the_same_positions():
    # few accepted values: a union of postings; many: one pass over the
    # code column — wherever the switch sits, both are the same set
    store = ShardedTimeSeriesStore(n_shards=3, default_capacity=8)
    for i in range(120):
        store.insert(SeriesKey.of("m", node=f"n{i % 40:02d}", rack=f"r{i % 7}"), 1.0, 1.0)
    column = store.label_index("m").column("node")
    assert column.values == sorted(f"n{i:02d}" for i in range(40))
    rng = np.random.default_rng(0)
    for k in (0, 1, 2, 4, 5, 6, 12, 40):
        codes = rng.choice(40, size=k, replace=False).tolist()
        want = np.flatnonzero(np.isin(column.codes, codes))
        assert np.array_equal(column.positions(codes), want), k


def test_all_metrics_listing_is_in_str_order_across_metrics():
    # "ab{…}" sorts before "a{…}": the listing is no concatenation of
    # per-metric lists
    for store in (TimeSeriesStore(8), ShardedTimeSeriesStore(n_shards=3, default_capacity=8)):
        keys = [SeriesKey.of(m, node=f"n{i}") for m in ("a", "ab", "a_b") for i in range(3)]
        for key in keys:
            store.insert(key, 1.0, 1.0)
        assert store.series_keys() == sorted(keys, key=str)
        listed = store.series_keys()
        listed.clear()  # a copy: the index keeps its own list
        assert len(store.series_keys()) == len(keys)
        store.insert(SeriesKey.of("a", node="n9"), 1.0, 1.0)
        assert len(store.series_keys()) == len(keys) + 1


def test_plan_memo_is_an_lru_that_keeps_the_shapes_in_use(monkeypatch):
    from repro.query import engine as engine_module

    monkeypatch.setattr(engine_module, "_PLANS_MAX", 4)
    store = TimeSeriesStore(8)
    for i in range(6):
        store.insert(SeriesKey.of("m", node=f"n{i}"), 1.0, 1.0)
    qe = QueryEngine(store, enable_cache=False)
    dashboard = MetricQuery("m", group_by=("node",))
    kept = qe.plan(dashboard)
    for i in range(20):  # one-shot shapes, the dashboard read in between
        qe.plan(MetricQuery("m", matchers=(LabelMatcher("node", "=", f"n{i}"),)))
        assert qe.plan(dashboard) is kept
    assert len(qe._plans) == 4
    assert np.array_equal(kept.shards[0].sids, np.arange(6))
