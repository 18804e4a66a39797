"""Per-key selection and plan building: the oracle for the label index.

This is ``QueryEngine.select`` / ``.plan`` as they ran before the stores
kept a :class:`repro.telemetry.tsdb.LabelIndex` — every key of the metric
sorted by ``str`` and tested with ``q.matches``, groups collected in a
dict of label tuples, members re-sorted by ``str``, every key located by
its series id and the place that id falls in — kept as the reference the
index-built :class:`~repro.query.engine.QueryPlan` must equal.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.query.engine import GroupLabels, QueryPlan, ShardWork
from repro.query.model import MetricQuery
from repro.telemetry.metric import SeriesKey


def oracle_select(store, q: MetricQuery) -> List[SeriesKey]:
    """The selection :func:`repro.query.reference.evaluate_naive` makes."""
    return sorted((k for k in store.series_keys(q.metric) if q.matches(k)), key=str)


def oracle_locate(store, key: SeriesKey) -> Tuple[int, int]:
    """``(place, series id)``: the id the store's registry interned the
    key as, in place ``id % n_places`` (place 0 of a single store)."""
    sid = store.registry.get(key)
    return sid % store.n_places, sid


def oracle_plan(store, q: MetricQuery) -> QueryPlan:
    selected = oracle_select(store, q)
    groups: Dict[GroupLabels, List[int]] = {}
    for sel, key in enumerate(selected):
        groups.setdefault(q.group_key(key), []).append(sel)
    labels = tuple(sorted(groups))
    keys: List[SeriesKey] = []
    bounds = [0]
    columns = [([], [], [], []) for _ in range(store.n_places)]
    for g, lab in enumerate(labels):
        members = sorted(groups[lab], key=lambda i: str(selected[i]))
        for rank, sel in enumerate(members):
            key = selected[sel]
            keys.append(key)
            place, sid = oracle_locate(store, key)
            for col, value in zip(columns[place], (sid, g, rank, sel)):
                col.append(value)
        bounds.append(len(keys))
    shards = [ShardWork(np.array(cols, dtype=np.int64).reshape(4, -1)) for cols in columns]
    fanout = sum(1 for work in shards if work.sids.size)
    return QueryPlan(store.series_generation(q.metric), labels, keys, bounds, shards, fanout)
