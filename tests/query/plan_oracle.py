"""Per-key selection and plan building: the oracle for the label index.

This is ``QueryEngine.select`` / ``.plan`` as they ran before the stores
kept a :class:`repro.telemetry.tsdb.LabelIndex` — every key of the metric
sorted by ``str`` and tested with ``q.matches``, groups collected in a
dict of label tuples, members re-sorted by ``str``, every key located by
its series id and the place that id falls in — kept as the reference the
index-built :class:`~repro.query.engine.QueryPlan`, and the split by
place a pool runs it as, must equal.
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


def oracle_rows(store, q: MetricQuery):
    """``(labels, keys, bounds, rows)``: the plan's groups and its
    selection in ``(group, rank)`` order, one ``(place, sid, group,
    rank, sel)`` row per selected key."""
    selected = oracle_select(store, q)
    groups: Dict[GroupLabels, List[int]] = {}
    for sel, key in enumerate(selected):
        groups.setdefault(q.group_key(key), []).append(sel)
    labels = tuple(sorted(groups))
    keys: List[SeriesKey] = []
    bounds = [0]
    rows = []
    for g, lab in enumerate(labels):
        members = sorted(groups[lab], key=lambda i: str(selected[i]))
        for rank, sel in enumerate(members):
            key = selected[sel]
            keys.append(key)
            rows.append((*oracle_locate(store, key), g, rank, sel))
        bounds.append(len(keys))
    return labels, keys, bounds, rows


def _work(rows) -> ShardWork:
    return ShardWork(np.array([row[1:] for row in rows], dtype=np.int64).reshape(-1, 4).T)


def oracle_plan(store, q: MetricQuery) -> QueryPlan:
    labels, keys, bounds, rows = oracle_rows(store, q)
    fanout = len({place for place, *_ in rows})
    return QueryPlan(store.series_generation(q.metric), labels, keys, bounds, _work(rows), fanout)


def oracle_places(store, q: MetricQuery) -> List[Tuple[int, ShardWork]]:
    """The plan's rows by place, as a pool runs them: ``(place, rows)``
    for each place holding any, each one's rows in plan order."""
    _, _, _, rows = oracle_rows(store, q)
    return [
        (place, _work([row for row in rows if row[0] == place]))
        for place in range(store.n_places) if any(row[0] == place for row in rows)
    ]
