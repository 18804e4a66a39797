"""Outside-in span recorder for the benchmark's traced run.

Everything here lives in the benchmark: spans are opened by
instance-level wrappers the benchmark puts around *public* methods of
the objects it built, and by one root span per executed simulation event
through the public ``Engine.add_trace_hook``.  The program's own
``repro.obs.TRACER`` is deliberately not the source, so a later change
that moves or removes an in-program span cannot move a benchmark number.

A span is ``(id, parent, name, start, end, rid)``; ``rid`` is the
request / fault / event identifier its work belongs to and is inherited
from the parent span when not given.  Spans stay in memory and are
written out once, at the end.  A span's *self time* is its duration
minus the part of it covered by its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        #: wrappers are installed before set-up and record only while on
        self.enabled = False
        self.rows: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid=None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            pid = parent[0]
            if rid is None:
                rid = parent[3]
        else:
            pid = 0
        entry = [next(self._ids), name, _clock(), rid, pid]
        stack.append(entry)
        return entry

    def end(self, entry: list) -> None:
        """Close ``entry`` and anything still open above it (an event
        span opened by the engine hook has no closing call of its own)."""
        now = _clock()
        stack = self._stack()
        while stack:
            top = stack.pop()
            self.rows.append((top[0], top[4], top[1], top[2], now, top[3]))
            if top is entry:
                return

    def wrap(self, obj, attr: str, name: str, rid_of: Optional[Callable] = None) -> None:
        """Replace ``obj.attr`` (a public bound method) by a timing
        wrapper on the *instance*; the class stays untouched."""
        inner = getattr(obj, attr)
        setattr(obj, attr, self.timed(inner, name, rid_of))

    def timed(self, inner: Callable, name: str, rid_of: Optional[Callable] = None) -> Callable:
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            entry = self.begin(name, rid)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(entry)

        return wrapper

    # ---------------------------------------------------- engine event roots
    def hook_events(self, engine, classify: Callable[[str], str]) -> None:
        """One span per executed simulation event, named by
        ``classify(event.label)``.  The engine only calls hooks *before*
        an event, so an event span ends when the next one begins (or when
        an enclosing wrapper / :meth:`close_events` closes it)."""
        local = self._local

        def hook(event) -> None:
            if not self.enabled:
                return
            open_event = getattr(local, "event", None)
            stack = self._stack()
            if open_event is not None and open_event in stack:
                self.end(open_event)
            local.event = self.begin(classify(event.label), event.label)

        engine.add_trace_hook(hook)

    def close_events(self) -> None:
        """End the calling thread's open event span, if any."""
        open_event = getattr(self._local, "event", None)
        if open_event is not None and open_event in self._stack():
            self.end(open_event)
        self._local.event = None

    # -------------------------------------------------------------- readout
    def self_times(self) -> Dict[str, List[float]]:
        """Per span name: the self time of every span of that name."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, pid, _name, t0, t1, _rid in self.rows:
            if pid:
                child_time[pid] += t1 - t0
        out: Dict[str, List[float]] = defaultdict(list)
        for sid, _pid, name, t0, t1, _rid in self.rows:
            out[name].append((t1 - t0) - child_time.get(sid, 0.0))
        return out

    def durations(self, name: str) -> List[float]:
        return [t1 - t0 for _s, _p, n, t0, t1, _r in self.rows if n == name]

    def dump(self, path: str, meta: dict) -> None:
        names: Dict[str, int] = {}
        cols = {"id": [], "parent": [], "name": [], "start": [], "end": [], "rid": []}
        for sid, pid, name, t0, t1, rid in self.rows:
            cols["id"].append(sid)
            cols["parent"].append(pid)
            cols["name"].append(names.setdefault(name, len(names)))
            cols["start"].append(t0)
            cols["end"].append(t1)
            cols["rid"].append(rid if rid is None or isinstance(rid, (int, str)) else str(rid))
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": list(names), "spans": cols}, fh)


# ---------------------------------------------------------------- layers

#: span name -> the per-layer busy metric its *self time* is charged to.
#: Every span name a workload opens is listed, so the busy metrics of one
#: run add up to the traced wall time of the threads that were recorded.
BUSY = {
    "event:sample": "telemetry.sample_busy_s",
    "event:hop": "telemetry.hop_busy_s",
    "event:commit": "telemetry.commit_busy_s",
    "store.append_batch": "shard.append_busy_s",
    "dispatch:append": "shard.append_busy_s",
    "store.insert": "shard.insert_busy_s",
    "dispatch:scatter": "shard.scatter_busy_s",
    "dispatch:standing": "shard.scatter_busy_s",
    "listener.standing": "query.standing_update_busy_s",
    "listener.rollup": "query.fold_busy_s",
    "event:fold": "query.fold_busy_s",
    "fold_rollups": "query.fold_busy_s",
    "dispatch:fold": "query.fold_busy_s",
    "standing.query": "query.standing_read_busy_s",
    "engine.query": "query.engine_busy_s",
    "monitor": "core.monitor_busy_s",
    "hub.query": "core.hub_busy_s",
    "analyze": "core.decide_busy_s",
    "plan": "core.decide_busy_s",
    "arbiter.resolve": "core.arbiter_busy_s",
    "execute": "core.execute_busy_s",
    "event:supervisor": "core.supervisor_busy_s",
    "event:loop": "core.loop_busy_s",
    "serve.submit": "serve.submit_busy_s",
    "client.run": "serve.gate_wait_s",
    "cluster.run": "cluster.advance_busy_s",
    "event:other": "sim.other_busy_s",
    "listener.other": "sim.other_busy_s",
}


def classify_event(label: str) -> str:
    """Span name of a simulation event, from its stable label."""
    if label.startswith("grp-") or label.startswith("telemetry-"):
        return "event:sample"
    if label.startswith("agg-"):
        return "event:hop"
    if label == "root-collector":
        return "event:commit"
    if label.endswith("rollup-fold"):
        return "event:fold"
    if label.startswith("loop-meta-"):
        return "event:supervisor"
    if label.startswith("loop-"):
        return "event:loop"
    return "event:other"


def layer_busy(rec: Recorder) -> Dict[str, float]:
    """Busy seconds per layer metric: self times summed through ``BUSY``."""
    out: Dict[str, float] = {}
    for span, times in rec.self_times().items():
        metric = BUSY[span]
        out[metric] = out.get(metric, 0.0) + sum(times)
    return out


def wrap_listeners(rec: Recorder, shards) -> None:
    """Time every ingest listener, tagged by the class that owns it
    (standing provider vs rollup feed).  Listeners attach to the shard
    stores while engines are being built, so each shard's
    ``add_ingest_listener`` is wrapped *before* that happens."""
    for shard in shards:
        add = shard.add_ingest_listener

        def add_timed(listener, _add=add):
            owner = type(getattr(listener, "__self__", None)).__name__
            if "Standing" in owner:
                kind = "standing"
            elif "Rollup" in owner or "Tier" in owner:
                kind = "rollup"
            else:
                kind = "other"
            _add(rec.timed(listener, f"listener.{kind}"))

        shard.add_ingest_listener = add_timed


def wrap_dispatch(rec: Recorder, pool) -> None:
    """Time the parent's wait in ``ShardWorkerPool.dispatch``, named by
    the kind of task sent (append / scatter / standing / fold): what the
    workers do is invisible from outside, their cost shows as this wait."""
    inner = pool.dispatch

    @functools.wraps(inner)
    def dispatch(tasks):
        if not rec.enabled or not tasks:
            return inner(tasks)
        entry = rec.begin(f"dispatch:{tasks[0][1]}")
        try:
            return inner(tasks)
        finally:
            rec.end(entry)

    pool.dispatch = dispatch
