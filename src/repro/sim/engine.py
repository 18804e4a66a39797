"""Discrete-event simulation engine.

The engine maintains a priority queue of :class:`Event` objects ordered by
``(time, priority, seq)``.  ``seq`` is a monotonically increasing counter,
which makes event ordering *stable*: two events scheduled for the same
simulated time with the same priority always fire in the order they were
scheduled.  Determinism of the whole simulation then only depends on
deterministic callbacks and seeded RNG streams (see :mod:`repro.sim.rng`).

Time is a ``float`` in seconds.  The engine never advances past events:
callbacks run exactly at their scheduled time, and scheduling into the past
raises :class:`SimTimeError`.

Many callbacks due at one ``(time, priority)`` can share one queue entry
through a :class:`Bundle` (:meth:`Engine.bundle`).  Each bundled call
still takes its own ``seq`` when it is added, and the bundle runs its
calls exactly where their own events would have run — it hands over to
any other event that orders between two of them — so bundling changes
the number of queue entries, never the order of the callbacks.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, Iterable, List, Optional


class SimTimeError(ValueError):
    """Raised when an event is scheduled before the current simulation time."""


class StopSimulation(Exception):
    """Raise from a callback to stop the simulation immediately.

    ``Engine.run`` catches this, making it a cooperative stop signal for
    callbacks that detect a terminal condition (e.g. all jobs finished).
    """


# Queue entries are plain ``(time, priority, seq, event)`` tuples: ``seq``
# is unique per engine, so tuple comparison never reaches the event, and
# heap pushes/pops cost C-level tuple compares instead of dataclass
# ``__lt__`` dispatch — this is the hottest allocation in large
# simulations (every scheduled sample, hop, and commit passes through).


#: the keyword arguments of every bundled call (never mutated)
_NO_KWARGS: dict = {}


class Event:
    """A scheduled callback.

    Events are created through :meth:`Engine.schedule` /
    :meth:`Engine.schedule_at`; user code typically only keeps a reference
    in order to :meth:`cancel` it.
    """

    __slots__ = (
        "time", "priority", "seq", "fn", "args", "kwargs", "cancelled", "label", "bundle",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.label = label
        #: the :class:`Bundle` holding the event until it runs (a bundled
        #: event has no queue entry of its own)
        self.bundle: Optional["Bundle"] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        self.cancelled = True
        bundle = self.bundle
        if bundle is not None:
            self.bundle = None
            bundle._dropped()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.fn, "__name__", repr(self.fn))
        return f"<Event t={self.time:.6g} prio={self.priority} {name} [{state}]>"


class PeriodicTask:
    """A callback that re-schedules itself every ``period`` seconds.

    The callback receives the engine time implicitly through ``engine.now``.
    Returning ``False`` from the callback stops the task; calling
    :meth:`stop` stops it externally.  An optional per-tick ``jitter_fn``
    (e.g. drawing from an RNG stream) perturbs each firing time, which the
    telemetry samplers use to model realistic sampling jitter.

    With a ``cohort`` key, every firing joins the engine's open
    :class:`Bundle` for ``((cohort, period), time, priority)``: tasks with
    one key and one period that fire together share one queue entry per
    tick, in the order their own events would have had.
    """

    def __init__(
        self,
        engine: "Engine",
        period: float,
        fn: Callable[[], Any],
        *,
        start_at: Optional[float] = None,
        priority: int = 0,
        jitter_fn: Optional[Callable[[], float]] = None,
        label: str = "",
        cohort: Any = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.engine = engine
        self.period = period
        self.fn = fn
        self.priority = priority
        self.jitter_fn = jitter_fn
        self.label = label or getattr(fn, "__name__", "periodic")
        self._bundle_key = None if cohort is None else (cohort, period)
        self._stopped = False
        self._event: Optional[Event] = None
        first = engine.now if start_at is None else start_at
        self._schedule_next(max(first, engine.now))

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def hang(self) -> None:
        """Cancel the pending firing but stay started: the task never fires
        again, yet ``stopped`` stays false — a hung task, for fault
        injection.  A no-op while the task is firing."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self, at: float) -> None:
        if self._stopped:
            return
        jitter = self.jitter_fn() if self.jitter_fn is not None else 0.0
        t = max(self.engine.now, at + jitter)
        if self._bundle_key is None:
            self._event = self.engine.schedule_at(
                t, self._tick, priority=self.priority, label=self.label
            )
        else:
            self._event = self.engine.bundle(
                self._bundle_key, t, priority=self.priority, label=self.label
            ).add(self._tick, label=self.label)

    def _tick(self) -> None:
        self._event = None
        if self._stopped:
            return
        result = self.fn()
        if result is False:
            self._stopped = True
            return
        self._schedule_next(self.engine.now + self.period)


class Bundle:
    """Events due at one ``(time, priority)`` that share one queue entry.

    :meth:`add` gives each call an :class:`Event` with a ``seq`` of its
    own, taken when it is added, but no queue entry: the bundle's one
    entry carries the first call's ``seq``.  When it fires, the bundle
    runs its calls in ``seq`` order and hands over wherever another
    pending event orders before the next call (one scheduled between two
    additions, or one a call scheduled for now at a more urgent
    priority), resuming from an entry at that call's ``seq`` — so every
    call runs exactly where its own event would have.
    Cancelling a call's event drops it; a bundle whose every call is
    dropped leaves the queue.  The bundle takes no additions once it has
    started firing.

    By default each call runs on its own.  With ``run``, the bundle
    instead hands ``run`` each uninterrupted run of due events at once
    (the root collector's one commit per instant).
    """

    __slots__ = ("engine", "key", "time", "priority", "label", "run",
                 "_events", "_next", "_live", "_entry", "_open")

    def __init__(
        self,
        engine: "Engine",
        key: Any,
        time: float,
        *,
        priority: int = 0,
        label: str = "",
        run: Optional[Callable[[List[Event]], Any]] = None,
    ) -> None:
        if not time >= engine.now:  # NaN too
            raise SimTimeError(f"cannot schedule at t={time} (now is t={engine.now})")
        self.engine = engine
        self.key = key
        self.time = float(time)
        self.priority = priority
        self.label = label
        self.run = run
        self._events: List[Event] = []
        self._next = 0  # first event not run or dropped yet
        self._live = 0  # events added and neither run nor cancelled
        self._entry: Optional[Event] = None  # the queue entry
        self._open = True

    def add(self, fn: Callable[..., Any], *args: Any, label: str = "") -> Event:
        """Add ``fn(*args)``; cancel the returned event to drop it."""
        if not self._open:
            raise RuntimeError("bundle has started firing")
        engine = self.engine
        engine._seq += 1
        event = Event(self.time, self.priority, engine._seq, fn, args, _NO_KWARGS, label or self.label)
        event.bundle = self
        self._events.append(event)
        self._live += 1
        if self._entry is None:
            self._entry = engine._push(event.seq, self.time, self.priority, self._fire, self.label)
        return event

    def _dropped(self) -> None:
        self._live -= 1
        if self._live == 0:
            if self._entry is not None:
                self._entry.cancel()
                self._entry = None
            self._close()

    def _drain(self) -> None:
        """Drop every call still due (its entry was cancelled)."""
        self._entry = None
        for event in self._events[self._next:]:
            if event is not None and event.bundle is self:
                event.cancelled = True
                event.bundle = None
        self._events, self._next, self._live = [], 0, 0
        self._close()

    def _close(self) -> None:
        if self._open:
            self._open = False
            self.engine._bundles.pop(self.key, None)

    def _fire(self) -> None:
        self._entry = None
        self._close()
        engine, events, run = self.engine, self._events, self.run
        time, priority = self.time, self.priority
        batch: List[Event] = []
        i, n = self._next, len(events)
        try:
            while i < n:
                event = events[i]
                if event.cancelled:
                    events[i] = None
                    i += 1
                    continue
                if engine._precedes(time, priority, event.seq):
                    break
                events[i] = None  # a call that ran is nobody's to keep
                i += 1
                event.bundle = None
                self._live -= 1
                if run is None:
                    event.fn(*event.args)
                else:
                    batch.append(event)
        finally:
            while i < n and events[i].cancelled:
                i += 1
            self._next = i
            if i < n:
                self._entry = engine._push(events[i].seq, time, priority, self._fire, self.label)
            else:
                self._events = []
        if batch:
            run(batch)


class Engine:
    """The discrete-event simulator.

    Typical use::

        eng = Engine()
        eng.schedule(10.0, lambda: print("at t=10"))
        eng.run(until=100.0)

    The engine also exposes lightweight instrumentation used by the
    benchmark harness: ``events_executed`` and per-label counters.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self.events_executed = 0
        self._running = False
        self._trace_hooks: list[Callable[[Event], None]] = []
        #: open bundles by ``(key, time, priority)``
        self._bundles: Dict[tuple, Bundle] = {}

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, fn, *args, priority=priority, label=label, **kwargs)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` at an absolute simulation time."""
        if math.isnan(time):
            raise SimTimeError("cannot schedule an event at NaN time")
        if time < self._now:
            raise SimTimeError(f"cannot schedule at t={time} (now is t={self._now})")
        self._seq += 1
        event = Event(float(time), priority, self._seq, fn, args, kwargs, label=label)
        heapq.heappush(self._queue, (event.time, priority, event.seq, event))
        return event

    def _push(self, seq: int, time: float, priority: int, fn: Callable[[], Any], label: str) -> Event:
        """Queue ``fn`` under a ``seq`` taken earlier (a bundle's entry)."""
        event = Event(time, priority, seq, fn, (), _NO_KWARGS, label=label)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def bundle(
        self,
        key: Any,
        time: float,
        *,
        priority: int = 0,
        label: str = "",
        run: Optional[Callable[[List[Event]], Any]] = None,
    ) -> Bundle:
        """The open :class:`Bundle` for ``(key, time, priority)``.

        Opens one — its queue entry named ``label``, its events handed to
        ``run`` if given — when none is open.  Callers that share a key
        share bundles, so a key names one kind of call.
        """
        full = (key, time, priority)
        bundle = self._bundles.get(full)
        if bundle is None:
            bundle = self._bundles[full] = Bundle(
                self, full, time, priority=priority, label=label, run=run
            )
        return bundle

    def _precedes(self, time: float, priority: int, seq: int) -> bool:
        """Whether a pending event orders before ``(time, priority, seq)``."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        return bool(queue) and queue[0] < (time, priority, seq)

    def every(
        self,
        period: float,
        fn: Callable[[], Any],
        *,
        start_at: Optional[float] = None,
        priority: int = 0,
        jitter_fn: Optional[Callable[[], float]] = None,
        label: str = "",
        cohort: Any = None,
    ) -> PeriodicTask:
        """Create a :class:`PeriodicTask` firing every ``period`` seconds."""
        return PeriodicTask(
            self, period, fn, start_at=start_at, priority=priority, jitter_fn=jitter_fn,
            label=label, cohort=cohort,
        )

    # ---------------------------------------------------------------- running
    def add_trace_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook invoked before every executed event (debug/metrics)."""
        self._trace_hooks.append(hook)

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            self._now = event.time
            for hook in self._trace_hooks:
                hook(event)
            self.events_executed += 1
            event.fn(*event.args, **event.kwargs)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue empties, ``until`` is reached, or ``max_events``.

        Events scheduled exactly at ``until`` are executed.  Returns the
        simulation time when the run stopped.  A callback may raise
        :class:`StopSimulation` to end the run early.
        """
        if self._running:
            raise RuntimeError("Engine.run is not reentrant")
        self._running = True
        executed = 0
        try:
            while True:
                nxt = self.peek()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    self._now = float(until)
                    break
                if max_events is not None and executed >= max_events:
                    break
                self.step()
                executed += 1
        except StopSimulation:
            pass
        finally:
            self._running = False
        if until is not None and self._now < until and self.peek() is None:
            # Queue drained before the horizon: advance the clock to it so
            # durations computed by callers reflect the requested window.
            self._now = float(until)
        return self._now

    def pending_count(self) -> int:
        """Number of non-cancelled queue entries (O(n); diagnostics) — a
        bundle is one entry however many calls it holds."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    def drain(self, labels: Optional[Iterable[str]] = None) -> int:
        """Cancel pending queue entries (optionally only those with given
        labels; a bundle's entry carries the label it was opened with)."""
        wanted = set(labels) if labels is not None else None
        cancelled = 0
        for entry in self._queue:
            ev = entry[3]
            if ev.cancelled:
                continue
            if wanted is None or ev.label in wanted:
                ev.cancel()
                cancelled += 1
                bundle = getattr(ev.fn, "__self__", None)
                if isinstance(bundle, Bundle):
                    bundle._drain()
        return cancelled
