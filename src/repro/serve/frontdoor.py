"""The multi-tenant query front door.

:class:`QueryFrontDoor` is the externally-facing serving layer: requests
arrive on behalf of named tenants, pass per-tenant admission control
(token-bucket quota, bounded queue, in-flight cap — see
:mod:`repro.serve.admission`), and execute on the serving
worker threads over any :class:`~repro.query.engine.QueryEngine` shape
(single-store or sharded, with or without a shard worker pool).

Request lifecycle (also diagrammed in the README)::

    submit ── shed? ──> 429 (rejected/shed)
      │
      ├─ token bucket empty ──> 429 (rejected/quota)
      ├─ queue full ──────────> 429 (rejected/queue_full)
      │
      ├─ hot-result cache hit ──────────> ok  (source="cache")
      │
      └─ enqueue ── deadline passes ────> 504 (expired)
            │
         worker: standing fast path ───> ok  (source="standing")
            │
            ├─ pressure >= degrade ────> ok  (degraded, coarser rollup)
            └─ full scatter execution ─> ok  (source="raw"/"rollup:…")

Under pressure (queue-fill fraction, read by the
:class:`~repro.serve.shed.LoadShedder`) answers first come from the
standing engine and the epoch-keyed hot-result cache, then degrade to
the coarsest rollup tier for tenants that allow it, then the lowest
priority class is shed outright.

Concurrency model: admission/scheduling state lives under one condition
variable; engine execution is serialized by ``_engine_lock`` because
the vectorized engines and the simulation-driven stores are not
thread-safe — concurrency comes from the admission fast paths (cache
hits resolve inline at submit, standing reads are O(merged rows)) while
exactly one full scatter runs at a time.  Ingest shares the same lock
via :meth:`write_gate`, which is the serving side of the flow-control
story the ingest pipeline's backpressure bounds (one lock, two
traffics).  One serving worker is therefore the default: a second one
cannot run the engine any sooner, it only queues on ``_engine_lock``
holding a dequeued request, and every answer then waits for the lock to
be handed to a sleeping thread — a convoy whose cost is the host's
wake-up latency (beside a busy neighbour process on a 2-vCPU host,
closed-loop throughput fell 20-32 % with two workers, 0-22 % with one).

Answers are handed over when the interpreter is: a caller woken by its
answer cannot run before the worker lets go of the interpreter lock, and
one woken while the worker already runs the next queued request competes
for that lock at every brief release inside NumPy — about 14 futile
wake-ups per request when the guest scheduler has the two threads on
different vCPUs, 2-3 when they share one, and which it is differs from
run to run (closed-loop throughput 800-900 /s against 1 300-1 400 /s on
the same code).  So a worker keeps the answers it has finished while
the tenant it just served has more requests queued and resolves them
together once that tenant has none, or after :data:`HANDOVER_MAX_S` at
the latest.  A tenant with one request outstanding — a single caller,
any load below capacity, the quiet tenant beside a flooding one — gets
every answer at once as before; only a tenant that keeps its own queue
full has its answers grouped.  ``latency_ms`` and the p99 readout run to
the hand-over.

Hot-result cache entries are keyed by the engine's epoch-derived cache
version, so a commit invalidates them implicitly — a front-door answer
can never be staler than the engine's own cache contract.

The ``clock`` is injectable (seconds, monotonic) so admission, deadline,
and shed behaviour are all deterministically unit-testable.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import TRACER
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.engine import QueryResult as EngineResult
from repro.query.kernels import PARTIAL_AGGS
from repro.query.model import MetricQuery
from repro.query.standing import StandingQueryEngine
from repro.serve.admission import ADMIT, AdmissionController, PendingRequest, TenantState
from repro.serve.model import (
    REJECT_DEADLINE,
    REJECT_SHED,
    REJECT_UNKNOWN_TENANT,
    QueryRequest,
    QueryResult,
    TenantSpec,
)
from repro.serve.shed import LoadShedder, ShedConfig

#: latencies kept per tenant for the p99 readout
_LATENCY_WINDOW = 512

#: Longest a finished answer waits for its tenant's queue to run empty
#: before it is handed over regardless (looked at whenever a request
#: finishes, so one execution or write-gate wait may go on top).  Two
#: interpreter switch intervals, 10 ms at CPython's default: a thread
#: that wants the interpreter from a busy one waits up to one interval
#: to ask and is served at the next switch, so a held answer reaches its
#: caller about when contending for the lock would have promised it.
HANDOVER_MAX_S = 2.0 * sys.getswitchinterval()


def _p99(values: Deque[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


class QueryFrontDoor:
    """Multi-tenant serving front door over a query engine."""

    def __init__(
        self,
        engine: QueryEngine,
        *,
        tenants: Iterable[TenantSpec] = (),
        shed: Optional[ShedConfig] = None,
        standing: Optional[StandingQueryEngine] = None,
        enable_standing: bool = True,
        n_workers: int = 1,
        hot_cache_size: int = 512,
        hot_promote_after: int = 3,
        clock: Optional[Callable[[], float]] = None,
        default_at: Optional[Callable[[], float]] = None,
    ) -> None:
        self.engine = engine
        if standing is None and enable_standing:
            standing = StandingQueryEngine(engine)
        self.standing = standing
        self.shedder = LoadShedder(shed)
        self.admission = AdmissionController()
        self.n_workers = int(n_workers)
        self.hot_cache_size = int(hot_cache_size)
        self.hot_promote_after = int(hot_promote_after)
        self._clock = clock if clock is not None else time.perf_counter
        self._default_at = default_at
        #: guards admission controller, shedder, hot cache, latency rings
        self._cv = threading.Condition()
        #: serializes engine execution and ingest (see :meth:`write_gate`)
        self._engine_lock = threading.RLock()
        self._hot: "OrderedDict[tuple, EngineResult]" = OrderedDict()
        self._sightings: Dict[MetricQuery, int] = {}
        self._latency: Dict[str, Deque[float]] = {}
        self._threads: List[threading.Thread] = []
        self._running = False
        # -- counters ------------------------------------------------------
        self.hot_hits = 0
        self.standing_served = 0
        self.rejected_unknown = 0
        for spec in tenants:
            self.add_tenant(spec)

    # --------------------------------------------------------------- admin
    def add_tenant(self, spec: TenantSpec) -> None:
        with self._cv:
            self.admission.add_tenant(spec)
            self._latency[spec.name] = deque(maxlen=_LATENCY_WINDOW)

    def write_gate(self):
        """The lock writers must hold while mutating the underlying store.

        Serving and ingest contend on one lock, so a burst of commits
        shows up as serving queue pressure (and vice versa: a heavy
        scatter delays the next commit) — exactly the coupled
        flow-control picture the ingest pipeline's drop accounting
        measures from the other side.
        """
        return self._engine_lock

    def start(self) -> "QueryFrontDoor":
        if self._running:
            return self
        self._running = True
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}", daemon=True)
            for i in range(self.n_workers)
        ]
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        with self._cv:
            if not self._running:
                return
            self._running = False
            drained = self.admission.drain()
            self._cv.notify_all()
        for state, entry in drained:
            self._resolve(entry, QueryResult.failure(entry.request, "rejected", "shutdown"))
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []

    def __enter__(self) -> "QueryFrontDoor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -------------------------------------------------------------- serving
    def serve(self, request: QueryRequest) -> QueryResult:
        """Submit and block for the response (deadline still applies)."""
        return self.submit(request).result()

    def submit(self, request: QueryRequest) -> "Future[QueryResult]":
        """Admit (or reject) one request; the future resolves to its result.

        Rejections resolve the future immediately; hot-cache hits resolve
        inline without consuming a queue slot or a worker; everything
        else queues for the serving workers.
        """
        fut: "Future[QueryResult]" = Future()
        now = self._clock()
        with self._cv:
            state = self.admission.tenant(request.tenant)
            if state is None:
                self.rejected_unknown += 1
                fut.set_result(
                    QueryResult.failure(request, "rejected", REJECT_UNKNOWN_TENANT)
                )
                return fut
            self.shedder.observe(self.admission.pressure())
            priority = (
                request.priority if request.priority is not None else state.spec.priority
            )
            if self.shedder.should_shed_priority(priority, self.admission.min_priority()):
                state.submitted += 1
                state.shed += 1
                self.shedder.shed_rejections += 1
                fut.set_result(QueryResult.failure(request, "rejected", REJECT_SHED))
                return fut
            decision = self.admission.try_admit(state, now)
            if decision is not ADMIT:
                fut.set_result(QueryResult.failure(request, "rejected", decision))
                return fut
            hit = self._probe_hot(request)
            if hit is not None:
                state.admitted += 1
                state.served += 1
                self.hot_hits += 1
                latency_ms = (self._clock() - now) * 1000.0
                self._latency[state.spec.name].append(latency_ms)
                fut.set_result(
                    QueryResult.from_engine(
                        request, hit, source="cache", latency_ms=latency_ms
                    )
                )
                return fut
            expires = (
                now + request.deadline_ms / 1000.0
                if request.deadline_ms is not None
                else None
            )
            self.admission.enqueue(state, PendingRequest(request, now, expires, fut))
            self._cv.notify()
        return fut

    # ------------------------------------------------------------- internals
    def _resolve_at(self, request: QueryRequest) -> float:
        if request.at is not None:
            return request.at
        if self._default_at is None:
            raise ValueError(
                "request carries no 'at' and the front door has no default clock"
            )
        return self._default_at()

    def _parse(self, request: QueryRequest) -> MetricQuery:
        q = request.query
        return self.engine.parse(q) if isinstance(q, str) else q

    def _probe_hot(self, request: QueryRequest) -> Optional[EngineResult]:
        """Epoch-keyed hot-result probe (called under the scheduler lock).

        Only dict reads on the engine/store — safe to run without the
        engine lock, so cache hits never queue behind a running scatter.
        """
        try:
            q = self._parse(request)
            at = self._resolve_at(request)
        except Exception:
            return None
        key = self._hot_key(q, at)
        hit = self._hot.get(key)
        if hit is not None:
            self._hot.move_to_end(key)
        return hit

    def _hot_key(self, q: MetricQuery, at: float) -> tuple:
        quantum = q.step_s if q.step_s is not None else self.engine.instant_quantum_s
        return QueryCache.make_key(
            q.to_expr(), at - (q.range_s or 0.0), at, quantum,
            version=self.engine._cache_version(q),
        )

    def _worker(self) -> None:
        #: answers finished but not yet handed over (module docstring)
        held: List[Tuple[PendingRequest, QueryResult]] = []
        hold_until = 0.0
        while True:
            with self._cv:
                if not self._running:
                    break
                chosen, expired = self.admission.next_ready(self._clock())
                if chosen is None and not expired and not held:
                    # short timed wait: deadline expiry must fire even when
                    # no submit/release ever notifies again
                    self._cv.wait(timeout=0.02)
                    continue
            for state, entry in expired:
                self._resolve(
                    entry,
                    QueryResult.failure(
                        entry.request,
                        "expired",
                        REJECT_DEADLINE,
                        latency_ms=(self._clock() - entry.enqueued_at) * 1000.0,
                    ),
                )
            if chosen is not None:
                if not held:
                    hold_until = self._clock() + HANDOVER_MAX_S
                state, entry = chosen
                held.append((entry, self._run_one(state, entry)))
                # advisory read: a stale one moves a hand-over by one request
                if state.queue and self._clock() < hold_until:
                    continue
            self._hand_over(held)
            held = []
        self._hand_over(held)

    def _run_one(self, state: TenantState, entry: PendingRequest) -> QueryResult:
        request = entry.request
        degrade = self.shedder.should_degrade(state.spec)
        result: Optional[QueryResult] = None
        error = False
        try:
            if entry.expired(self._clock()):
                result = QueryResult.failure(request, "expired", REJECT_DEADLINE)
            elif TRACER.enabled:
                with TRACER.span(
                    "serve.request", tenant=request.tenant, expr=request.expr(),
                    degrade=degrade,
                ):
                    result = self._execute(request, entry, degrade)
            else:
                result = self._execute(request, entry, degrade)
        except Exception as exc:  # engine bug or bad query: answer, don't die
            error = True
            result = QueryResult.failure(request, "error", f"{type(exc).__name__}: {exc}")
        finally:
            with self._cv:
                self.admission.release(state)
                if result is not None and result.ok:
                    state.served += 1
                    if result.degraded:
                        state.degraded += 1
                        self.shedder.degraded_served += 1
                elif result is not None and result.status == "expired":
                    state.expired += 1
                elif error:
                    state.errors += 1
                self._cv.notify()
        return result

    def _hand_over(self, held: List[Tuple[PendingRequest, QueryResult]]) -> None:
        """Resolve the futures of finished requests, latency up to now."""
        if not held:
            return
        now = self._clock()
        answers = [
            (entry, dataclasses.replace(
                result, latency_ms=(now - entry.enqueued_at) * 1000.0
            ))
            for entry, result in held
        ]
        with self._cv:
            for _entry, result in answers:
                if result.ok:
                    self._latency[result.tenant].append(result.latency_ms)
        for entry, result in answers:
            self._resolve(entry, result)

    def _execute(
        self, request: QueryRequest, entry: PendingRequest, degrade: bool
    ) -> QueryResult:
        q = self._parse(request)
        at = self._resolve_at(request)
        with self._engine_lock:
            if self.standing is not None:
                self._maybe_promote(q)
                if q in self.standing.shapes:
                    hit = self.standing.query(q, at=at)
                    if hit is not None:
                        self.standing_served += 1
                        return QueryResult.from_engine(request, hit, source="standing")
            run_q = q
            degraded = False
            if degrade:
                coarse = self._coarsest_step(q)
                if coarse is not None:
                    run_q = dataclasses.replace(q, step_s=coarse)
                    degraded = True
            res = self.engine.query(run_q, at=at)
            if not degraded:
                self._remember_hot(q, at, res)
        if entry.expired(self._clock()):
            return QueryResult.failure(request, "expired", REJECT_DEADLINE)
        return QueryResult.from_engine(request, res, degraded=degraded)

    def _coarsest_step(self, q: MetricQuery) -> Optional[float]:
        """Coarsest rollup resolution ``q`` can degrade to, or ``None``.

        Only range queries over partial-servable aggregators degrade:
        replacing ``step_s`` with a tier resolution keeps the answer a
        *true* aggregate of the same window, just at coarser grain — the
        tier planner serves it straight from rollup rows.  Rates,
        percentiles, and instants keep exact execution.
        """
        if q.step_s is None or q.agg not in PARTIAL_AGGS:
            return None
        resolutions = self.engine.tier_resolutions()
        if not resolutions:
            return None
        coarse = max(resolutions)
        return coarse if coarse > q.step_s else None

    def _maybe_promote(self, q: MetricQuery) -> None:
        """Auto-register repeatedly seen shapes with the standing engine."""
        if not StandingQueryEngine.eligible(q) or q in self.standing.shapes:
            return
        seen = self._sightings.get(q, 0) + 1
        if len(self._sightings) > 4096:
            self._sightings.clear()
        self._sightings[q] = seen
        if seen >= self.hot_promote_after:
            self.standing.register(q)

    def _remember_hot(self, q: MetricQuery, at: float, res: EngineResult) -> None:
        key = self._hot_key(q, at)
        with self._cv:
            self._hot[key] = res
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_cache_size:
                self._hot.popitem(last=False)

    @staticmethod
    def _resolve(entry: PendingRequest, result: QueryResult) -> None:
        fut = entry.future
        if fut is not None and not fut.done():  # type: ignore[union-attr]
            fut.set_result(result)  # type: ignore[union-attr]

    # --------------------------------------------------------------- readout
    def p99_ms(self, tenant: Optional[str] = None) -> float:
        with self._cv:
            if tenant is not None:
                return _p99(self._latency.get(tenant, deque()))
            pooled: Deque[float] = deque()
            for ring in self._latency.values():
                pooled.extend(ring)
            return _p99(pooled)

    def stats(self) -> Dict[str, object]:
        """Flat serving totals plus one nested mapping per tenant.

        Shaped for ``absorb_stats(METRICS, fd.stats(), "serve")``: flat
        keys land as ``serve.<key>``, nested tenant dicts as
        ``serve.tenant_<name>.<key>`` — admitted/shed/degraded/queue
        depth/p99 per tenant, as the taxonomy requires.
        """
        with self._cv:
            out: Dict[str, object] = dict(self.admission.stats())
            out["level"] = float(self.shedder.level)
            out["shed_transitions"] = float(self.shedder.transitions)
            out["degraded_served"] = float(self.shedder.degraded_served)
            out["shed_rejections"] = float(self.shedder.shed_rejections)
            out["hot_hits"] = float(self.hot_hits)
            out["hot_size"] = float(len(self._hot))
            out["standing_served"] = float(self.standing_served)
            out["rejected_unknown"] = float(self.rejected_unknown)
            out["workers"] = float(len(self._threads))
            pooled: Deque[float] = deque()
            for ring in self._latency.values():
                pooled.extend(ring)
            out["p99_ms"] = _p99(pooled)
            for state in self.admission.tenants():
                tstats = state.stats()
                tstats["p99_ms"] = _p99(self._latency[state.spec.name])
                tstats["priority"] = float(state.spec.priority)
                out[f"tenant_{state.spec.name}"] = tstats
            return out
