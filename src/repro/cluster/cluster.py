"""Cluster facade: nodes + scheduler + telemetry wiring in one object.

``Cluster`` assembles the pieces every experiment needs — a node fleet,
the scheduler, the progress-marker channel, a time-series store fed by
per-node sensors — so examples and benchmarks construct one object and
submit jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.maintenance import MaintenanceManager
from repro.cluster.node import Node, NodeSpec, NodeState
from repro.cluster.power import PowerModel
from repro.cluster.scheduler import Scheduler, SchedulerConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
import numpy as np

from repro.telemetry.collector import CollectionPipeline
from repro.telemetry.markers import ProgressMarkerChannel
from repro.telemetry.metric import SeriesKey
from repro.telemetry.sampler import SamplingGroup
from repro.telemetry.sensor import SensorBank
from repro.telemetry.tsdb import TimeSeriesStore


@dataclass
class ClusterConfig:
    """Knobs for assembling a simulated cluster."""

    n_nodes: int = 16
    node_spec: NodeSpec = field(default_factory=NodeSpec)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    telemetry_period_s: float = 10.0
    telemetry_groups: int = 2
    telemetry_hop_latency_s: float = 0.1
    enable_telemetry: bool = True
    #: >1 hash-partitions the telemetry store across that many shard
    #: stores; loops and dashboards then read through a federated
    #: scatter-gather query engine (see :mod:`repro.shard`)
    shards: int = 1
    #: >0 backs the shard stores with shared-memory columns and runs
    #: per-shard ingest/scatter/fold work on that many worker processes
    #: (see :mod:`repro.shard.parallel`); requires ``shards > 1``.
    #: The pool starts with the cluster; call :meth:`Cluster.close` (or
    #: use the cluster as a context manager) to release it.
    parallel: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if self.telemetry_groups <= 0:
            raise ValueError("telemetry_groups must be positive")
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.parallel < 0:
            raise ValueError("parallel must be non-negative")
        if self.parallel > 0 and self.shards <= 1:
            raise ValueError("parallel workers require a sharded store (shards > 1)")


#: warn-once flag for the deprecated public ``query_engine`` entry point
_QUERY_ENGINE_WARNED = False


class Cluster:
    """Assembled simulated HPC system."""

    def __init__(self, engine: Engine, config: Optional[ClusterConfig] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else ClusterConfig()
        self.rngs = RngRegistry(seed=self.config.seed)
        self.nodes: List[Node] = [
            Node(f"n{idx:04d}", self.config.node_spec) for idx in range(self.config.n_nodes)
        ]
        if self.config.parallel > 0:
            from repro.shard import ParallelShardedStore

            # shared-memory shard columns + worker pool: ingest and
            # query scatters execute process-parallel, reads still
            # federate through query_engine() / loop_runtime()
            self.store = ParallelShardedStore(
                n_shards=self.config.shards, workers=self.config.parallel
            )
            self.store.start_parallel()
        elif self.config.shards > 1:
            from repro.shard import ShardedTimeSeriesStore

            # the collector's commit path routes batches by shard; every
            # reader goes through query_engine() / loop_runtime(), which
            # federate reads back across the partitions
            self.store = ShardedTimeSeriesStore(n_shards=self.config.shards)
        else:
            self.store = TimeSeriesStore()
        self.markers = ProgressMarkerChannel(mirror_store=self.store)
        self.checkpoints = CheckpointStore()
        self.scheduler = Scheduler(
            engine,
            self.nodes,
            config=self.config.scheduler,
            marker_channel=self.markers,
            checkpoint_store=self.checkpoints,
            rng=self.rngs.stream("scheduler"),
        )
        self.maintenance = MaintenanceManager(engine, self.scheduler)
        self.power_model = PowerModel()
        self.samplers: List[SamplingGroup] = []
        self.pipeline: Optional[CollectionPipeline] = None
        self.runtime = None  # lazily built by loop_runtime()
        self._query_engines: Dict = {}  # query_engine() memo per config
        if self.config.enable_telemetry:
            self._wire_telemetry()

    # ------------------------------------------------------------ telemetry
    def _wire_telemetry(self) -> None:
        """Columnar telemetry: one sensor bank per node, one sampling
        group per aggregation subtree, batches end to end."""
        cfg = self.config
        self.pipeline = CollectionPipeline(
            self.engine,
            self.store,
            hop_latency=cfg.telemetry_hop_latency_s,
            ingest_latency=cfg.telemetry_hop_latency_s,
        )
        aggregators = self.pipeline.build(cfg.telemetry_groups)
        registry = self.pipeline.registry
        for g, agg in enumerate(aggregators):
            group = SamplingGroup(
                self.engine,
                agg,
                period=cfg.telemetry_period_s,
                name=f"telemetry-group-{g}",
            )
            for node in self.nodes[g :: cfg.telemetry_groups]:
                group.add_bank(
                    SensorBank(
                        [
                            SeriesKey.of("node_cpu_util", node=node.node_id),
                            SeriesKey.of("node_power_watts", node=node.node_id),
                        ],
                        self._node_reader(node),
                        registry=registry,
                    )
                )
            group.start()
            self.samplers.append(group)
        # scheduler queue-length gauge through the same pipeline
        queue_group = SamplingGroup(
            self.engine,
            aggregators[0],
            period=cfg.telemetry_period_s,
            name="telemetry-sched",
        )
        queue_group.add_bank(
            SensorBank(
                [SeriesKey.of("sched_queue_length")],
                lambda now: np.array([float(self.scheduler.queue_length)]),
                registry=registry,
            )
        )
        queue_group.start()
        self.samplers.append(queue_group)

    def node_cpu_util(self, node: Node) -> float:
        """Current utilization: the running app's effective intensity."""
        if node.state is not NodeState.UP or node.running_job_id is None:
            return 0.0
        app = self.scheduler.app(node.running_job_id)
        if app is None:
            return 0.0
        base = app.profile.base_step_rate
        rate = app.current_rate()
        if base <= 0:
            return 0.0
        return min(1.0, rate / base)

    def _node_reader(self, node: Node):
        def read(now: float) -> np.ndarray:
            util = self.node_cpu_util(node)
            return np.array([util, self.power_model.node_power(node, util)])

        return read

    # --------------------------------------------------------------- queries
    def query_engine(self, *, rollup_resolutions=None, cache=None, enable_cache=True):
        """Deprecated raw-engine access — use :class:`repro.api.Client`.

        The engine this returns still works exactly as before (it is the
        same memoized engine the client uses internally), but external
        consumers should now go through ``Client.from_config`` /
        ``Client.from_cluster``, which adds admission control, typed
        request/response, and the serving fast paths.  Warns once per
        process.
        """
        global _QUERY_ENGINE_WARNED
        if not _QUERY_ENGINE_WARNED:
            _QUERY_ENGINE_WARNED = True
            import warnings

            warnings.warn(
                "Cluster.query_engine() is deprecated as a public entry point; "
                "build a repro.api.Client (Client.from_config / Client.from_cluster) "
                "and use client.query()/client.engine instead",
                DeprecationWarning,
                stacklevel=2,
            )
        return self._query_engine(
            rollup_resolutions=rollup_resolutions, cache=cache, enable_cache=enable_cache
        )

    def _query_engine(self, *, rollup_resolutions=None, cache=None, enable_cache=True):
        """A query engine over this cluster's store (internal seam).

        Returns the plain vectorized engine for a single-store cluster
        and a :class:`~repro.shard.FederatedQueryEngine` (optionally
        with per-shard rollup cascades) when the store is sharded — the
        one read surface, so callers never need to know how the store is
        partitioned.  Memoized per configuration: building rollup
        cascades registers permanent ingest listeners on the store, so
        repeated calls (dashboard refresh loops) must share one engine,
        not stack new managers.
        """
        if cache is not None:  # caller-managed cache: no sharing
            return self._build_query_engine(rollup_resolutions, cache, enable_cache)
        config_key = (
            tuple(rollup_resolutions) if rollup_resolutions is not None else None,
            enable_cache,
        )
        cached = self._query_engines.get(config_key)
        if cached is not None:
            return cached
        engine = self._build_query_engine(rollup_resolutions, cache, enable_cache)
        self._query_engines[config_key] = engine
        return engine

    def _build_query_engine(self, rollup_resolutions, cache, enable_cache):
        from repro.query import QueryEngine, RollupManager
        from repro.shard import FederatedQueryEngine, ShardedTimeSeriesStore

        if isinstance(self.store, ShardedTimeSeriesStore):
            # the tiers belong to the store (heap, or shared memory beside
            # a worker pool), one rollup layout for its lifetime; the
            # engine finds them, and the pool, there
            if rollup_resolutions is not None:
                self.store.create_tiersets(rollup_resolutions)
            return FederatedQueryEngine(self.store, cache=cache, enable_cache=enable_cache)
        rollups = None
        if rollup_resolutions is not None:
            rollups = RollupManager(self.store, resolutions=rollup_resolutions)
        return QueryEngine(
            self.store, rollups=rollups, cache=cache, enable_cache=enable_cache
        )

    # --------------------------------------------------------------- loops
    def loop_runtime(self, *, audit=None, runtime_config=None):
        """The cluster's shared autonomy-loop runtime (lazily built).

        Hosts every loop attached to this cluster over the cluster's
        telemetry store: one fused query hub, one plan arbiter, one
        self-telemetry surface.  Case managers join it via their
        ``runtime=`` parameter.  ``audit``/``runtime_config`` only apply
        on first construction; passing them again for an existing
        runtime is a configuration conflict and raises.
        """
        if self.runtime is None:
            from repro.core.runtime import LoopRuntime, RuntimeConfig
            from repro.shard import ShardedTimeSeriesStore

            query_engine = None
            if isinstance(self.store, ShardedTimeSeriesStore):
                cfg = runtime_config if runtime_config is not None else RuntimeConfig()
                # monitors read through the federated scatter-gather
                # engine; the QueryHub's fusion/caching layers work
                # unchanged on top of it
                query_engine = self._query_engine(enable_cache=cfg.enable_cache)
            self.runtime = LoopRuntime(
                self.engine,
                self.store,
                query_engine=query_engine,
                audit=audit,
                config=runtime_config,
            )
        elif (audit is not None and self.runtime.audit is not audit) or (
            runtime_config is not None and self.runtime.config != runtime_config
        ):
            raise ValueError(
                "loop runtime already built; audit/runtime_config cannot be changed"
            )
        return self.runtime

    def attach_supervisors(self, config=None, *, kinds=("health", "tuning")):
        """Attach the meta-loop supervisor family to this cluster's runtime.

        Builds the shared :meth:`loop_runtime` if needed, then hosts the
        fleet-supervision loops (see :mod:`repro.core.supervisor`) on
        it: every case loop attached to this cluster becomes a patient
        of heartbeat/staleness healing, veto-storm quarantine and period
        retuning.
        """
        from repro.core.supervisor import attach_supervisors

        return attach_supervisors(self.loop_runtime(), config, kinds=kinds)

    def collect_metrics(self, *, registry=None):
        """Absorb every live subsystem's stats into one obs registry.

        Covers whatever exists on this cluster: every built query
        engine, the loop runtime (which embeds hub and arbiter stats),
        and a sharded store's per-shard counters.  Returns the registry
        (the process-wide :data:`repro.obs.METRICS` by default) — the
        one-call path from a cluster to the unified ``--stats`` taxonomy
        and the ``obs_*`` self-publication series.
        """
        from repro.obs import METRICS, collect_metrics

        reg = registry if registry is not None else METRICS
        for engine in self._query_engines.values():
            collect_metrics(engine=engine, registry=reg)
        if self.runtime is not None:
            collect_metrics(runtime=self.runtime, registry=reg)
        return reg

    # ------------------------------------------------------------- shortcuts
    def submit(self, job) -> None:
        self.scheduler.submit(job)

    def run(self, until: float) -> float:
        return self.engine.run(until=until)

    def node_ids(self) -> List[str]:
        return [n.node_id for n in self.nodes]

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release external resources (the parallel tier's worker pool
        and shared-memory blocks).  Idempotent; a no-op for in-process
        stores."""
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
