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
    #: >1 splits the telemetry store's series ids into that many places;
    #: loops and dashboards read them through the same query engine, one
    #: pass per place (see :mod:`repro.shard`)
    shards: int = 1
    #: >0 backs the store with shared-memory rings and tiers and runs
    #: per-place scatter/standing/fold passes on that many worker
    #: processes (see :mod:`repro.shard.parallel`); requires ``shards > 1``.
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

            # shared-memory rings and tiers + worker pool: each worker
            # runs the query, standing and fold passes of its places;
            # commits stay one ring-kernel call in this process
            self.store = ParallelShardedStore(
                n_shards=self.config.shards, workers=self.config.parallel
            )
            self.store.start_parallel()
        elif self.config.shards > 1:
            from repro.shard import ShardedTimeSeriesStore

            # one ring store whose series fall into places by id: a commit
            # is the plain store's; readers (_query_engine() /
            # loop_runtime()) run one pass per place and gather
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
        self._query_engines: Dict = {}  # _query_engine() memo per config
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
    def _query_engine(self, *, rollup_resolutions=None, cache=None, enable_cache=True):
        """A query engine over this cluster's store (internal seam; the
        public path is :class:`repro.api.Client`).

        One engine type whatever the store's shape: it reads the store's
        places, tiers and pool.  ``rollup_resolutions`` gives the store
        its rollup tiers (one layout per store: another layout raises).
        Memoized per configuration, so repeated calls (dashboard refresh
        loops) share one engine.
        """
        from repro.query import QueryEngine

        if rollup_resolutions is not None:
            self.store.create_tiersets(rollup_resolutions)
        if cache is not None:  # caller-managed cache: no sharing
            return QueryEngine(self.store, cache=cache)
        config_key = (
            tuple(rollup_resolutions) if rollup_resolutions is not None else None,
            enable_cache,
        )
        engine = self._query_engines.get(config_key)
        if engine is None:
            engine = self._query_engines[config_key] = QueryEngine(
                self.store, enable_cache=enable_cache
            )
        return engine

    # --------------------------------------------------------------- loops
    def loop_runtime(self, *, audit=None, runtime_config=None):
        """The cluster's shared autonomy-loop runtime (lazily built).

        Hosts every loop attached to this cluster over the cluster's
        telemetry store: one fused query hub, one plan arbiter, one
        self-telemetry surface.  A case study joins it by adding its
        spec (``runtime.add(ost_case_spec(...))``) or, for the Scheduler
        case, through ``host_scheduler_case(runtime, ...)``.
        ``audit``/``runtime_config`` only apply
        on first construction; passing them again for an existing
        runtime is a configuration conflict and raises.
        """
        if self.runtime is None:
            from repro.core.runtime import LoopRuntime, RuntimeConfig

            cfg = runtime_config if runtime_config is not None else RuntimeConfig()
            self.runtime = LoopRuntime(
                self.engine,
                self.store,
                query_engine=self._query_engine(enable_cache=cfg.enable_cache),
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
        engine and the loop runtime (which embeds hub and arbiter
        stats).  Returns the registry
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
