"""moda-loops: MAPE-K autonomy loops for HPC MODA.

Reproduction of Boito et al., "Autonomy Loops for Monitoring,
Operational Data Analytics, Feedback, and Response in HPC Operations"
(IEEE CLUSTER 2023, arXiv:2401.16971).

Package map
-----------

==================  =====================================================
``repro.sim``       deterministic discrete-event engine, seeded RNG
``repro.telemetry`` sensors → samplers → collectors → ring-buffer TSDB
``repro.analytics`` TTC forecasting, z-score anomaly detection, job
                    similarity, misconfiguration rules, online models
``repro.cluster``   nodes, jobs, applications with progress markers,
                    SLURM-like scheduler with extension hook, maintenance
``repro.storage``   Lustre-like striped filesystem, OST health, QoS
``repro.query``     metric query engine, rollup tiers, standing queries
``repro.shard``     multi-place store and its worker pool
``repro.obs``       tracing, flight recorder, metrics taxonomy
``repro.core``      the MAPE-K loop framework and the loop runtime that
                    hosts every loop: the five use cases, the
                    supervisors and the four Fig. 2 patterns
``repro.loops``     the five Section III use cases, assembled
``repro.serve``     multi-tenant query front door (``repro.api``)
``repro.workloads`` job mixes, misestimation, resubmission, trace export
``repro.experiments`` the experiment table E1–E21 and its scenarios
==================  =====================================================

Quick start::

    from repro.cluster import ApplicationProfile, Job, Node, NodeSpec, Scheduler
    from repro.core import LoopRuntime
    from repro.loops import host_scheduler_case
    from repro.sim import Engine
    from repro.telemetry import ProgressMarkerChannel

    engine = Engine()
    channel = ProgressMarkerChannel()
    scheduler = Scheduler(engine, [Node("n0", NodeSpec())], marker_channel=channel)
    host_scheduler_case(LoopRuntime(engine), scheduler, channel)
    scheduler.submit(Job("j1", "alice",
                         ApplicationProfile("app", 6000, 1.0),
                         walltime_request_s=3600))
    engine.run(until=20_000)
"""

__version__ = "1.0.0"

__all__ = [
    "analytics",
    "cluster",
    "core",
    "experiments",
    "loops",
    "sim",
    "storage",
    "telemetry",
    "workloads",
]
