"""The five Section III use cases as concrete MAPE-K autonomy loops.

Each module assembles Monitor/Analyzer/Planner/Executor implementations
for one managed system and exports a ``*_case_spec`` / ``*_spec``
builder returning the declarative
:class:`~repro.core.runtime.LoopSpec` for the case.  A caller hosts it
on a :class:`~repro.core.runtime.LoopRuntime` — its own, or one shared
with the site's other loops (one fused query hub, one plan arbiter) —
after attaching the case's telemetry bridge, if it has one::

    runtime = LoopRuntime(engine, store, audit=audit)
    FilesystemTelemetryBridge(fs, runtime.store)
    handle = runtime.add(ost_case_spec(engine, fs, writers))
    handle.start()

The Scheduler case adds one loop per running job, so it is hosted by
:func:`~repro.loops.scheduler_loop.host_scheduler_case`, which hooks job
start and end on the scheduler and returns the case's shared knowledge.

The three monitors that used to read simulator objects directly
(:mod:`ost_loop`, :mod:`scheduler_loop`, :mod:`maintenance_loop`) now
observe telemetry series published by :mod:`repro.loops.bridges`; the
other two were already query-backed and keep limited substrate access
for configuration data (job launch configs, writer identities).

* :mod:`scheduler_loop` — the paper's initial case (Fig. 3): walltime
  extension with checkpoint fallback.
* :mod:`maintenance_loop` — checkpoint jobs ahead of maintenance windows.
* :mod:`io_qos_loop` — AIMD adaptation of QoS token buckets.
* :mod:`ost_loop` — detect slow OSTs, close and reopen files elsewhere.
* :mod:`misconfig_loop` — detect misconfigured jobs, advise or fix.
"""

from repro.loops.bridges import (
    FilesystemTelemetryBridge,
    MaintenanceTelemetryBridge,
    SchedulerTelemetryBridge,
)
from repro.loops.scheduler_loop import (
    ExtensionPlanner,
    ProgressAnalyzer,
    SchedulerCaseConfig,
    SchedulerExecutor,
    host_scheduler_case,
    scheduler_job_spec,
)
from repro.loops.maintenance_loop import (
    MaintenanceCaseConfig,
    MaintenancePlanner,
    maintenance_case_spec,
)
from repro.loops.io_qos_loop import IoQosConfig, io_qos_spec
from repro.loops.ost_loop import OstCaseConfig, ost_case_spec
from repro.loops.misconfig_loop import MisconfigCaseConfig, misconfig_case_spec

__all__ = [
    "ExtensionPlanner",
    "FilesystemTelemetryBridge",
    "IoQosConfig",
    "MaintenanceCaseConfig",
    "MaintenancePlanner",
    "MaintenanceTelemetryBridge",
    "MisconfigCaseConfig",
    "OstCaseConfig",
    "ProgressAnalyzer",
    "SchedulerCaseConfig",
    "SchedulerExecutor",
    "SchedulerTelemetryBridge",
    "host_scheduler_case",
    "io_qos_spec",
    "maintenance_case_spec",
    "misconfig_case_spec",
    "ost_case_spec",
    "scheduler_job_spec",
]
