"""The five Section III use cases as concrete MAPE-K autonomy loops.

Each module assembles Monitor/Analyzer/Planner/Executor implementations
for one managed system and exports two entry points with a uniform
shape:

* a ``*_case_spec`` / ``*_spec`` builder returning the declarative
  :class:`~repro.core.runtime.LoopSpec` for the case, and
* a ``*CaseManager`` compat wrapper (engine-first, keyword-only
  ``config``) that hosts the spec on a
  :class:`~repro.core.runtime.LoopRuntime` — private unless a shared
  runtime is passed via ``runtime=``, in which case the case joins that
  runtime's fused query hub and plan arbiter.

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
    JobProgressMonitor,
    ProgressAnalyzer,
    SchedulerCaseConfig,
    SchedulerCaseManager,
    SchedulerExecutor,
    scheduler_job_spec,
)
from repro.loops.maintenance_loop import (
    MaintenanceCaseConfig,
    MaintenanceCaseManager,
    MaintenancePlanner,
    maintenance_case_spec,
)
from repro.loops.io_qos_loop import (
    IoQosCaseManager,
    IoQosConfig,
    io_qos_spec,
)
from repro.loops.ost_loop import OstCaseConfig, OstCaseManager, ost_case_spec
from repro.loops.misconfig_loop import (
    MisconfigCaseConfig,
    MisconfigCaseManager,
    misconfig_case_spec,
)

__all__ = [
    "ExtensionPlanner",
    "FilesystemTelemetryBridge",
    "IoQosCaseManager",
    "IoQosConfig",
    "JobProgressMonitor",
    "MaintenanceCaseConfig",
    "MaintenanceCaseManager",
    "MaintenancePlanner",
    "MaintenanceTelemetryBridge",
    "MisconfigCaseConfig",
    "MisconfigCaseManager",
    "OstCaseConfig",
    "OstCaseManager",
    "ProgressAnalyzer",
    "SchedulerCaseConfig",
    "SchedulerCaseManager",
    "SchedulerExecutor",
    "SchedulerTelemetryBridge",
    "io_qos_spec",
    "maintenance_case_spec",
    "misconfig_case_spec",
    "ost_case_spec",
    "scheduler_job_spec",
]
