"""The direct-read monitors the loop cases used before the runtime.

Each reads its substrate object directly instead of telemetry series:
``JobProgressMonitor`` the progress-marker channel, ``MaintenanceMonitor``
the scheduler and the maintenance manager, ``OstBandwidthMonitor`` the
filesystem's bandwidth EWMAs.  No shipped loop uses them; they are the
legacy side of ``test_runtime_equivalence.py``, which requires the
runtime-hosted cases to act exactly as loops wired with these.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.cluster.job import JobState
from repro.cluster.maintenance import MaintenanceEvent, MaintenanceManager
from repro.cluster.scheduler import Scheduler
from repro.core.component import Monitor
from repro.core.types import Observation
from repro.storage.filesystem import ParallelFileSystem
from repro.telemetry.markers import ProgressMarkerChannel


class JobProgressMonitor(Monitor):
    """Reads new progress markers for one job from the marker channel."""

    def __init__(self, channel: ProgressMarkerChannel, scheduler: Scheduler, job_id: str) -> None:
        self.channel = channel
        self.scheduler = scheduler
        self.job_id = job_id
        self.name = f"progress-monitor-{job_id}"
        self._cursor = -1.0

    def observe(self, now: float) -> Optional[Observation]:
        job = self.scheduler.jobs.get(self.job_id)
        if job is None or job.state is not JobState.RUNNING:
            return None
        new_markers = self.channel.read_since(self.job_id, self._cursor)
        if new_markers:
            self._cursor = new_markers[-1].time
        last = self.channel.last(self.job_id)
        values: Dict[str, float] = {
            "deadline": job.deadline,
            "time_limit_s": job.time_limit_s,
            "start_time": job.start_time,
        }
        if last is not None:
            values["last_step"] = last.step
            values["last_marker_time"] = last.time
            if last.total_steps:
                values["total_steps"] = last.total_steps
        return Observation(
            now,
            self.name,
            values=values,
            context={"new_markers": new_markers, "job_id": self.job_id},
        )



class MaintenanceMonitor(Monitor):
    """Observes announced windows and the jobs currently exposed to them."""

    name = "maintenance-monitor"

    def __init__(self, scheduler: Scheduler, manager: MaintenanceManager) -> None:
        self.scheduler = scheduler
        self.manager = manager
        self._announced: List[MaintenanceEvent] = []
        manager.on_announce.append(self._announced.append)

    def observe(self, now: float) -> Optional[Observation]:
        upcoming = [e for e in self._announced if e.t_start > now]
        if not upcoming:
            return None
        exposures = []
        for event in upcoming:
            for job in self.scheduler.running_jobs():
                if any(n in event.nodes for n in job.assigned_nodes):
                    exposures.append((job.job_id, event))
        return Observation(
            now,
            self.name,
            values={"upcoming_windows": float(len(upcoming))},
            context={"exposures": exposures},
        )



class OstBandwidthMonitor(Monitor):
    """Reads per-OST achieved-bandwidth EWMAs from the filesystem."""

    name = "ost-bandwidth-monitor"

    def __init__(self, fs: ParallelFileSystem) -> None:
        self.fs = fs

    def observe(self, now: float) -> Optional[Observation]:
        values: Dict[str, float] = {}
        for ost_id in self.fs.osts:
            bw = self.fs.ost_bandwidth_mbps(ost_id)
            if not math.isnan(bw):
                values[f"bw:{ost_id}"] = bw
        if not values:
            return None
        return Observation(now, self.name, values=values)
