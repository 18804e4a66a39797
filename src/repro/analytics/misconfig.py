"""Misconfiguration detection (use case 4, Section III).

The paper lists "unintended mismatch of threads to cores, underutilization
of CPUs or GPUs, or wrong library search paths".  Each rule inspects a
:class:`JobConfigView` — the launch configuration plus observed telemetry
summaries — and produces :class:`MisconfigFinding` objects with an
explanation and a suggested remediation, supporting both responses the
paper names: informing the user, or fixing on the fly.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

#: Mean CPU utilization below which a job is flagged as underutilizing.
CPU_UTIL_THRESHOLD = 0.25
#: Mean GPU utilization below which allocated GPUs count as idle.
GPU_UTIL_THRESHOLD = 0.10
#: Utilization rules judge no job observed for less than this.
MIN_OBSERVATION_S = 300.0
#: P95 memory / allocation at or above which OOM risk is flagged.
MEM_RATIO_THRESHOLD = 0.95


class MisconfigKind(enum.Enum):
    THREAD_CORE_MISMATCH = "thread_core_mismatch"
    CPU_UNDERUTILIZATION = "cpu_underutilization"
    GPU_UNDERUTILIZATION = "gpu_underutilization"
    WRONG_LIBRARY_PATH = "wrong_library_path"
    MEMORY_OVERSUBSCRIPTION = "memory_oversubscription"


@dataclass(frozen=True)
class JobConfigView:
    """What the detector can see about a job: request, launch, telemetry."""

    job_id: str
    cores_allocated: int
    gpus_allocated: int = 0
    mem_allocated_gb: float = 0.0
    threads_requested: int = 0  # e.g. OMP_NUM_THREADS; 0 = unset
    library_paths: Tuple[str, ...] = ()
    expected_libraries: Tuple[str, ...] = ()
    # telemetry summaries over the observation window
    cpu_util_mean: float = float("nan")
    gpu_util_mean: float = float("nan")
    mem_used_gb_p95: float = float("nan")
    observation_s: float = 0.0


@dataclass(frozen=True)
class MisconfigFinding:
    """One detected misconfiguration with remediation guidance."""

    job_id: str
    kind: MisconfigKind
    severity: float  # 0..1, drives inform-vs-fix policy
    explanation: str
    suggestion: str
    fixable_online: bool = False
    fix_params: Mapping[str, float] = field(default_factory=dict)


class MisconfigRule(abc.ABC):
    """One detection rule; stateless and order-independent."""

    name: str = "rule"

    @abc.abstractmethod
    def check(self, view: JobConfigView) -> Optional[MisconfigFinding]:
        """Inspect ``view``; return a finding or ``None``."""


class ThreadCoreMismatchRule(MisconfigRule):
    """Threads configured ≠ cores allocated (both directions are waste).

    Under-subscription idles paid-for cores; over-subscription causes
    destructive context switching.  Fixable online by resetting the
    thread count.
    """

    name = "thread-core-mismatch"

    def check(self, view: JobConfigView) -> Optional[MisconfigFinding]:
        if view.threads_requested <= 0 or view.cores_allocated <= 0:
            return None
        diff = view.threads_requested - view.cores_allocated
        if diff == 0:
            return None
        if diff > 0:
            explanation = (
                f"{view.threads_requested} threads on {view.cores_allocated} cores: "
                "oversubscription causes context-switch thrash"
            )
            severity = min(1.0, diff / max(1, view.cores_allocated))
        else:
            explanation = (
                f"{view.threads_requested} threads on {view.cores_allocated} cores: "
                f"{-diff} allocated cores idle"
            )
            severity = min(1.0, -diff / view.cores_allocated)
        return MisconfigFinding(
            view.job_id,
            MisconfigKind.THREAD_CORE_MISMATCH,
            severity,
            explanation,
            f"set thread count to {view.cores_allocated}",
            fixable_online=True,
            fix_params={"threads": float(view.cores_allocated)},
        )


class CpuUnderutilizationRule(MisconfigRule):
    """Mean CPU utilization below threshold over a minimum observation."""

    name = "cpu-underutilization"

    def check(self, view: JobConfigView) -> Optional[MisconfigFinding]:
        util = view.cpu_util_mean
        if util != util or view.observation_s < MIN_OBSERVATION_S:  # NaN check
            return None
        if util >= CPU_UTIL_THRESHOLD:
            return None
        return MisconfigFinding(
            view.job_id,
            MisconfigKind.CPU_UNDERUTILIZATION,
            severity=min(1.0, (CPU_UTIL_THRESHOLD - util) / CPU_UTIL_THRESHOLD),
            explanation=f"mean CPU utilization {util:.0%} over {view.observation_s:.0f}s "
            f"(threshold {CPU_UTIL_THRESHOLD:.0%})",
            suggestion="request fewer cores or check input decomposition",
        )


class GpuUnderutilizationRule(MisconfigRule):
    """GPUs allocated but (nearly) idle — the most expensive waste."""

    name = "gpu-underutilization"

    def check(self, view: JobConfigView) -> Optional[MisconfigFinding]:
        if view.gpus_allocated <= 0:
            return None
        util = view.gpu_util_mean
        if util != util or view.observation_s < MIN_OBSERVATION_S:
            return None
        if util >= GPU_UTIL_THRESHOLD:
            return None
        return MisconfigFinding(
            view.job_id,
            MisconfigKind.GPU_UNDERUTILIZATION,
            severity=1.0 if util < 0.01 else 0.6,
            explanation=f"{view.gpus_allocated} GPUs allocated, mean utilization {util:.0%}",
            suggestion="verify GPU offload is enabled or drop the GPU request",
        )


class WrongLibraryPathRule(MisconfigRule):
    """Expected optimized libraries missing from the search path.

    The signature check is simulated: the launch environment carries the
    resolved library list, and expected high-performance libraries (e.g.
    the site BLAS) must appear before generic fallbacks.
    """

    name = "wrong-library-path"

    def check(self, view: JobConfigView) -> Optional[MisconfigFinding]:
        if not view.expected_libraries:
            return None
        missing = [lib for lib in view.expected_libraries if lib not in view.library_paths]
        if not missing:
            return None
        return MisconfigFinding(
            view.job_id,
            MisconfigKind.WRONG_LIBRARY_PATH,
            severity=min(1.0, len(missing) / len(view.expected_libraries)),
            explanation=f"expected libraries not on search path: {', '.join(missing)}",
            suggestion="prepend the site module paths (module load <site-stack>)",
            fixable_online=True,
        )


class MemoryOversubscriptionRule(MisconfigRule):
    """P95 memory use close to or beyond the allocation — OOM risk."""

    name = "memory-oversubscription"

    def check(self, view: JobConfigView) -> Optional[MisconfigFinding]:
        if view.mem_allocated_gb <= 0 or view.mem_used_gb_p95 != view.mem_used_gb_p95:
            return None
        ratio = view.mem_used_gb_p95 / view.mem_allocated_gb
        if ratio < MEM_RATIO_THRESHOLD:
            return None
        return MisconfigFinding(
            view.job_id,
            MisconfigKind.MEMORY_OVERSUBSCRIPTION,
            severity=min(1.0, ratio - MEM_RATIO_THRESHOLD + 0.5),
            explanation=f"p95 memory {view.mem_used_gb_p95:.1f} GiB is {ratio:.0%} of the "
            f"{view.mem_allocated_gb:.1f} GiB allocation",
            suggestion="request more memory per node or reduce problem size per rank",
        )


def default_rules() -> List[MisconfigRule]:
    """The rule set covering every misconfiguration the paper names."""
    return [
        ThreadCoreMismatchRule(),
        CpuUnderutilizationRule(),
        GpuUnderutilizationRule(),
        WrongLibraryPathRule(),
        MemoryOversubscriptionRule(),
    ]


class MisconfigAnalyzer:
    """Runs the default rule set over job views and ranks findings by severity."""

    def __init__(self) -> None:
        self.rules = default_rules()

    def analyze(self, view: JobConfigView) -> List[MisconfigFinding]:
        findings = [f for rule in self.rules if (f := rule.check(view)) is not None]
        findings.sort(key=lambda f: f.severity, reverse=True)
        return findings
