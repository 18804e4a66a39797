"""Tests for misconfiguration detection rules."""

import pytest

from repro.analytics.misconfig import (
    CPU_UTIL_THRESHOLD,
    GPU_UTIL_THRESHOLD,
    MEM_RATIO_THRESHOLD,
    MIN_OBSERVATION_S,
    CpuUnderutilizationRule,
    GpuUnderutilizationRule,
    JobConfigView,
    MemoryOversubscriptionRule,
    MisconfigAnalyzer,
    MisconfigKind,
    ThreadCoreMismatchRule,
    WrongLibraryPathRule,
    default_rules,
)


def view(**overrides):
    defaults = dict(
        job_id="j1",
        cores_allocated=32,
        gpus_allocated=0,
        mem_allocated_gb=128.0,
        threads_requested=32,
        library_paths=("site-blas", "site-mpi"),
        expected_libraries=("site-blas",),
        cpu_util_mean=0.85,
        gpu_util_mean=float("nan"),
        mem_used_gb_p95=64.0,
        observation_s=600.0,
    )
    defaults.update(overrides)
    return JobConfigView(**defaults)


class TestThreadCoreMismatch:
    def test_well_configured_passes(self):
        assert ThreadCoreMismatchRule().check(view()) is None

    def test_undersubscription_detected(self):
        f = ThreadCoreMismatchRule().check(view(threads_requested=4))
        assert f is not None
        assert f.kind is MisconfigKind.THREAD_CORE_MISMATCH
        assert "idle" in f.explanation
        assert f.fixable_online
        assert f.fix_params["threads"] == 32.0

    def test_oversubscription_detected(self):
        f = ThreadCoreMismatchRule().check(view(threads_requested=128))
        assert f is not None
        assert "oversubscription" in f.explanation

    def test_unset_threads_skipped(self):
        assert ThreadCoreMismatchRule().check(view(threads_requested=0)) is None

    @pytest.mark.parametrize("threads", [31, 33])
    def test_off_by_one_detected(self, threads):
        f = ThreadCoreMismatchRule().check(view(threads_requested=threads))
        assert f is not None
        assert f.severity == pytest.approx(1 / 32)


class TestCpuUnderutilization:
    def test_busy_job_passes(self):
        assert CpuUnderutilizationRule().check(view(cpu_util_mean=0.9)) is None

    def test_idle_job_detected(self):
        f = CpuUnderutilizationRule().check(view(cpu_util_mean=0.05))
        assert f is not None
        assert f.kind is MisconfigKind.CPU_UNDERUTILIZATION
        assert f.severity > 0.5

    def test_short_observation_suppressed(self):
        rule = CpuUnderutilizationRule()
        assert rule.check(view(cpu_util_mean=0.05, observation_s=60.0)) is None

    def test_nan_util_suppressed(self):
        assert CpuUnderutilizationRule().check(view(cpu_util_mean=float("nan"))) is None

    def test_threshold_boundary(self):
        rule = CpuUnderutilizationRule()
        assert rule.check(view(cpu_util_mean=CPU_UTIL_THRESHOLD)) is None
        assert rule.check(view(cpu_util_mean=CPU_UTIL_THRESHOLD - 0.01)) is not None

    def test_observation_boundary(self):
        rule = CpuUnderutilizationRule()
        assert rule.check(view(cpu_util_mean=0.05, observation_s=MIN_OBSERVATION_S)) is not None
        assert rule.check(view(cpu_util_mean=0.05, observation_s=MIN_OBSERVATION_S - 1)) is None

    def test_severity_scales_with_idleness(self):
        rule = CpuUnderutilizationRule()
        assert rule.check(view(cpu_util_mean=0.0)).severity == 1.0
        mild = rule.check(view(cpu_util_mean=CPU_UTIL_THRESHOLD / 2)).severity
        assert mild == pytest.approx(0.5)


class TestGpuUnderutilization:
    def test_no_gpus_skipped(self):
        assert GpuUnderutilizationRule().check(view(gpus_allocated=0)) is None

    def test_idle_gpu_detected(self):
        f = GpuUnderutilizationRule().check(view(gpus_allocated=4, gpu_util_mean=0.0))
        assert f is not None
        assert f.severity == 1.0

    def test_moderately_used_gpu_detected_lower_severity(self):
        f = GpuUnderutilizationRule().check(
            view(gpus_allocated=4, gpu_util_mean=0.05)
        )
        assert f is not None
        assert f.severity < 1.0

    def test_threshold_boundary(self):
        rule = GpuUnderutilizationRule()
        assert rule.check(view(gpus_allocated=4, gpu_util_mean=GPU_UTIL_THRESHOLD)) is None
        assert rule.check(view(gpus_allocated=4, gpu_util_mean=GPU_UTIL_THRESHOLD - 0.01)) is not None

    def test_short_observation_suppressed(self):
        rule = GpuUnderutilizationRule()
        short = view(gpus_allocated=4, gpu_util_mean=0.0, observation_s=MIN_OBSERVATION_S - 1)
        assert rule.check(short) is None

    def test_busy_gpu_passes(self):
        assert (
            GpuUnderutilizationRule().check(view(gpus_allocated=4, gpu_util_mean=0.8)) is None
        )


class TestWrongLibraryPath:
    def test_expected_present_passes(self):
        assert WrongLibraryPathRule().check(view()) is None

    def test_missing_library_detected(self):
        f = WrongLibraryPathRule().check(view(library_paths=("generic-blas",)))
        assert f is not None
        assert "site-blas" in f.explanation
        assert f.fixable_online

    def test_no_expectations_skipped(self):
        assert WrongLibraryPathRule().check(view(expected_libraries=())) is None


class TestMemoryOversubscription:
    def test_comfortable_headroom_passes(self):
        assert MemoryOversubscriptionRule().check(view(mem_used_gb_p95=64.0)) is None

    def test_near_limit_detected(self):
        f = MemoryOversubscriptionRule().check(view(mem_used_gb_p95=126.0))
        assert f is not None
        assert f.kind is MisconfigKind.MEMORY_OVERSUBSCRIPTION

    def test_ratio_boundary(self):
        rule = MemoryOversubscriptionRule()
        at = view(mem_allocated_gb=100.0, mem_used_gb_p95=100.0 * MEM_RATIO_THRESHOLD)
        below = view(mem_allocated_gb=100.0, mem_used_gb_p95=100.0 * MEM_RATIO_THRESHOLD - 0.5)
        assert rule.check(at) is not None
        assert rule.check(below) is None

    def test_nan_usage_skipped(self):
        assert MemoryOversubscriptionRule().check(view(mem_used_gb_p95=float("nan"))) is None

    def test_zero_allocation_skipped(self):
        assert (
            MemoryOversubscriptionRule().check(view(mem_allocated_gb=0.0)) is None
        )


class TestMisconfigAnalyzer:
    def test_clean_job_no_findings(self):
        assert MisconfigAnalyzer().analyze(view()) == []

    def test_multiple_findings_sorted_by_severity(self):
        bad = view(
            threads_requested=1,
            cpu_util_mean=0.02,
            gpus_allocated=4,
            gpu_util_mean=0.0,
        )
        findings = MisconfigAnalyzer().analyze(bad)
        assert len(findings) >= 3
        severities = [f.severity for f in findings]
        assert severities == sorted(severities, reverse=True)

    def test_default_rules_cover_all_paper_kinds(self):
        kinds = set()
        for rule in default_rules():
            # each rule is tied to exactly one kind through its check
            kinds.add(rule.name)
        assert len(default_rules()) == 5
