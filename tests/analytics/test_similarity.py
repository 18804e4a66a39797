"""Tests for job similarity / run history k-NN."""

import pytest

from repro.analytics.similarity import JobRecord, RunHistory


def rec(job_id, app="lmp", runtime=100.0, succeeded=True, **features):
    return JobRecord(job_id, app, features, runtime, succeeded)


class TestRunHistory:
    def test_empty_history(self):
        h = RunHistory()
        assert h.nearest({"x": 1.0}) == []
        assert h.predict_runtime({"x": 1.0}) is None

    def test_nearest_orders_by_distance(self):
        h = RunHistory()
        h.add(rec("a", x=1.0))
        h.add(rec("b", x=5.0))
        h.add(rec("c", x=2.0))
        got = [n.record.job_id for n in h.nearest({"x": 1.1}, k=3)]
        assert got == ["a", "c", "b"]

    def test_k_limits_results(self):
        h = RunHistory()
        for i in range(10):
            h.add(rec(f"j{i}", x=float(i)))
        assert len(h.nearest({"x": 0.0}, k=3)) == 3

    def test_filter_by_app(self):
        h = RunHistory()
        h.add(rec("a", app="lmp", x=1.0))
        h.add(rec("b", app="cfd", x=1.0))
        got = h.nearest({"x": 1.0}, app_name="cfd")
        assert [n.record.job_id for n in got] == ["b"]

    def test_normalization_prevents_scale_domination(self):
        h = RunHistory()
        # feature "big" has huge scale; "small" is discriminative
        h.add(rec("near", big=1e6, small=1.0))
        h.add(rec("far", big=1.001e6, small=100.0))
        got = h.nearest({"big": 1e6, "small": 1.0}, k=1)
        assert got[0].record.job_id == "near"

    def test_missing_features_treated_as_mean(self):
        h = RunHistory()
        h.add(rec("full", x=1.0, y=5.0))
        h.add(rec("partial", x=2.0))  # no y
        got = h.nearest({"x": 2.0, "y": 5.0}, k=2)
        assert len(got) == 2  # no crash; both records scored

    def test_predict_runtime_weighted(self):
        h = RunHistory()
        h.add(rec("a", runtime=100.0, x=1.0))
        h.add(rec("b", runtime=200.0, x=10.0))
        mean, spread = h.predict_runtime({"x": 1.0}, k=2)
        assert 100.0 <= mean < 160.0  # dominated by the nearer record
        assert spread >= 0.0

    def test_predict_excludes_failures(self):
        h = RunHistory()
        h.add(rec("ok", runtime=100.0, x=1.0))
        h.add(rec("fail", runtime=5.0, succeeded=False, x=1.0))
        mean, _ = h.predict_runtime({"x": 1.0}, k=5)
        assert mean == pytest.approx(100.0)

    def test_predict_none_when_only_failures(self):
        h = RunHistory()
        h.add(rec("fail", runtime=5.0, succeeded=False, x=1.0))
        assert h.predict_runtime({"x": 1.0}) is None

    def test_invalid_k(self):
        h = RunHistory()
        with pytest.raises(ValueError):
            h.nearest({"x": 1.0}, k=0)

    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            JobRecord("x", "app", {}, runtime_s=-1.0)

    def test_identical_features_zero_distance(self):
        h = RunHistory()
        h.add(rec("a", x=3.0, y=4.0))
        h.add(rec("b", x=30.0, y=40.0))
        got = h.nearest({"x": 3.0, "y": 4.0}, k=1)
        assert got[0].record.job_id == "a"
        assert got[0].distance == pytest.approx(0.0, abs=1e-9)
