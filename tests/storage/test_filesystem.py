"""Tests for OSTs, the parallel filesystem, and clients."""

import pytest

from repro.sim import Engine
from repro.storage.client import PeriodicWriter
from repro.storage.filesystem import ParallelFileSystem
from repro.storage.ost import OST, OstState
from repro.storage.qos import QoSManager


def make_fs(n_osts=4, rate=1000.0, qos=None):
    eng = Engine()
    osts = [OST(f"ost{i}", nominal_rate_mbps=rate) for i in range(n_osts)]
    fs = ParallelFileSystem(eng, osts, qos=qos)
    return eng, fs


class TestOst:
    def test_effective_rate_states(self):
        o = OST("o", 1000.0)
        assert o.effective_rate_mbps == 1000.0
        o.set_state(OstState.DEGRADED, 0.1)
        assert o.effective_rate_mbps == 100.0
        o.set_state(OstState.FAILED)
        assert o.effective_rate_mbps == 0.0
        assert not o.usable

    def test_recovery_resets_factor(self):
        o = OST("o", 1000.0)
        o.set_state(OstState.DEGRADED, 0.1)
        o.set_state(OstState.HEALTHY)
        assert o.effective_rate_mbps == 1000.0

    def test_share_divides_among_transfers(self):
        o = OST("o", 1000.0)
        assert o.share_for_new_transfer() == 1000.0
        o.active_transfers.add(1)
        assert o.share_for_new_transfer() == 500.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OST("o", 0.0)
        with pytest.raises(ValueError):
            OST("o", 100.0).set_state(OstState.DEGRADED, 0.0)


class TestFileSystem:
    def test_create_file_round_robin(self):
        _, fs = make_fs(4)
        f1 = fs.create_file("a", "u", stripe_count=2)
        f2 = fs.create_file("b", "u", stripe_count=2)
        assert len(f1.stripe_osts) == 2
        assert f1.stripe_osts != f2.stripe_osts  # cursor advanced

    def test_create_avoids_osts(self):
        _, fs = make_fs(4)
        f = fs.create_file("a", "u", stripe_count=2, avoid={"ost0", "ost1"})
        assert set(f.stripe_osts) <= {"ost2", "ost3"}

    def test_duplicate_file_raises(self):
        _, fs = make_fs()
        fs.create_file("a", "u")
        with pytest.raises(ValueError, match="exists"):
            fs.create_file("a", "u")

    def test_too_many_stripes_raises(self):
        _, fs = make_fs(2)
        with pytest.raises(ValueError, match="only"):
            fs.create_file("a", "u", stripe_count=3)

    def test_single_write_full_bandwidth(self):
        eng, fs = make_fs(4, rate=1000.0)
        fs.create_file("a", "u", stripe_count=2)
        done = []
        # two stripes, each idle → 2000 MB/s; 1000 MB → 0.5 s
        duration = fs.write("u", "a", 1000.0, done.append)
        assert duration == pytest.approx(0.5)
        eng.run(until=1.0)
        assert len(done) == 1
        assert done[0].achieved_mbps == pytest.approx(2000.0)

    def test_contention_halves_bandwidth(self):
        eng, fs = make_fs(2, rate=1000.0)
        fs.create_file("a", "u1", stripe_count=2)
        fs.create_file("b", "u2", stripe_count=2)
        d1 = fs.write("u1", "a", 1000.0)
        d2 = fs.write("u2", "b", 1000.0)
        assert d1 == pytest.approx(0.5)  # first writer sees idle system
        assert d2 == pytest.approx(1.0)  # second shares every OST
        eng.run(until=5.0)
        assert len(fs.transfers) == 2

    def test_degraded_ost_bottlenecks_whole_write(self):
        eng, fs = make_fs(2, rate=1000.0)
        fs.create_file("a", "u", stripe_count=2)
        fs.set_ost_state("ost0", OstState.DEGRADED, 0.1)
        # each stripe gets 550 MB; the degraded stripe at 100 MB/s dominates
        duration = fs.write("u", "a", 1100.0)
        assert duration == pytest.approx(5.5)

    def test_ost_telemetry_pinpoints_slow_ost(self):
        eng, fs = make_fs(2, rate=1000.0)
        fs.create_file("a", "u", stripe_count=2)
        fs.set_ost_state("ost0", OstState.DEGRADED, 0.1)
        fs.write("u", "a", 1000.0)
        eng.run(until=10.0)
        assert fs.ost_bandwidth_mbps("ost0") == pytest.approx(100.0)
        assert fs.ost_bandwidth_mbps("ost1") == pytest.approx(1000.0)

    def test_write_to_unknown_file(self):
        _, fs = make_fs()
        with pytest.raises(KeyError):
            fs.write("u", "ghost", 10.0)

    def test_invalid_size(self):
        _, fs = make_fs()
        fs.create_file("a", "u")
        with pytest.raises(ValueError):
            fs.write("u", "a", 0.0)

    def test_restripe_avoids_bad_ost(self):
        _, fs = make_fs(4)
        f = fs.create_file("a", "u", stripe_count=2)
        bad = f.stripe_osts[0]
        fs.restripe_file("a", avoid={bad})
        assert bad not in f.stripe_osts
        assert f.restripe_count == 1

    def test_restripe_unknown_file(self):
        _, fs = make_fs()
        with pytest.raises(KeyError):
            fs.restripe_file("ghost")

    def test_avoidance_is_best_effort_when_capacity_tight(self):
        """Avoiding more OSTs than spare capacity falls back gracefully."""
        _, fs = make_fs(4)
        f = fs.create_file("a", "u", stripe_count=3)
        # ask to avoid 2 of 4 → only 2 clean candidates for 3 stripes;
        # the reopen must still succeed using the healthier avoided OSTs
        fs.restripe_file("a", avoid={"ost0", "ost1"})
        assert len(f.stripe_osts) == 3
        assert f.restripe_count == 1

    def test_avoidance_fallback_prefers_healthy_osts(self):
        _, fs = make_fs(3)
        f = fs.create_file("a", "u", stripe_count=2)
        fs.set_ost_state("ost0", OstState.DEGRADED, 0.1)
        # avoid everything → fallback ranks avoided OSTs by effective rate,
        # so the two healthy ones are chosen over the degraded one
        fs.restripe_file("a", avoid={"ost0", "ost1", "ost2"})
        assert sorted(f.stripe_osts) == ["ost1", "ost2"]

    def test_qos_shaping_governs_when_slower(self):
        qos = QoSManager()
        qos.set_allocation("tenant", rate_mbps=100.0, burst_mb=0.0)
        eng, fs = make_fs(4, rate=1000.0, qos=qos)
        fs.create_file("a", "tenant", stripe_count=2)
        # physical would be 0.5 s; shaped: 1000 MB at 100 MB/s = 10 s
        duration = fs.write("tenant", "a", 1000.0)
        assert duration == pytest.approx(10.0)

    def test_qos_burst_allows_fast_write(self):
        qos = QoSManager()
        qos.set_allocation("tenant", rate_mbps=100.0, burst_mb=2000.0)
        eng, fs = make_fs(4, rate=1000.0, qos=qos)
        fs.create_file("a", "tenant", stripe_count=2)
        duration = fs.write("tenant", "a", 1000.0)
        assert duration == pytest.approx(0.5)  # burst credit covers it

    def test_ost_telemetry_updates(self):
        eng, fs = make_fs(2, rate=1000.0)
        f = fs.create_file("a", "u", stripe_count=2)
        fs.write("u", "a", 1000.0)
        assert fs.ost_pending_ops(f.stripe_osts[0]) == 1
        eng.run(until=2.0)
        assert fs.ost_pending_ops(f.stripe_osts[0]) == 0
        assert fs.ost_bandwidth_mbps(f.stripe_osts[0]) == pytest.approx(1000.0)
        assert fs.bytes_written_mb == 1000.0

    def test_load_fraction(self):
        eng, fs = make_fs(2)
        fs.create_file("a", "u", stripe_count=2)
        assert fs.load_fraction() == 0.0
        fs.write("u", "a", 10000.0)
        assert fs.load_fraction() == 1.0

    def test_needs_osts(self):
        with pytest.raises(ValueError):
            ParallelFileSystem(Engine(), [])


class TestPeriodicWriter:
    def test_writes_on_cadence(self):
        eng, fs = make_fs(4, rate=1000.0)
        w = PeriodicWriter(eng, fs, "app1", size_mb=100.0, period_s=10.0, stripe_count=2)
        w.start()
        eng.run(until=35.0)
        assert len(w.transfers) == 4  # t = 0, 10, 20, 30
        assert w.recent_bandwidth_mbps() == pytest.approx(2000.0)

    def test_avoid_osts_restripes_before_next_write(self):
        eng, fs = make_fs(4, rate=1000.0)
        w = PeriodicWriter(eng, fs, "app1", size_mb=100.0, period_s=10.0, stripe_count=2)
        w.start()
        eng.run(until=5.0)
        original = set(w.file.stripe_osts)
        w.avoid_osts(original)
        eng.run(until=15.0)
        assert set(w.file.stripe_osts).isdisjoint(original)
        assert w.file.restripe_count == 1

    def test_overlapping_writes_skipped(self):
        eng, fs = make_fs(2, rate=10.0)  # slow: 100 MB takes ~5+ s per stripe pair
        w = PeriodicWriter(eng, fs, "app1", size_mb=1000.0, period_s=10.0, stripe_count=2)
        w.start()
        eng.run(until=100.0)
        assert w.skipped_writes > 0

    def test_validation(self):
        eng, fs = make_fs()
        with pytest.raises(ValueError):
            PeriodicWriter(eng, fs, "x", size_mb=0.0)
        with pytest.raises(ValueError):
            PeriodicWriter(eng, fs, "y", period_s=0.0)

    def test_double_start_raises(self):
        eng, fs = make_fs()
        w = PeriodicWriter(eng, fs, "x")
        w.start()
        with pytest.raises(RuntimeError):
            w.start()
