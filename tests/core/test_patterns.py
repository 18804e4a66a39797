"""Tests for the four Fig. 2 MAPE-K design patterns, hosted on the runtime."""

import numpy as np
import pytest

from repro.core.patterns import (
    DriftingElement,
    classical_specs,
    coordinated_specs,
    groups,
    hierarchical_specs,
    master_worker_spec,
    publish,
    ring_neighbors,
)
from repro.core.runtime import LoopRuntime
from repro.sim import Engine, RngRegistry


def make_elements(eng, n, seed=0, drift_mu=0.3, drift_std=0.5):
    rngs = RngRegistry(seed=seed)
    elements = []
    for i in range(n):
        e = DriftingElement(
            eng,
            f"e{i}",
            rngs.fork("element", i),
            initial=100.0,
            drift_mu=drift_mu,
            drift_std=drift_std,
            disturb_period_s=1.0,
        )
        e.start_disturbance()
        elements.append(e)
    return elements


def hosted(n, **kw):
    """An engine, a runtime and ``n`` elements publishing into its store."""
    eng = Engine()
    runtime = LoopRuntime(eng)
    elements = make_elements(eng, n, **kw)
    publish(runtime, elements)
    return eng, runtime, elements


def control_error(elements, target_total):
    return abs(sum(e.read() for e in elements) - target_total)


def total_latency(spec):
    return spec.phase_latency.decision_delay + spec.phase_latency.execute_s


class TestRingNeighbors:
    def test_basic_ring(self):
        assert ring_neighbors(5, 0) == [1, 4]
        assert ring_neighbors(5, 2) == [1, 3]

    def test_k2(self):
        assert ring_neighbors(6, 0, k=2) == [1, 2, 4, 5]

    def test_small_ring_dedup(self):
        assert ring_neighbors(2, 0, k=3) == [1]
        assert ring_neighbors(1, 0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_neighbors(0, 0)
        with pytest.raises(ValueError):
            ring_neighbors(5, 9)
        with pytest.raises(ValueError):
            ring_neighbors(5, 0, k=-1)


class TestDriftingElement:
    def test_drifts_upward(self):
        eng = Engine()
        (e,) = make_elements(eng, 1, drift_mu=1.0, drift_std=0.1)
        eng.run(until=100.0)
        assert e.read() > 150.0  # ~100 + 100*1.0

    def test_actuation(self):
        eng = Engine()
        e = DriftingElement(eng, "e", np.random.default_rng(0))
        e.actuate(-20.0)
        assert e.read() == 80.0
        assert e.actuations == 1

    def test_double_disturbance_start_raises(self):
        eng = Engine()
        (e,) = make_elements(eng, 1)
        with pytest.raises(RuntimeError):
            e.start_disturbance()

    def test_publishes_each_disturbance(self):
        eng, runtime, elements = hosted(3)
        eng.run(until=4.5)
        result = runtime.hub.query("last(x) group by (element)", at=eng.now)
        assert {s.label("element"): float(s.values[-1]) for s in result.series} == {
            e.element_id: e.read() for e in elements
        }
        times, _ = runtime.hub.samples('last(x{element="e0"})', at=eng.now)
        assert list(times) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_publishing_keeps_the_draw_order(self):
        plain = Engine()
        alone = make_elements(plain, 4)
        plain.run(until=50.0)
        eng, _, published = hosted(4)
        eng.run(until=50.0)
        assert [e.read() for e in published] == [e.read() for e in alone]


class TestClassicalLoop:
    def test_regulates_single_element(self):
        eng, runtime, (e,) = hosted(1, drift_mu=0.5, drift_std=0.2)
        runtime.add_many(classical_specs([e], 100.0, period_s=5.0, gain=0.8), start=True)
        eng.run(until=600.0)
        assert abs(e.read() - 100.0) < 10.0

    def test_without_control_element_drifts(self):
        eng, _, (e,) = hosted(1, drift_mu=0.5, drift_std=0.2)
        eng.run(until=600.0)
        assert abs(e.read() - 100.0) > 100.0

    def test_each_loop_reads_and_acts_on_its_own_element(self):
        eng, runtime, elements = hosted(4, drift_mu=5.0)
        specs = classical_specs(elements, 400.0, period_s=10.0)
        runtime.add_many(specs, start=True)
        eng.run(until=15.0)
        for spec, element in zip(specs, elements):
            (iteration, _) = runtime.handle(spec.name).loop.iterations
            assert list(iteration.observation.values) == [element.element_id]
            assert [r.action.target for r in iteration.results] == [element.element_id]


class TestMasterWorker:
    def test_regulates_aggregate(self):
        eng, runtime, elements = hosted(8)
        runtime.add(master_worker_spec(elements, 800.0, period_s=5.0, gain=0.8), start=True)
        eng.run(until=600.0)
        assert control_error(elements, 800.0) < 40.0  # within 5% of 800

    def test_latency_grows_with_n(self):
        eng = Engine()
        small = master_worker_spec(make_elements(eng, 4), 400.0)
        big = master_worker_spec(make_elements(eng, 64, seed=1), 6400.0)
        assert total_latency(small) == pytest.approx(2 * 0.01 + 0.002 * 4)
        assert total_latency(big) > total_latency(small)

    def test_n_reads_and_n_actions_per_cycle(self):
        eng, runtime, elements = hosted(4, drift_mu=5.0)  # force corrections
        spec = master_worker_spec(elements, 400.0, period_s=10.0)
        reads = []
        spec.on_iteration = lambda it: reads.append(len(it.observation.values))
        handle = runtime.add(spec, start=True)
        eng.run(until=95.0)
        # 10 cycles × (4 values read + 4 actions)
        assert reads == [4] * 10
        assert handle.loop.actions_executed == 10 * 4

    def test_actions_land_two_hops_and_the_analysis_after_the_observation(self):
        eng, runtime, elements = hosted(4)
        handle = runtime.add(master_worker_spec(elements, 400.0, period_s=10.0), start=True)
        eng.run(until=15.0)
        first = handle.loop.iterations[0]
        assert first.t_execute - first.t_monitor == pytest.approx(2 * 0.01 + 0.002 * 4)
        assert first.t_complete == first.t_execute

    def test_master_failure_stops_all_control(self):
        eng, runtime, elements = hosted(8, drift_mu=0.5)
        spec = master_worker_spec(elements, 800.0, period_s=5.0, gain=0.8)
        handle = runtime.add(spec, start=True)
        eng.schedule(100.0, handle.stop)
        eng.run(until=600.0)
        # uncontrolled drift after the kill: aggregate way above target
        assert control_error(elements, 800.0) > 100.0

    def test_needs_elements(self):
        with pytest.raises(ValueError):
            master_worker_spec([], 0.0)


class TestCoordinated:
    def test_regulates_aggregate(self):
        eng, runtime, elements = hosted(8)
        specs = coordinated_specs(runtime, elements, 800.0, period_s=5.0, gain=0.8, comp_gain=0.2)
        runtime.add_many(specs, start=True)
        eng.run(until=600.0)
        assert control_error(elements, 800.0) < 40.0

    def test_local_latency_constant_in_n(self):
        eng, runtime, _ = hosted(0)
        small = coordinated_specs(runtime, make_elements(eng, 4), 400.0)
        big = coordinated_specs(runtime, make_elements(eng, 64, seed=1), 6400.0)
        assert total_latency(big[0]) == total_latency(small[0]) == pytest.approx(0.002)

    def test_gossip_is_the_state_each_peer_left_after_acting(self):
        eng, runtime, elements = hosted(5)
        specs = coordinated_specs(runtime, elements, 500.0, period_s=5.0)
        runtime.add_many(specs, start=True)
        eng.run(until=7.5)
        first, last = runtime.handle(specs[0].name).loop.iterations
        assert list(first.observation.values) == ["e0"]  # no peer has gossiped yet
        assert last.observation.time == 5.0
        assert sorted(last.observation.values) == ["e0", "e1", "e4"]
        # its own value is what e0 published at the last disturbance before
        # the read (t = 4): the read runs before the t = 5 one
        times, values = runtime.hub.samples('last(x{element="e0"})', at=5.0)
        assert list(times[-2:]) == [4.0, 5.0]
        assert last.observation.values["e0"] == values[-2] != values[-1]
        # a peer's value is its gossip from its first iteration, once acted
        for peer in ("e1", "e4"):
            times, values = runtime.hub.samples(f'last(gossip{{element="{peer}"}})', at=5.0)
            assert list(times) == [pytest.approx(0.002)]
            assert last.observation.values[peer] == values[0]

    def test_single_controller_failure_is_contained(self):
        eng, runtime, elements = hosted(8, drift_mu=0.5)
        specs = coordinated_specs(runtime, elements, 800.0, period_s=5.0, gain=0.8)
        runtime.add_many(specs, start=True)
        eng.schedule(100.0, runtime.handle(specs[0].name).stop)
        eng.run(until=600.0)
        # element 0 drifts; the others stay near their fair share
        drift = abs(elements[0].read() - 100.0)
        assert drift > 50.0
        assert all(abs(e.read() - 100.0) < 20.0 for e in elements[1:])
        # its peers keep reading its last gossip, from before the kill
        times, _ = runtime.hub.samples('last(gossip{element="e0"})', at=eng.now)
        assert times[-1] < 100.0
        assert runtime.active_loops() / len(runtime.handles) == pytest.approx(7 / 8)

    def test_aggressive_compensation_oscillates(self):
        """High comp_gain over the neighbourhood's states destabilizes the aggregate."""

        def aggregate_std(comp_gain):
            eng, runtime, elements = hosted(16, drift_mu=0.2, drift_std=0.2)
            specs = coordinated_specs(
                runtime, elements, 1600.0, period_s=5.0, gain=0.6, comp_gain=comp_gain
            )
            runtime.add_many(specs, start=True)
            samples = []
            eng.every(5.0, lambda: samples.append(sum(e.read() for e in elements)),
                      start_at=300.0)
            eng.run(until=900.0)
            return float(np.std(samples))

        calm = aggregate_std(0.1)
        wild = aggregate_std(3.0)
        assert wild > 2.0 * calm


class TestHierarchical:
    def test_regulates_aggregate(self):
        eng, runtime, elements = hosted(16)
        specs = hierarchical_specs(
            runtime, elements, 1600.0, group_size=4, period_s=5.0, top_period_s=25.0, gain=0.8
        )
        runtime.add_many(specs, start=True)
        eng.run(until=600.0)
        assert control_error(elements, 1600.0) < 80.0

    def test_groups_partition_elements(self):
        cut = groups(10, 4)
        assert sorted(i for g in cut for i in g) == list(range(10))
        assert [len(g) for g in cut] == [4, 4, 2]

    def test_one_loop_per_group_reading_its_group(self):
        eng, runtime, elements = hosted(10)
        specs = hierarchical_specs(runtime, elements, 1000.0, group_size=4, period_s=5.0)
        assert [s.name for s in specs] == [
            "hierarchical-g0", "hierarchical-g1", "hierarchical-g2", "hierarchical-top",
        ]
        runtime.add_many(specs, start=True)
        eng.run(until=2.0)
        observation = runtime.handle("hierarchical-g2").loop.iterations[0].observation
        assert sorted(observation.values) == ["e8", "e9"]

    def test_rebalancer_is_a_meta_loop(self):
        from repro.core.supervisor import MetaLoopSpec

        eng, runtime, elements = hosted(8)
        specs = hierarchical_specs(runtime, elements, 800.0, group_size=4)
        assert [isinstance(s, MetaLoopSpec) for s in specs] == [False, False, True]

    def test_latency_independent_of_n(self):
        eng, runtime, _ = hosted(0)
        small = hierarchical_specs(runtime, make_elements(eng, 8), 800.0, group_size=4)
        big = hierarchical_specs(runtime, make_elements(eng, 64, seed=1), 6400.0, group_size=4)
        assert total_latency(big[0]) == total_latency(small[0])
        assert total_latency(small[0]) == pytest.approx(2 * 0.01 + 0.002 * 4)

    def test_group_head_failure_contained_to_group(self):
        eng, runtime, elements = hosted(16, drift_mu=0.5)
        specs = hierarchical_specs(
            runtime, elements, 1600.0, group_size=4, period_s=5.0, gain=0.8
        )
        runtime.add_many(specs, start=True)
        eng.schedule(100.0, runtime.handle("hierarchical-g0").stop)
        eng.run(until=600.0)
        # after the kill, the top level re-shares the global target over the
        # 12 alive elements: their new setpoint is 1600/12
        new_share = 1600.0 / 12
        cut = groups(16, 4)
        dead_group = [abs(elements[i].read() - 100.0) for i in cut[0]]
        live_groups = [abs(elements[i].read() - new_share) for g in cut[1:] for i in g]
        assert min(dead_group) > 30.0  # group 0 uncontrolled, keeps drifting
        assert max(live_groups) < 20.0  # others regulated to the new share

    def test_validation(self):
        eng, runtime, elements = hosted(4)
        with pytest.raises(ValueError):
            hierarchical_specs(runtime, elements, 400.0, group_size=0)
        with pytest.raises(ValueError):
            hierarchical_specs(runtime, [], 0.0)
