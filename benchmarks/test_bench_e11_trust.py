"""E11 — trust controls (methodology question iv).

Claim quantified: bounded extension budgets give operators a dial —
small budgets already rescue most jobs while keeping extension overhang
(the untaken-backfill proxy) bounded; budget zero reproduces the status
quo.
"""

from conftest import run_once

from repro.experiments.report import render_table
from repro.experiments.trust_exp import run_trust_sweep


def test_trust_budget_sweep(benchmark):
    rows = run_once(benchmark, run_trust_sweep, seed=0, n_jobs=24, n_nodes=12)
    print()
    print(render_table(rows, title="E11 — extension budget sweep"))
    by = {int(r["max_extensions"]): r for r in rows}
    # budget 0 = status quo
    assert by[0]["ext_granted"] == 0
    # completion is (weakly) monotone in budget, and the first unit of
    # budget captures most of the value
    rates = [r["completion_rate"] for r in rows]
    assert all(b >= a - 0.05 for a, b in zip(rates, rates[1:]))
    assert by[1]["completion_rate"] - by[0]["completion_rate"] > 0.5 * (
        rates[-1] - rates[0]
    )
    # overhang stays bounded: granting extensions does not blow up idle hold
    assert all(r["overhang_nh"] < 50.0 for r in rows)


def test_confidence_gate_blocks_uncertain_actions(benchmark):
    """D3: gating on confidence trades a few rescues for fewer actions."""
    from repro.experiments.scheduler_case import SchedulerScenarioConfig
    from repro.loops.scheduler_loop import SchedulerCaseConfig

    def run_two():
        rows = []
        for min_conf in (0.0, 0.9):
            # thread the gate through via a custom config run

            cfg = SchedulerScenarioConfig(
                seed=2, mode="autonomous", n_jobs=20, n_nodes=10, horizon_s=300_000.0
            )
            # monkey-free: run the scenario, then a second pass with the gate
            # by overriding the manager's config through the module function
            row = _run_with_gate(cfg, min_conf)
            row["min_confidence"] = min_conf
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run_two, rounds=1, iterations=1)
    print()
    print(render_table(rows, columns=["min_confidence", "completion_rate", "ext_req", "ext_granted"],
                       title="E11/D3 — confidence gating"))
    ungated, gated = rows
    assert gated["ext_req"] <= ungated["ext_req"]


def _run_with_gate(cfg, min_confidence):
    """Variant of run_scheduler_scenario exposing the loop confidence gate."""
    from repro.cluster.checkpoint import CheckpointStore
    from repro.cluster.node import Node, NodeSpec
    from repro.cluster.scheduler import ExtensionPolicy, Scheduler, SchedulerConfig
    from repro.experiments.metrics import JobOutcomeSummary
    from repro.core.runtime import LoopRuntime
    from repro.loops.scheduler_loop import SchedulerCaseConfig, host_scheduler_case
    from repro.sim import Engine, RngRegistry
    from repro.telemetry.markers import ProgressMarkerChannel
    from repro.workloads.generator import (
        MisestimationModel,
        ResubmitPolicy,
        WorkloadGenerator,
        WorkloadSpec,
    )

    engine = Engine()
    rngs = RngRegistry(seed=cfg.seed)
    channel = ProgressMarkerChannel()
    checkpoints = CheckpointStore()
    nodes = [Node(f"n{i:03d}", NodeSpec()) for i in range(cfg.n_nodes)]
    scheduler = Scheduler(
        engine,
        nodes,
        config=SchedulerConfig(extension_policy=ExtensionPolicy(10, 100_000.0)),
        marker_channel=channel,
        checkpoint_store=checkpoints,
        rng=rngs.stream("scheduler"),
    )
    generator = WorkloadGenerator(
        engine,
        scheduler,
        rngs.stream("workload"),
        WorkloadSpec(
            n_jobs=cfg.n_jobs,
            misestimation=MisestimationModel(mu=cfg.misestimation_mu, sigma=cfg.misestimation_sigma),
        ),
    )
    ResubmitPolicy(engine, scheduler, checkpoint_store=checkpoints)
    host_scheduler_case(
        LoopRuntime(engine),
        scheduler,
        channel,
        config=SchedulerCaseConfig(min_confidence=min_confidence, loop_period_s=cfg.loop_period_s),
    )
    generator.start()
    engine.run(until=cfg.horizon_s)
    return JobOutcomeSummary.from_scheduler(scheduler, cfg.horizon_s).as_row()
