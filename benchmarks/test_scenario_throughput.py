"""Synthetic-scenario throughput and the protocol comparison grid.

Two artifacts accompany the engine-throughput trajectory (regenerated into
``.benchmarks/results/``, recorded in ``benchmarks/results/``):

* ``scenario_throughput.json`` — events/second per registered pattern (one
  bench-scale cell each, captured with the same :class:`repro.perf.Profiler`
  that ``hyperion-sim profile`` uses), so the scenario interpreter's host
  cost is tracked over time exactly like the paper apps';
* ``scenario_grid.json`` — the ``java_ic`` vs ``java_pf`` comparison grid
  over all patterns, whose recorded per-cell ``page_faults`` expose the
  page-fault gap the false-sharing and migratory scenarios were built to
  produce (``java_ic`` detects remote accesses in-line and never faults on
  them; ``java_pf`` pays one fault per invalidated page per epoch).
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.harness.figures import generate_scenario_grid
from repro.harness.spec import ExperimentSpec
from repro.perf import Profiler, perf_report_dict
from repro.scenarios.registry import available_scenarios

#: node counts of the recorded comparison grid
GRID_NODE_COUNTS = (1, 2, 4, 8)

#: aggregate events/second the pattern cell set recorded before the
#: batched-replay interpreter and the script cache landed (cold single-shot
#: capture) — the "before" of the recorded before/after trajectory
PRE_BATCHING_EVENTS_PER_SECOND = 81183.63
#: the patterns that recording covered (``syn-streaming`` registered later,
#: so the like-for-like uplift is computed over these six)
PRE_BATCHING_PATTERNS = (
    "syn-false-sharing",
    "syn-hot-lock",
    "syn-migratory",
    "syn-producer-consumer",
    "syn-read-mostly",
    "syn-uniform",
)


@pytest.mark.benchmark(group="scenario-throughput")
def test_scenario_cell_throughput(benchmark, results_dir):
    """Events/second of one bench-scale cell per registered pattern.

    Same methodology as the engine cell benchmark: warm, min-of-five
    repeats per cell, garbage collector paused during the timed runs.
    """
    specs = [
        ExperimentSpec(
            app=name,
            cluster="myrinet",
            protocol="java_pf",
            num_nodes=4,
            workload="bench",
        )
        for name in available_scenarios()
    ]
    profiler = Profiler(with_cprofile=False, repeats=5, warmup=1)

    def time_cells():
        gc.disable()
        try:
            profiles = profiler.profile_many(specs)
        finally:
            gc.enable()
        payload = perf_report_dict(profiles)
        payload["per_scenario"] = {p.label: p.as_dict() for p in profiles}
        # before/after: the pre-batching recording (cold single-shot, before
        # the batched-replay interpreter and the script cache landed).  The
        # like-for-like figures restrict the "after" to the six patterns the
        # "before" covered, since syn-streaming registered afterwards.
        covered = [
            p
            for p, spec in zip(profiles, specs, strict=True)
            if spec.app in PRE_BATCHING_PATTERNS
        ]
        covered_wall = sum(p.wall_seconds for p in covered)
        covered_events = sum(p.events for p in covered)
        like_for_like = covered_events / covered_wall if covered_wall > 0 else 0.0
        payload["baseline"] = {
            "events_per_second": PRE_BATCHING_EVENTS_PER_SECOND,
            "uplift": payload["events_per_second"] / PRE_BATCHING_EVENTS_PER_SECOND,
            "like_for_like_events_per_second": like_for_like,
            "like_for_like_uplift": like_for_like / PRE_BATCHING_EVENTS_PER_SECOND,
        }
        return payload

    aggregate = benchmark.pedantic(time_cells, rounds=1, iterations=1)
    benchmark.extra_info["throughput"] = aggregate
    (results_dir / "scenario_throughput.json").write_text(
        json.dumps(aggregate, indent=2, sort_keys=True)
    )
    assert len(aggregate["per_scenario"]) == len(available_scenarios())
    assert aggregate["total_events"] > 0
    assert aggregate["events_per_second"] > 0


@pytest.mark.benchmark(group="scenario-grid")
def test_scenario_comparison_grid(benchmark, bench_session, results_dir):
    """Record the protocol grid and pin the java_ic vs java_pf fault gap."""

    def run_grid():
        return generate_scenario_grid(
            node_counts=GRID_NODE_COUNTS, workload="bench", session=bench_session
        )

    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    payload = grid.to_dict()
    benchmark.extra_info["grid"] = payload
    (results_dir / "scenario_grid.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )
    # the acceptance gap: on every multi-node cell the page-granularity
    # protocol faults measurably more than the in-line-check protocol
    for scenario in ("syn-false-sharing", "syn-migratory"):
        for nodes in GRID_NODE_COUNTS:
            if nodes == 1:
                continue
            gap = grid.page_fault_gap(scenario, nodes)
            assert gap > 0, f"{scenario} at {nodes} nodes: no page-fault gap"
    # java_ic's detection work shows up as inline checks instead
    assert grid.stat("syn-false-sharing", "java_ic", 4, "inline_checks") > 0
    assert grid.stat("syn-false-sharing", "java_ic", 4, "page_faults") == 0
