"""Engine and end-to-end event throughput baselines.

Records events/second — the host-side currency of this reproduction — at
three levels, so the ``BENCH_*.json`` dumps track the fast path's trajectory
over time:

* the bare kernel dispatching a dense timeout cascade (no DSM, no apps);
* process-based workers ping-ponging through the kernel (generator resume
  path, still no DSM);
* one full experiment cell per paper benchmark at the testing scale, via
  :class:`repro.perf.Profiler` (the same capture ``hyperion-sim profile``
  uses), whose per-cell events/second land in ``extra_info`` and in
  ``.benchmarks/results/engine_throughput.json`` (the committed copy in
  ``benchmarks/results/`` is CI's throughput floor).
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.figures import FIGURE_APPS
from repro.harness.spec import ExperimentSpec
from repro.perf import Profiler, perf_report_dict
from repro.simulation.engine import Engine

#: aggregate events/second the cell set recorded before the batched-replay
#: fast paths landed (cold single-shot capture) — kept as the "before" of
#: the recorded before/after trajectory
PRE_BATCHING_EVENTS_PER_SECOND = 19605.29

#: events dispatched by the bare-kernel benchmark
CASCADE_EVENTS = 50_000
#: ping-pong workers and rounds for the process-path benchmark
PINGPONG_WORKERS = 8
PINGPONG_ROUNDS = 500


def _timeout_cascade() -> int:
    """Schedule-and-dispatch CASCADE_EVENTS timeouts through a fresh engine."""
    engine = Engine(strict_deadlock=False)
    remaining = [CASCADE_EVENTS]

    def reschedule(_event) -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.timeout(1e-6).callbacks.append(reschedule)

    engine.timeout(1e-6).callbacks.append(reschedule)
    engine.run()
    return engine.events_processed


def _process_pingpong() -> int:
    """PINGPONG_WORKERS generator processes trading timeouts."""
    engine = Engine(strict_deadlock=False)

    def worker(rounds: int):
        for _ in range(rounds):
            yield engine.timeout(1e-6)

    for _ in range(PINGPONG_WORKERS):
        engine.process(worker(PINGPONG_ROUNDS))
    engine.run()
    return engine.events_processed


@pytest.mark.benchmark(group="engine-throughput")
def test_kernel_timeout_cascade(benchmark):
    """Bare event-loop dispatch rate (no processes, no DSM)."""
    events = benchmark(_timeout_cascade)
    benchmark.extra_info["events"] = events
    assert events >= CASCADE_EVENTS


@pytest.mark.benchmark(group="engine-throughput")
def test_kernel_process_pingpong(benchmark):
    """Generator-resume dispatch rate (processes, no DSM)."""
    events = benchmark(_process_pingpong)
    benchmark.extra_info["events"] = events
    assert events >= PINGPONG_WORKERS * PINGPONG_ROUNDS


@pytest.mark.benchmark(group="engine-throughput")
def test_cell_throughput(benchmark, results_dir):
    """Events/second of one testing-scale cell per paper benchmark.

    Methodology: each cell is timed warm (one untimed warm-up run) as the
    minimum of five repeats with the garbage collector paused — ``timeit``
    hygiene, so the recorded trajectory tracks the simulator, not allocator
    and hypervisor noise.  A separate cProfile pass over the heaviest cell
    (asp) fills that cell's ``hot_functions`` without perturbing the timed
    numbers.
    """
    workload = WorkloadPreset.testing()
    specs = [
        ExperimentSpec(
            app=app,
            cluster="myrinet",
            protocol="java_pf",
            num_nodes=4,
            workload=workload,
        )
        for app in FIGURE_APPS.values()
    ]
    profiler = Profiler(with_cprofile=False, repeats=5, warmup=1)

    def time_cells():
        gc.disable()
        try:
            profiles = profiler.profile_many(specs)
        finally:
            gc.enable()
        payload = perf_report_dict(profiles)
        # hot-function capture for the representative (heaviest) cell, on a
        # separate cProfile'd run so the timing cells above stay clean
        hot_profiler = Profiler(with_cprofile=True, sort="tottime", limit=10)
        hot_cell = hot_profiler.profile_spec(specs[-1])
        for cell in payload["cells"]:
            if cell["label"] == hot_cell.label:
                cell["hot_functions"] = hot_cell.as_dict()["hot_functions"]
        # before/after: the pre-batching recording this PR's fast paths are
        # measured against (cold single-shot capture of the same cell set)
        payload["baseline"] = {
            "events_per_second": PRE_BATCHING_EVENTS_PER_SECOND,
            "uplift": payload["events_per_second"] / PRE_BATCHING_EVENTS_PER_SECOND,
        }
        return payload

    aggregate = benchmark.pedantic(time_cells, rounds=1, iterations=1)
    benchmark.extra_info["throughput"] = aggregate
    (results_dir / "engine_throughput.json").write_text(
        json.dumps(aggregate, indent=2)
    )
    assert aggregate["total_events"] > 0
    assert aggregate["events_per_second"] > 0
    assert any(cell["hot_functions"] for cell in aggregate["cells"])
