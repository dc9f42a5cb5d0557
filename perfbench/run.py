"""The repository benchmark: cold figure grid, scenario grid, served sweeps.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``figures-cold``   ``Session().figures()`` at the bench preset, 130 cells;
* ``scenarios-cold`` ``Session().scenario_grid(workload="paper")``, 112 cells;
* ``sweep-served``   a seeded closed loop of 12-cell sweep requests against
  the sweep server, alternating fresh and repeated requests.

Every pass runs in a fresh interpreter (and, for sweep-served, against a
fresh server with an empty store), because users pay process-wide memos
once per process.  With ``--trace 0`` the benchmark runs passes until
``--seconds`` have elapsed and reports the end-to-end metrics: medians over
passes for ``wall_s`` and ``peak_rss_mb``, the median over every start-up
of the run for ``setup_s``, and percentiles of the pooled per-request round
trips for the ``rt_*`` metrics.  Timings are scaled to a reference host
speed by a probe timed between round trips on the same pinned CPU (see
``perfbench/README.md``); the values as measured go to the result file
too.  With ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics (see ``perfbench/metric_map.json``), the
tracing overhead, the closure of the layer self times and the layer-share
check.

Every cell is checked against the digests in ``perfbench/refs``; a mismatch
or an exception is a failed operation.  The last stdout line is the JSON
result; a copy with its provenance goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import common

#: |sum of layer self times - traced reference| / reference must stay below
CLOSURE_TOLERANCE = 0.03
#: a pass that takes longer than this is killed and counted as failed
PASS_TIMEOUT_SECONDS = 150
#: p90 is reported from at least this many samples (>= 10 beyond it)
P90_MIN_SAMPLES = 100
#: warm-grid processes per grid pass (each requests every cell once)
WARM_PROCESSES = 3


class PassFailed(RuntimeError):
    """A pass that produced no result (crashed, timed out, bad output)."""


def warm_up() -> None:
    """Compile the program's bytecode once, untimed, so no pass pays it."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.harness.cli, repro.harness.service, repro.harness.figures, "
         "repro.scenarios.runner, repro.apps"],
        env=common.child_env(), cwd=common.ROOT, check=True, timeout=PASS_TIMEOUT_SECONDS,
        capture_output=True,
    )


def _grid_phase(phase: str, workload: str, seed: int, trace: bool, scratch) -> dict:
    command = [
        sys.executable, str(common.BENCH_DIR / "grid_pass.py"),
        "--phase", phase,
        "--workload", workload,
        "--pool", str(common.pool_seed(seed)),
        "--trace", "1" if trace else "0",
        "--store", str(scratch / "store"),
        "--spawned-ns", str(common.monotonic_ns()),
    ]
    cpu = common.bench_cpu()
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, env=common.child_env(),
            cwd=common.ROOT, timeout=PASS_TIMEOUT_SECONDS, check=False,
            preexec_fn=lambda: os.sched_setaffinity(0, cpu),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} {phase} phase timed out") from exc
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        raise PassFailed(f"{workload} {phase} phase exited with {done.returncode}: {' | '.join(tail)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def grid_pass(workload: str, seed: int, trace: bool, scratch) -> dict:
    """The cold grid, then (untraced) the warm grid in further processes.

    A single warm process's store reads move by about 20% from one process
    to the next, so the repeat requests pool ``WARM_PROCESSES`` of them.
    Every phase is a fresh interpreter, so each one adds a ``setup_s``
    sample.
    """
    result = _grid_phase("cold", workload, seed, trace, scratch)
    result.update(repeat_ms=[], repeat_probe_s=[], repeats=0, repeat_failed=[])
    for _ in range(0 if trace else WARM_PROCESSES):
        warm = _grid_phase("warm", workload, seed, trace, scratch)
        for key in ("setup_s", "setup_probe_s", "repeat_ms", "repeat_probe_s", "repeat_failed"):
            result[key] += warm[key]
        result["repeats"] += warm["repeats"]
    return result


def one_pass(workload: str, seed: int, trace: bool, index: int, run_dir) -> dict:
    scratch = run_dir / f"pass-{index}"
    scratch.mkdir(parents=True)
    try:
        if workload == "sweep-served":
            import served

            return served.served_pass(seed, trace, scratch)
        return grid_pass(workload, seed, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _operations(result: dict) -> tuple[int, list[str]]:
    """(attempted, failures) of one pass."""
    if "requests" in result:
        return result["requests"], list(result["failed"])
    failures = list(result["failed"]) + list(result["repeat_failed"])
    return result["cells"] + result["repeats"], failures


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------
def _at_reference_speed(result: dict) -> dict:
    """One pass's timings scaled to the probe's reference host speed.

    Each round trip is scaled by the median of the probes around it, which
    follows the host's speed through the pass.  ``wall_s`` is the scaled
    round trips that make up the pass plus its remaining time (assembly,
    client overhead) at the pass's median probe; the probe runs themselves
    are left out.  Each ``setup_s`` sample is scaled by the median of the
    probes run right after its start-up: start-up is mostly interpreter
    work (unmarshalling and running module code), which the probe follows,
    and it is too short to carry probes of its own.
    """
    kinds = result["wall_kinds"]
    pass_factor = common.speed_factor(
        [seconds for kind in kinds for seconds in result[f"{kind}_probe_s"]]
    )
    scaled = {
        kind: [
            ms * factor
            for ms, factor in zip(
                result[f"{kind}_ms"], common.speed_factors(result[f"{kind}_probe_s"]), strict=True
            )
        ]
        for kind in ("fresh", "repeat")
    }
    timed_ms = sum(sum(result[f"{kind}_ms"]) for kind in kinds)
    rest_s = max(0.0, result["wall_s"] - timed_ms / 1000.0 - result["wall_probe_s"])
    return {
        "fresh_ms": scaled["fresh"],
        "repeat_ms": scaled["repeat"],
        "wall_s": sum(sum(scaled[kind]) for kind in kinds) / 1000.0 + rest_s * pass_factor,
        "setup_s": [
            seconds * common.speed_factor(probes)
            for seconds, probes in zip(result["setup_s"], result["setup_probe_s"], strict=True)
        ],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def end_to_end(passes: list[dict]) -> tuple[dict, dict, dict]:
    """Metric values at reference speed, as measured, and their sample counts."""

    def metrics(views: list[dict]) -> dict:
        fresh = [ms for view in views for ms in view["fresh_ms"]]
        repeat = [ms for view in views for ms in view["repeat_ms"]]
        return {
            "setup_s": statistics.median(seconds for view in views for seconds in view["setup_s"]),
            "wall_s": statistics.median(view["wall_s"] for view in views),
            "peak_rss_mb": statistics.median(view["peak_rss_mb"] for view in views),
            "rt_fresh_p50_ms": common.percentile(fresh, 50),
            "rt_fresh_p90_ms": common.percentile(fresh, 90),
            "rt_repeat_p50_ms": common.percentile(repeat, 50),
            "rt_repeat_p90_ms": common.percentile(repeat, 90),
        }

    fresh_n = sum(len(result["fresh_ms"]) for result in passes)
    repeat_n = sum(len(result["repeat_ms"]) for result in passes)
    setup_n = sum(len(result["setup_s"]) for result in passes)
    samples = {"setup_s": setup_n, "wall_s": len(passes), "peak_rss_mb": len(passes),
               "rt_fresh_p50_ms": fresh_n, "rt_fresh_p90_ms": fresh_n,
               "rt_repeat_p50_ms": repeat_n, "rt_repeat_p90_ms": repeat_n}
    return metrics([_at_reference_speed(result) for result in passes]), metrics(passes), samples


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics and the trace's own checks
# ---------------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload: str, untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values, and every check of the traced run that failed."""
    import tracing

    trace = traced["trace"]
    self_s = trace["self_s"]
    entry_s = trace["entry_s"]
    calls = trace["entry_calls"]
    counters = trace["counters"]
    counts = traced["counts"]
    requests = traced.get("requests", 0)
    values = {f"{layer}.self_s": self_s[layer] for layer in tracing.LAYERS}
    events = counters.get("events_dispatched", 0)
    values.update(
        {
            "core.accesses": counts["accesses"],
            "core.self_ns_per_access": _ratio(self_s["core"] * 1e9, counts["accesses"]),
            "hyperion.runtime_build_s": entry_s.get("hyperion:HyperionRuntime.__init__", 0.0),
            "hyperion.runtime_builds": calls.get("hyperion:HyperionRuntime.__init__", 0),
            "scenarios.build_script_s": entry_s.get("scenarios:build_script", 0.0),
            "scenarios.script_reuse_ratio": _ratio(
                counters.get("script_reuses", 0), calls.get("scenarios:build_script", 0)
            ),
            "simulation.events_dispatched": events,
            "simulation.events_elided": counters.get("events_elided", 0),
            "simulation.self_us_per_event": _ratio(self_s["simulation"] * 1e6, events),
            "dsm.page_faults": counts["page_faults"],
            "dsm.page_fetches": counts["page_fetches"],
            "harness.cache_key_s": entry_s.get("harness:ExperimentSpec.cache_key", 0.0),
            "harness.store_get_s": entry_s.get("harness:ResultStore.get", 0.0),
            "harness.store_gets": calls.get("harness:ResultStore.get", 0),
            "harness.store_hit_ratio": _ratio(
                counters.get("store_hits", 0), calls.get("harness:ResultStore.get", 0)
            ),
            "harness.store_put_s": entry_s.get("harness:ResultStore.put", 0.0),
            "harness.store_puts": calls.get("harness:ResultStore.put", 0),
            "harness.payload_s": entry_s.get("harness:report_to_payload", 0.0)
            + entry_s.get("harness:report_from_payload", 0.0),
            "harness.job_s": entry_s.get("harness:SweepJob.run", 0.0),
            "harness.queue_wait_s": counters.get("queue_wait_ns", 0) / 1e9,
            "harness.polls_per_request": _ratio(traced.get("polls", 0), requests),
            "trace.overhead_ratio": _ratio(traced["wall_s"], untraced["wall_s"]),
        }
    )
    # closure: the server's threads are timed on CPU clocks, so its layer
    # self times close against the server's CPU time; a grid pass is one
    # thread on the wall clock and closes against its wall time
    reference = traced["process_cpu_s"] if workload == "sweep-served" else traced["wall_s"]
    attributed = sum(self_s.values())
    values["trace.closure_error"] = _ratio(abs(attributed - reference), reference)

    problems = []
    if not traced["balanced"]:
        problems.append("spans did not balance on the tracing thread")
    if values["trace.closure_error"] > CLOSURE_TOLERANCE:
        problems.append(
            f"layer self times sum to {attributed:.4f} s, not {reference:.4f} s "
            f"(error {values['trace.closure_error']:.2%} > {CLOSURE_TOLERANCE:.0%})"
        )
    if counters.get("fast_path_disabled", 0):
        problems.append("the traced run switched the memory fast path off")
    if "digests" in traced and traced["digests"] != untraced["digests"]:
        problems.append("traced cell digests differ from the untraced run's")
    problems.extend(layer_share_problems(workload, self_s))
    return values, problems


def layer_share_problems(workload: str, self_s: dict) -> list[str]:
    """The claims behind the workload choice, checked on the traced pass."""
    import tracing

    simulated = {layer: self_s[layer] for layer in tracing.SIMULATION_LAYERS}
    layers = {layer: self_s[layer] for layer in tracing.LAYERS if layer != "unattributed"}
    largest = max(layers, key=layers.get)
    total = sum(layers.values())
    problems = []
    if workload == "figures-cold" and largest != "apps":
        problems.append(f"figures-cold: largest layer is {largest}, not apps")
    if workload == "scenarios-cold":
        if _ratio(self_s["apps"], total) >= 0.01:
            problems.append(f"scenarios-cold: apps is {self_s['apps'] / total:.1%} of self time")
        if largest != "core":
            problems.append(f"scenarios-cold: largest layer is {largest}, not core")
    if workload == "sweep-served":
        service = self_s["harness"] + self_s["obs"]
        top = max(simulated, key=simulated.get)
        if service <= simulated[top]:
            problems.append(f"sweep-served: harness+obs {service:.3f} s <= {top} {simulated[top]:.3f} s")
    return problems


# ---------------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    problem = common.check_checkout()
    if problem is not None:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = common.OUT / "runs" / f"{run_name}-{os.getpid()}"
    (common.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True)

    passes: list[dict] = []
    pass_errors: list[str] = []

    def run_one(trace: bool) -> dict | None:
        try:
            result = one_pass(args.workload, args.seed, trace, len(passes) + len(pass_errors), run_dir)
        except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
            pass_errors.append(f"{type(exc).__name__}: {exc}")
            return None
        passes.append(result)
        return result

    try:
        warm_up()
        if args.trace:
            untraced = run_one(False)
            traced = run_one(True)
        else:
            started = time.perf_counter()
            while not passes or time.perf_counter() - started < args.seconds:
                if run_one(False) is None:
                    break
    except subprocess.SubprocessError as exc:
        pass_errors.append(f"the program does not import: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # a pass that did not complete counts as one attempted, failed operation
    attempted = len(pass_errors)
    failures: list[str] = list(pass_errors)
    for result in passes:
        count, failed = _operations(result)
        attempted += count
        failures.extend(failed)

    metrics: dict = {}
    measured: dict = {}
    samples: dict = {}
    problems: list[str] = []
    if pass_errors:
        problems.append("a pass did not complete")
    elif args.trace:
        metrics, problems = per_layer(args.workload, untraced, traced)
    else:
        metrics, measured, samples = end_to_end(passes)
        for name in ("rt_fresh_p90_ms", "rt_repeat_p90_ms"):
            if samples[name] < P90_MIN_SAMPLES:
                problems.append(f"{name} rests on {samples[name]} samples (< {P90_MIN_SAMPLES})")
    if failures:
        problems.append(f"{len(failures)} failed operation(s), first: {failures[0]}")

    units = common.metric_units("per_layer" if args.trace else "end_to_end")
    for name, value in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        raw = f"  measured {measured[name]:.6f}" if name in measured else ""
        print(f"{args.workload:15s} {name:30s} {value:14.6f} {units[name]}{count}{raw}")
    for problem_line in problems:
        print(f"CHECK FAILED: {problem_line}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results_dir = common.OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    timings = ("setup_s", "setup_probe_s", "wall_s", "wall_probe_s", "wall_kinds",
               "fresh_ms", "fresh_probe_s", "repeat_ms", "repeat_probe_s")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=len(passes), samples=samples, measured=measured,
                  problems=problems,
                  pass_timings=[{key: done.get(key) for key in timings} for done in passes],
                  provenance=common.provenance())
    (results_dir / f"{run_name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
