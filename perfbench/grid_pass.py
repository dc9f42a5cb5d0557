"""One phase of a grid-workload pass in a fresh interpreter (run.py starts it).

    python3 perfbench/grid_pass.py --phase cold --workload figures-cold \\
        --pool 3 --trace 0 --spawned-ns <monotonic ns> --store <dir>

``--phase cold`` is the timed cold pass: ``Session().figures()`` at the
bench preset or ``Session().scenario_grid(workload="paper")``, serial, no
result store.  The only benchmark hook in it is the executor, which runs
each cell through ``run_spec`` exactly like ``SerialExecutor`` and reads
the clock around it.  After the timing (untraced runs only) the cells are
written to the result store at ``--store``.

``--phase warm`` is a later process regenerating the same grid with that
store, as a user's second run with ``--cache-dir`` does: every cell is a
repeat request, served by one ``ResultStore.get``, which is timed.  Both
phases report their start-up time, from spawn until the program is
imported, with the probes that follow it.

Every cell's ``to_dict()`` digest is checked against the recorded
reference.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import common

sys.path.insert(0, str(common.SRC))


class TimedSerialExecutor:
    """``SerialExecutor`` plus a wall-clock reading around each cell.

    With ``probe`` set, the host-speed probe runs before each cell, outside
    the cell's own timing.
    """

    def __init__(self, probe: bool):
        self.probe = probe
        self.cell_seconds: list[float] = []
        self.probe_seconds: list[float] = []

    def execute(self, specs):
        from repro.harness import spec as spec_module

        reports = []
        for spec in specs:
            if self.probe:
                self.probe_seconds.append(common.probe())
            started = time.perf_counter()
            reports.append(spec_module.run_spec(spec))
            self.cell_seconds.append(time.perf_counter() - started)
        return reports


def timed_store(root):
    """A ``ResultStore`` whose ``get`` is timed, with a probe before each."""
    from repro.harness.store import ResultStore

    class TimedStore(ResultStore):
        def __init__(self, path):
            super().__init__(path)
            self.get_seconds: list[float] = []
            self.probe_seconds: list[float] = []

        def get(self, spec):
            self.probe_seconds.append(common.probe())
            started = time.perf_counter()
            report = super().get(spec)
            self.get_seconds.append(time.perf_counter() - started)
            return report

    return TimedStore(root)


def _grid(workload: str, pool: int, session) -> list:
    """Run the workload's grid through *session*; return its cells."""
    if workload == "figures-cold":
        result = session.figures(workload=common.figures_preset(pool))
        return [cell for number in sorted(result) for cell in result[number].cells]
    return list(session.scenario_grid(workload="paper", seed=common.scenarios_seed(pool)).cells)


def _check(workload: str, pool: int, cells: list) -> tuple[dict, list, dict]:
    """Digests of *cells*, the labels that differ from the reference, counts."""
    references = common.load_refs(workload)["seeds"][str(pool)]
    digests = {}
    failed = []
    counts = {"accesses": 0, "page_faults": 0, "page_fetches": 0}
    for cell in cells:
        report_dict = cell.report.to_dict()
        label = cell.label()
        digests[label] = common.digest(report_dict)
        if references.get(label) != digests[label]:
            failed.append(label)
        for name in counts:
            counts[name] += int(report_dict[name])
    failed.extend(sorted(set(references) - set(digests)))
    return digests, failed, counts


def cold(args) -> dict:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(time.perf_counter_ns)
        tracing.install(tracer)
    from repro import Session

    executor = TimedSerialExecutor(probe=tracer is None)
    session = Session(executor=executor)
    setup_s = (common.monotonic_ns() - args.spawned_ns) / 1e9

    if tracer is not None:
        tracer.start()
    started = time.perf_counter()
    cells = _grid(args.workload, args.pool, session)
    wall_s = time.perf_counter() - started
    balanced = tracer.stop() if tracer is not None else True
    # the probe's arrays are the benchmark's, not the program's
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - common.probe_footprint_mb()
    )

    digests, failed, counts = _check(args.workload, args.pool, cells)
    if tracer is None:
        from repro.harness.store import ResultStore

        store = ResultStore(args.store)
        for cell in cells:
            store.put(cell.spec, cell.report)
    return {
        "setup_s": [setup_s],
        "setup_probe_s": [executor.probe_seconds[: common.SETUP_PROBES]],
        "wall_s": wall_s,
        "wall_probe_s": sum(executor.probe_seconds),
        "peak_rss_mb": peak_rss_mb,
        "fresh_ms": [seconds * 1000.0 for seconds in executor.cell_seconds],
        "fresh_probe_s": executor.probe_seconds,
        # the samples whose round trips make up the timed pass
        "wall_kinds": ["fresh"],
        "cells": len(set(digests) | set(failed)),
        "failed": failed,
        "digests": digests,
        "counts": counts,
        "trace": tracer.summary() if tracer is not None else None,
        "balanced": balanced,
    }


def warm(args) -> dict:
    from repro import Session

    setup_s = (common.monotonic_ns() - args.spawned_ns) / 1e9
    store = timed_store(args.store)
    cells = _grid(args.workload, args.pool, Session(store=store))
    _, failed, _ = _check(args.workload, args.pool, cells)
    failed.extend(cell.label() for cell in cells if not cell.cached)
    return {
        "setup_s": [setup_s],
        "setup_probe_s": [store.probe_seconds[: common.SETUP_PROBES]],
        "repeat_ms": [seconds * 1000.0 for seconds in store.get_seconds],
        "repeat_probe_s": store.probe_seconds,
        "repeats": len(cells),
        "repeat_failed": failed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", required=True, choices=("cold", "warm"))
    parser.add_argument("--workload", required=True, choices=("figures-cold", "scenarios-cold"))
    parser.add_argument("--pool", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-ns", type=int, default=0)
    parser.add_argument("--store", required=True)
    args = parser.parse_args()
    common.emit(cold(args) if args.phase == "cold" else warm(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
