"""Record the correctness references the benchmark checks every cell against.

    python3 perfbench/record.py                  # all three workloads
    python3 perfbench/record.py --workload sweep-served

For each grid workload it runs the grid once per recorded input seed (see
``common.SEED_POOL``), each in a fresh interpreter, and stores every cell's
``ExecutionReport.to_dict()`` digest keyed by cell label.  For sweep-served
it runs every cell of the request universe once, serially.  The files land
in ``perfbench/refs/``.  Re-record only when a change is *meant* to alter
simulated results; a pure speed change must leave them valid.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import common

sys.path.insert(0, str(common.SRC))


def grid_digests(workload: str, pool: int) -> dict:
    from repro import Session

    if workload == "figures-cold":
        result = Session().figures(workload=common.figures_preset(pool))
        cells = [cell for number in sorted(result) for cell in result[number].cells]
    else:
        result = Session().scenario_grid(workload="paper", seed=common.scenarios_seed(pool))
        cells = result.cells
    return {cell.label(): common.digest(cell.report.to_dict()) for cell in cells}


def served_digests() -> dict:
    from repro import ExperimentMatrix, Session

    digests = {}
    for request in common.served_universe():
        matrix = (
            ExperimentMatrix()
            .apps(*request["apps"])
            .clusters(*request["clusters"])
            .protocols(*request["protocols"])
            .nodes(*request["nodes"])
            .workload(request["workload"])
        )
        result = Session().run(matrix)
        for label, report in result.to_dict().items():
            digests[label] = common.digest(report)
    return digests


def _record_grid(workload: str) -> dict:
    def one(pool: int) -> tuple[int, dict, float]:
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--one", str(pool)],
            capture_output=True,
            text=True,
            env=common.child_env(),
            check=True,
        )
        return pool, json.loads(done.stdout.strip().splitlines()[-1]), time.perf_counter() - started

    seeds = {}
    # one recording process per CPU this process may use
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool_runner:
        for pool, digests, seconds in pool_runner.map(one, range(common.SEED_POOL)):
            print(f"{workload} seed {pool}: {len(digests)} cells in {seconds:.1f} s", file=sys.stderr)
            seeds[str(pool)] = digests
    return {
        "workload": workload,
        "seed_pool": common.SEED_POOL,
        "held_out_seed": common.HELD_OUT_SEED,
        "seeds": seeds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--one", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one is not None:
        common.emit(grid_digests(args.workload, args.one))
        return 0
    common.REFS.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else common.WORKLOADS:
        if workload == "sweep-served":
            payload = {"workload": workload, "cells": served_digests()}
        else:
            payload = _record_grid(workload)
        payload["provenance"] = common.provenance()
        with open(common.REFS / f"{workload}.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded perfbench/refs/{workload}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
