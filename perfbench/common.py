"""Shared pieces of the benchmark: paths, inputs from the seed, digests.

The benchmark lives in ``perfbench/`` and drives the program in ``src/``
through its public API only.  Everything it writes goes under
``.perfbench/`` at the root of the checkout, which git ignores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"
#: untracked output directory (results, scratch stores, server state)
OUT = ROOT / ".perfbench"

WORKLOADS = ("figures-cold", "scenarios-cold", "sweep-served")

#: the grid workloads draw their inputs from this many recorded seeds:
#: ``--seed n`` selects ``n % SEED_POOL``; seed 0 keeps every preset's own
#: RNG seeds, and seed ``SEED_POOL - 1`` is the held-out seed (do not use
#: it while writing a change that claims a gain)
SEED_POOL = 16
HELD_OUT_SEED = SEED_POOL - 1

#: the sweep-served request universe: one request is one pattern on one
#: cluster at three node counts under all four protocols (12 cells); every
#: (pattern, cluster, node triple) is a distinct request and no two share a
#: cell, so each one is fresh the first time a pass sends it
SERVED_APPS = (
    "pi",
    "syn-false-sharing",
    "syn-hot-lock",
    "syn-migratory",
    "syn-producer-consumer",
    "syn-read-mostly",
    "syn-streaming",
    "syn-uniform",
)
SERVED_CLUSTERS = (
    "myrinet",
    "myrinet2x8",
    "myrinet_grid",
    "myrinet_tree",
    "sci",
    "sci_ring",
    "sci_torus",
)
SERVED_NODE_TRIPLES = ((1, 2, 3), (4, 5, 6))
SERVED_PROTOCOLS = ("java_ic", "java_pf", "java_hybrid", "java_ic_mig")
SERVED_WORKLOAD = "testing"


def pool_seed(seed: int) -> int:
    """The recorded input seed a ``--seed`` value selects."""
    return seed % SEED_POOL


def figures_preset(pool: int):
    """The bench preset with barnes' and asp's RNG seeds set from *pool*.

    TSP keeps its preset seed: its branch-and-bound work varies about 2.4x
    with the city layout, so a seeded TSP would make ``wall_s`` measure the
    instance rather than the program.
    """
    from repro.apps.workloads import WorkloadPreset

    preset = WorkloadPreset.bench()
    if pool == 0:
        return preset
    return dataclasses.replace(
        preset,
        barnes=dataclasses.replace(preset.barnes, seed=preset.barnes.seed + 101 * pool),
        asp=dataclasses.replace(preset.asp, seed=preset.asp.seed + 101 * pool),
    )


def scenarios_seed(pool: int) -> int | None:
    """The ``scenario_grid(seed=...)`` value of *pool* (None: pattern defaults)."""
    return None if pool == 0 else pool


def served_universe() -> list[dict]:
    """Every sweep request a sweep-served pass sends, in canonical order."""
    return [
        {
            "apps": [app],
            "clusters": [cluster],
            "nodes": list(triple),
            "protocols": list(SERVED_PROTOCOLS),
            "workload": SERVED_WORKLOAD,
        }
        for app in SERVED_APPS
        for cluster in SERVED_CLUSTERS
        for triple in SERVED_NODE_TRIPLES
    ]


def digest(report_dict: dict) -> str:
    """Digest of one ``ExecutionReport.to_dict()``.

    The dictionary goes through one JSON round trip first, so a report read
    back from the served JSON grid and one produced in-process give the
    same text (integer keys become strings either way).
    """
    canonical = json.loads(json.dumps(report_dict))
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def monotonic_ns() -> int:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def metric_units(section: str) -> dict:
    """Unit of every metric in one section of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def check_checkout() -> str | None:
    """Why the program cannot be benchmarked from here (None when it can)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return "no program sources: src/repro is missing next to perfbench/"
    if not (ROOT / "BENCHMARK.json").is_file():
        return "BENCHMARK.json is missing next to perfbench/"
    for workload in WORKLOADS:
        if not (REFS / f"{workload}.json").is_file():
            return f"missing correctness reference perfbench/refs/{workload}.json"
    return None


def bench_cpu() -> set[int]:
    """The one CPU every measured process runs on.

    Pinning the program and the host-speed probe to the same CPU makes the
    probe measure the CPU the work ran on.
    """
    return {max(os.sched_getaffinity(0))}


def child_env() -> dict:
    """Environment of every program process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def provenance() -> dict:
    """Where a result came from: commit, interpreter, numpy, host shape."""
    commit = "unknown"
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError("not a git checkout")
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# host-speed probe
# ---------------------------------------------------------------------------
#: the probe's nominal duration: timings are reported as if the probes of
#: their pass had taken this long (see :func:`speed_factor`)
PROBE_REFERENCE_S = 0.001
PROBE_ITERATIONS = 2000
#: float64 elements per probe array (3 arrays) and array rounds per probe
PROBE_ARRAY_LEN = 100_000
PROBE_ARRAY_ROUNDS = 3
#: probes on each side of a sample whose median sets the sample's scale
PROBE_WINDOW = 2
#: probes right after a start-up whose median sets its ``setup_s`` scale
SETUP_PROBES = 2 * PROBE_WINDOW + 1


class _ProbeState:
    __slots__ = ("value", "slot")


_PROBE_STATE = _ProbeState()
_PROBE_ARRAYS: list = []


def probe() -> float:
    """Seconds one fixed unit of work takes on this host now.

    The work mixes what the simulator spends its time on: interpreter work
    (dict updates, slot attribute stores, float arithmetic; no allocation,
    so no garbage collection lands in it) and numpy array arithmetic over
    2.4 MB, more than the CPU's own cache holds.  A host that runs the
    program slower runs the probe slower by about as much: the slowdowns of
    this kind of shared host come largely from contention for cache and
    memory, which a cache-resident probe does not feel (see README.md).
    Every timed sample therefore starts after the same cache sweep, in
    every run and for every version of the program.  The arrays stay
    resident once made; :func:`probe_footprint_mb` is what they add to the
    process's RSS.
    """
    import numpy

    if not _PROBE_ARRAYS:
        _PROBE_ARRAYS.extend(numpy.linspace(0.0, 1.0, PROBE_ARRAY_LEN) for _ in range(3))
    left, right, out = _PROBE_ARRAYS
    state = _PROBE_STATE
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + 1
        state.value = i * 0.5
        state.slot = key
        total += state.value / (state.slot + 1)
    for _ in range(PROBE_ARRAY_ROUNDS):
        numpy.multiply(left, right, out=out)
        numpy.add(out, left, out=out)
        total += float(out.sum())
    return time.perf_counter() - started


def probe_footprint_mb() -> float:
    """MB of resident pages the probe's arrays hold in this process (0 before
    the first probe): a measured process subtracts it from its peak RSS."""
    page = resource.getpagesize()
    return sum(-(-array.nbytes // page) * page for array in _PROBE_ARRAYS) / 2**20


def speed_factor(probes: list[float]) -> float:
    """Scale from this host's speed to the reference: reference / median probe."""
    return PROBE_REFERENCE_S / statistics.median(probes) if probes else 1.0


def speed_factors(probes: list[float]) -> list[float]:
    """One scale per sample, from the median of the probes around it."""
    return [
        speed_factor(probes[max(0, index - PROBE_WINDOW): index + PROBE_WINDOW + 1])
        for index in range(len(probes))
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def emit(payload: dict) -> None:
    """Write one JSON line on stdout and flush it."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
