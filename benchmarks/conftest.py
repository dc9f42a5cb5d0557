"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation) at the ``bench`` workload scale and records the reproduced series
in ``benchmark.extra_info`` so that ``pytest --benchmark-json`` dumps carry
the actual figure data, not just the simulator's wall-clock time.

All simulations route through one serial, storeless
:class:`repro.harness.session.Session` (the ``bench_session`` fixture), so
every timed number is a fresh simulation.

Regenerated results land in the git-ignored ``.benchmarks/results/`` at the
repository root, never in the committed ``benchmarks/results/``: those files
are the recorded reference copies (and the throughput floors CI gates
against).  Recording a new reference is a deliberate copy from one
directory to the other.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.session import Session

try:  # the whole directory depends on the pytest-benchmark plugin
    import pytest_benchmark  # noqa: F401
except ImportError:  # pragma: no cover - exercised only in minimal installs
    collect_ignore_glob = ["test_*.py"]

#: where a benchmark run writes what it regenerates (git-ignored)
RESULTS_DIR = Path(__file__).resolve().parent.parent / ".benchmarks" / "results"

#: node counts used for the figure grids (kept modest so the whole benchmark
#: suite runs in a couple of minutes; the CLI can produce the full grids)
FIGURE_NODE_COUNTS = {"myrinet": (1, 2, 4, 8, 12), "sci": (1, 2, 4, 6)}


@pytest.fixture(scope="session")
def bench_preset() -> WorkloadPreset:
    """The bench workload preset (scaled sizes, paper-equivalent multipliers)."""
    return WorkloadPreset.bench()


@pytest.fixture(scope="session")
def bench_session() -> Session:
    """The session every benchmark's simulations route through."""
    return Session()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmarks drop their regenerated figure data."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def record_figure(benchmark, figure_data, results_dir: Path) -> None:
    """Attach a figure's series to the benchmark record and save it as JSON."""
    payload = figure_data.to_dict()
    benchmark.extra_info["figure"] = payload
    path = results_dir / f"figure{figure_data.number}_{figure_data.app}.json"
    path.write_text(json.dumps(payload, indent=2))
