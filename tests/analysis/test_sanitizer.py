"""The consistency sanitizer: clean protocols stay clean, broken ones don't.

Three pillars:

* **sanitizer-clean pins** — every golden scenario cell and the full
  protocol x app/topology matrix report zero protocol violations (with
  non-trivial counters, so a silent no-op sanitizer cannot pass);
* **fault injection** — the deliberately broken ``java_broken_inval``
  protocol (acquire-side invalidation elided) must be caught;
* **byte contract** — running with the sanitizer on leaves
  ``ExecutionReport.to_dict()`` byte-identical to a plain run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.faults import BrokenInvalidationDetection
from repro.analysis.sanitizer import VIOLATION_KINDS
from repro.apps.workloads import WorkloadPreset
from repro.core.protocol import register_composed, unregister_protocol
from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.store import ResultStore
from repro.hyperion.runtime import RuntimeConfig

GOLDEN_PATH = Path(__file__).parent.parent / "scenarios" / "golden_cells.json"

SHIPPED_PROTOCOLS = (
    "java_ic",
    "java_pf",
    "java_ic_hoisted",
    "java_hybrid",
    "java_ic_mig",
    "java_ic_loc",
)


def _spec(
    app: str,
    protocol: str,
    cluster: str = "myrinet",
    num_nodes: int = 4,
    sanitize: bool = True,
) -> ExperimentSpec:
    return ExperimentSpec(
        app=app,
        cluster=cluster,
        protocol=protocol,
        num_nodes=num_nodes,
        workload=WorkloadPreset.testing(),
        config=RuntimeConfig(),
        sanitize=sanitize,
    )


def _payload(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# sanitizer-clean pins
# ---------------------------------------------------------------------------
def _golden_cells():
    golden = json.loads(GOLDEN_PATH.read_text())
    for key, payload in golden.items():
        app = key.split("@", 1)[0]
        yield pytest.param(
            app, payload["cluster"], payload["protocol"], payload["num_nodes"], id=key
        )


@pytest.mark.parametrize("app,cluster,protocol,num_nodes", list(_golden_cells()))
def test_golden_cells_are_sanitizer_clean(app, cluster, protocol, num_nodes):
    spec = ExperimentSpec(
        app=app,
        cluster=cluster,
        protocol=protocol,
        num_nodes=num_nodes,
        workload="testing",
        sanitize=True,
    )
    sanitizer = run_spec(spec).sanitizer
    assert sanitizer is not None
    assert sanitizer.clean, [f.detail for f in sanitizer.violations]
    # a clean report must prove it actually checked something
    assert sanitizer.counters["accesses_checked"] > 0


@pytest.mark.parametrize("protocol", SHIPPED_PROTOCOLS)
@pytest.mark.parametrize("app", ["jacobi", "tsp", "syn-hot-lock"])
def test_shipped_protocols_are_sanitizer_clean(app, protocol):
    sanitizer = run_spec(_spec(app, protocol)).sanitizer
    assert sanitizer.clean, [f.detail for f in sanitizer.violations]
    assert sanitizer.counters["accesses_checked"] > 0
    assert sanitizer.counters["sync_events"] > 0


@pytest.mark.parametrize("cluster", ["myrinet2x8", "sci_torus"])
@pytest.mark.parametrize(
    "protocol", ["java_ic", "java_pf", "java_hybrid", "java_ic_mig", "java_ic_loc"]
)
def test_topology_cells_are_sanitizer_clean(cluster, protocol):
    sanitizer = run_spec(_spec("jacobi", protocol, cluster=cluster)).sanitizer
    assert sanitizer.clean, [f.detail for f in sanitizer.violations]
    assert sanitizer.counters["structural_scans"] > 0


def test_racy_workload_reports_races_but_stays_clean():
    """syn-uniform's unsynchronised writes are JLS-legal application races:
    diagnosed, but never counted as protocol violations."""
    sanitizer = run_spec(_spec("syn-uniform", "java_ic")).sanitizer
    assert sanitizer.clean
    assert sanitizer.races, "syn-uniform's deliberate races went undiagnosed"
    assert all(f.kind == "data_race" for f in sanitizer.races)
    assert all(f.kind not in VIOLATION_KINDS for f in sanitizer.races)


# ---------------------------------------------------------------------------
# fault injection: the sanitizer must catch a broken protocol
# ---------------------------------------------------------------------------
@pytest.fixture
def broken_protocol():
    register_composed("java_broken_inval", BrokenInvalidationDetection)
    try:
        yield "java_broken_inval"
    finally:
        unregister_protocol("java_broken_inval")


def test_broken_invalidation_is_caught(broken_protocol):
    sanitizer = run_spec(_spec("syn-hot-lock", broken_protocol)).sanitizer
    assert not sanitizer.clean
    kinds = {f.kind for f in sanitizer.violations}
    assert kinds <= set(VIOLATION_KINDS)
    assert kinds & {"stale_read", "invalidation_incomplete"}


def test_broken_invalidation_caught_on_paper_benchmark(broken_protocol):
    sanitizer = run_spec(_spec("jacobi", broken_protocol)).sanitizer
    assert not sanitizer.clean
    assert any(f.kind == "stale_read" for f in sanitizer.violations)


# ---------------------------------------------------------------------------
# byte contract and determinism
# ---------------------------------------------------------------------------
def test_sanitize_leaves_report_byte_identical():
    plain = run_spec(_spec("jacobi", "java_ic", sanitize=False))
    sanitized = run_spec(_spec("jacobi", "java_ic", sanitize=True))
    assert plain.sanitizer is None
    assert sanitized.sanitizer is not None
    assert _payload(plain) == _payload(sanitized)


def test_sanitizer_report_is_deterministic():
    first = run_spec(_spec("syn-uniform", "java_pf")).sanitizer
    second = run_spec(_spec("syn-uniform", "java_pf")).sanitizer
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_sanitize_is_not_part_of_cell_identity():
    assert _spec("jacobi", "java_ic", sanitize=True) == _spec(
        "jacobi", "java_ic", sanitize=False
    )
    assert _spec("jacobi", "java_ic", sanitize=True).cache_key() == _spec(
        "jacobi", "java_ic", sanitize=False
    ).cache_key()


# ---------------------------------------------------------------------------
# harness integration
# ---------------------------------------------------------------------------
def test_session_never_serves_sanitize_from_cache(tmp_path):
    """A cached plain cell must not satisfy a sanitizing spec: cached
    payloads carry no sanitizer report."""
    session = Session(store=ResultStore(str(tmp_path)))
    plain = _spec("jacobi", "java_ic", sanitize=False)
    session.run_one(plain)  # warm the cache
    result = session.run([dataclasses.replace(plain, sanitize=True)])
    assert result.cache_hits == 0 and result.executed == 1
    assert result[plain].sanitizer is not None


def test_sweep_collects_sanitizer_reports():
    result = Session().ablation(
        "check_cost",
        "jacobi",
        num_nodes=2,
        values=(2.0, 8.0),
        workload=WorkloadPreset.testing(),
        sanitize=True,
    )
    assert set(result.sanitizers) == set(result.times)
    assert all(report.clean for report in result.sanitizers.values())


def test_cli_run_writes_sanitizer_report(tmp_path, capsys):
    from repro.harness.cli import main

    out_path = tmp_path / "sanitizer.json"
    code = main(
        [
            "run",
            "jacobi",
            "--protocol",
            "java_ic",
            "--nodes",
            "2",
            "--scale",
            "testing",
            "--sanitize-out",
            str(out_path),
        ]
    )
    assert code == 0
    assert "sanitizer: clean" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["clean"] is True
    assert payload["counters"]["accesses_checked"] > 0
