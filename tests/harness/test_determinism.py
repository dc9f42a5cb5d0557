"""Determinism under optimization: the fast path must not change results.

The fast-path work (precomputed protocol handlers, presence sets, the
inlined engine loop, trace skipping) is only admissible because
``ExecutionReport.to_dict()`` stays byte-identical.  These tests pin that
contract per application:

* tracing on vs. off (the engine's traced and untraced loops);
* the precomputed ("new") detection handlers vs. the original reference
  ("old") implementations, selected via
  :func:`repro.core.protocol.reference_detection`.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.core.protocol import reference_detection
from repro.harness.figures import FIGURE_APPS
from repro.harness.spec import ExperimentSpec, run_spec
from repro.hyperion.runtime import RuntimeConfig

APPS = sorted(FIGURE_APPS.values())
PROTOCOLS = ("java_ic", "java_pf")
#: the composed extension protocols honour the same contracts as the
#: paper's two (hybrid exercises per-page mode switching, ic_mig the
#: migratory-home wrapper around the detection fast path)
COMPOSED_PROTOCOLS = ("java_hybrid", "java_ic_mig")
#: generated scenarios pinned to the same contract as the paper apps
#: (the full set is covered by tests/scenarios/; these two exercise the
#: barrier-heavy and monitor-heavy interpreter paths here)
SCENARIO_APPS = ("syn-false-sharing", "syn-hot-lock")
#: non-uniform cluster shapes pinned to the same contract: a multi-cluster
#: grid (heterogeneous backbone link) and a torus (hop-dependent pricing)
TOPOLOGY_CLUSTERS = ("myrinet2x8", "sci_torus")
#: the composed protocol family plus the topology-aware home policy
TOPOLOGY_PROTOCOLS = ("java_ic", "java_pf", "java_hybrid", "java_ic_mig", "java_ic_loc")


def _spec(
    app: str,
    protocol: str,
    trace: bool = False,
    cluster: str = "myrinet",
) -> ExperimentSpec:
    return ExperimentSpec(
        app=app,
        cluster=cluster,
        protocol=protocol,
        num_nodes=4,
        workload=WorkloadPreset.testing(),
        config=RuntimeConfig(trace=trace),
    )


def _payload(report) -> str:
    """Canonical byte form of a report (the contract is byte identity)."""
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", APPS)
def test_trace_on_off_identical(app, protocol):
    """The traced engine loop must charge exactly like the untraced one."""
    plain = run_spec(_spec(app, protocol, trace=False))
    traced = run_spec(_spec(app, protocol, trace=True))
    assert _payload(plain) == _payload(traced)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", APPS)
def test_fast_vs_reference_detection_identical(app, protocol):
    """Old (reference) and new (fast) detection produce identical reports."""
    fast = run_spec(_spec(app, protocol))
    with reference_detection():
        reference = run_spec(_spec(app, protocol))
    assert _payload(fast) == _payload(reference)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", SCENARIO_APPS)
def test_scenario_trace_on_off_identical(app, protocol):
    """Generated scenarios honour the traced-vs-untraced contract too."""
    plain = run_spec(_spec(app, protocol, trace=False))
    traced = run_spec(_spec(app, protocol, trace=True))
    assert _payload(plain) == _payload(traced)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", SCENARIO_APPS)
def test_scenario_fast_vs_reference_detection_identical(app, protocol):
    """Old (reference) and new (fast) detection agree on scenario cells."""
    fast = run_spec(_spec(app, protocol))
    with reference_detection():
        reference = run_spec(_spec(app, protocol))
    assert _payload(fast) == _payload(reference)


def test_reference_detection_restores_fast_path():
    """The context manager must put the optimized methods back."""
    from repro.core.detection import InlineCheckDetection

    original = InlineCheckDetection.__dict__["detect_access"]
    with reference_detection():
        assert InlineCheckDetection.__dict__["detect_access"] is not original
    assert InlineCheckDetection.__dict__["detect_access"] is original


@pytest.mark.parametrize("protocol", COMPOSED_PROTOCOLS)
@pytest.mark.parametrize("app", APPS)
def test_composed_trace_on_off_identical(app, protocol):
    """The new composed protocols honour the traced-vs-untraced contract."""
    plain = run_spec(_spec(app, protocol, trace=False))
    traced = run_spec(_spec(app, protocol, trace=True))
    assert _payload(plain) == _payload(traced)


@pytest.mark.parametrize("protocol", COMPOSED_PROTOCOLS)
@pytest.mark.parametrize("app", APPS + list(SCENARIO_APPS))
def test_composed_fast_vs_reference_detection_identical(app, protocol):
    """Fast and reference detection agree for hybrid and migratory homes."""
    fast = run_spec(_spec(app, protocol))
    with reference_detection():
        reference = run_spec(_spec(app, protocol))
    assert _payload(fast) == _payload(reference)


@pytest.mark.parametrize("cluster", TOPOLOGY_CLUSTERS)
@pytest.mark.parametrize("protocol", TOPOLOGY_PROTOCOLS)
def test_topology_trace_on_off_identical(cluster, protocol):
    """Non-uniform topologies honour the traced-vs-untraced contract."""
    for app in ("jacobi", "syn-false-sharing"):
        plain = run_spec(_spec(app, protocol, trace=False, cluster=cluster))
        traced = run_spec(_spec(app, protocol, trace=True, cluster=cluster))
        assert _payload(plain) == _payload(traced), (app, cluster, protocol)


@pytest.mark.parametrize("cluster", TOPOLOGY_CLUSTERS)
@pytest.mark.parametrize("protocol", TOPOLOGY_PROTOCOLS)
def test_topology_fast_vs_reference_detection_identical(cluster, protocol):
    """Fast and reference detection agree on multi-cluster and torus cells."""
    for app in ("jacobi", "syn-false-sharing"):
        fast = run_spec(_spec(app, protocol, cluster=cluster))
        with reference_detection():
            reference = run_spec(_spec(app, protocol, cluster=cluster))
        assert _payload(fast) == _payload(reference), (app, cluster, protocol)


@pytest.mark.parametrize("cluster", TOPOLOGY_CLUSTERS)
def test_topology_runs_are_reproducible(cluster):
    """Same spec on a non-uniform shape: byte-identical reports."""
    first = run_spec(_spec("syn-migratory", "java_ic_loc", cluster=cluster))
    second = run_spec(_spec("syn-migratory", "java_ic_loc", cluster=cluster))
    assert _payload(first) == _payload(second)


def test_hoisted_protocol_fast_vs_reference():
    """The extension protocol honours the same contract as the paper's two."""
    fast = run_spec(_spec("jacobi", "java_ic_hoisted"))
    with reference_detection():
        reference = run_spec(_spec("jacobi", "java_ic_hoisted"))
    assert _payload(fast) == _payload(reference)


def test_run_spec_is_reproducible():
    """Two runs of the same spec agree byte for byte (seeded, pure)."""
    first = run_spec(_spec("asp", "java_pf"))
    second = run_spec(_spec("asp", "java_pf"))
    assert _payload(first) == _payload(second)
    assert first.events_processed == second.events_processed
    assert first.events_processed > 0
