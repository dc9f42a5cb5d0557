"""Topology-grid smoke: cluster *shape* as a sweep dimension.

Regenerates ``topology_grid.json`` (recorded in ``benchmarks/results/``): the
:func:`~repro.harness.figures.generate_topology_grid` grid (apps x topology
presets x protocols at the ``testing`` scale) plus the acceptance numbers of
the topology subsystem:

* on the multi-cluster preset (``myrinet2x8``) the false-sharing scenario
  spends a strictly higher share of its page-transfer latency on
  inter-cluster links than the single-switch baseline (where that share is
  structurally zero);
* the ``locality_aware`` home policy (``java_ic_loc``) re-homes pages into
  the writer's island and strictly reduces that share;
* single-island topologies never count inter-cluster traffic and the
  locality policy is inert on them.

CI runs this file as the topology-grid smoke step of the benchmark job and
uploads the JSON as an artifact.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.figures import TOPOLOGY_PROTOCOLS, generate_topology_grid

GRID_NODES = 8

#: the grid's rows/columns (kept explicit so the recorded JSON is stable)
GRID_APPS = ("jacobi", "tsp", "syn-false-sharing", "syn-migratory")
GRID_TOPOLOGIES = ("myrinet", "myrinet2x8", "myrinet_tree", "sci", "sci_torus", "sci_ring")


@pytest.mark.benchmark(group="topology-grid")
def test_topology_grid(benchmark, bench_session, results_dir):
    """Record the apps x topologies x protocols grid with its traffic split."""

    def run_grid():
        grid = generate_topology_grid(
            apps=GRID_APPS,
            topologies=GRID_TOPOLOGIES,
            protocols=TOPOLOGY_PROTOCOLS,
            num_nodes=GRID_NODES,
            workload="testing",
            session=bench_session,
        )
        return grid, grid.to_dict()

    grid, payload = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    benchmark.extra_info["topology_grid"] = payload
    (results_dir / "topology_grid.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str)
    )

    # every cell of the grid actually ran
    assert set(payload["cells"]) == set(GRID_APPS)
    for app, by_topology in payload["cells"].items():
        assert set(by_topology) == set(GRID_TOPOLOGIES), app
        for by_protocol in by_topology.values():
            assert set(by_protocol) == set(TOPOLOGY_PROTOCOLS)

    # island structure is what the presets promise
    assert payload["topologies"]["myrinet"]["islands"] == 1
    assert payload["topologies"]["myrinet2x8"]["islands"] == 2
    assert payload["topologies"]["myrinet_tree"]["islands"] == 2  # 8 nodes / leaf 4
    assert payload["topologies"]["sci_torus"]["islands"] == 1

    fs = payload["cells"]["syn-false-sharing"]

    # single-switch baseline: the inter-cluster share is structurally zero
    for protocol in TOPOLOGY_PROTOCOLS:
        assert fs["myrinet"][protocol]["inter_cluster_cost_share"] == 0.0
        assert fs["myrinet"][protocol]["inter_cluster_page_fetches"] == 0

    # the multi-cluster grid reports a strictly higher inter-cluster
    # page-transfer cost share than the single-switch baseline ...
    split_share = fs["myrinet2x8"]["java_ic"]["inter_cluster_cost_share"]
    assert split_share > fs["myrinet"]["java_ic"]["inter_cluster_cost_share"]
    assert fs["myrinet2x8"]["java_ic"]["inter_cluster_page_fetches"] > 0

    # ... and locality-aware re-homing strictly reduces it
    loc = fs["myrinet2x8"]["java_ic_loc"]
    assert loc["page_rehomes"] > 0
    assert loc["inter_cluster_cost_share"] < split_share

    # on single-island shapes the locality policy is inert
    for name in ("myrinet", "sci", "sci_torus", "sci_ring"):
        for app in GRID_APPS:
            assert payload["cells"][app][name]["java_ic_loc"]["page_rehomes"] == 0

    # the tree preset's root switch carries inter-island traffic too
    assert fs["myrinet_tree"]["java_ic"]["inter_cluster_cost_share"] > 0.0

    # shape changes pricing: the same protocol runs slower over the backbone
    for app in GRID_APPS:
        flat = payload["cells"][app]["myrinet"]["java_ic"]["execution_seconds"]
        split = payload["cells"][app]["myrinet2x8"]["java_ic"]["execution_seconds"]
        assert split >= flat, app
