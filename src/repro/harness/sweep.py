"""Parameter sweeps backing the ablation experiments (A1-A4 in DESIGN.md).

Each ablation is a small experiment grid — {swept values} x {protocols} —
described declaratively by an :class:`Ablation` entry in :data:`ABLATIONS`
and executed through :meth:`repro.harness.session.Session.sweep` /
:meth:`~repro.harness.session.Session.ablation`, so sweeps share the
executor parallelism, the result cache and the :class:`CellResult` shape
with the rest of the harness.  Adding a new ablation is one ``Ablation``
entry describing how the swept value maps onto a config or cluster override.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.harness.session import CellResult
from repro.harness.spec import ExperimentSpec, resolve_cluster
from repro.hyperion.runtime import RuntimeConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import SanitizerReport


@dataclass
class SweepResult:
    """Execution times of one sweep, per protocol and parameter value."""

    parameter: str
    values: list[object]
    times: dict[tuple[str, object], float] = field(default_factory=dict)
    #: per-cell sanitizer reports, populated only when the sweep ran with
    #: ``sanitize=True`` (same ``(protocol, value)`` keys as ``times``)
    sanitizers: dict[tuple[str, object], "SanitizerReport"] = field(
        default_factory=dict
    )
    #: every cell of the sweep as the harness-wide common record, in
    #: (value-major, protocol-minor) grid order
    cells: list[CellResult] = field(default_factory=list)

    def series(self, protocol: str) -> list[tuple[object, float]]:
        """(value, seconds) series for one protocol."""
        return [(v, self.times[(protocol, v)]) for v in self.values]

    def crossover(self, first: str = "java_ic", second: str = "java_pf") -> object | None:
        """First swept value at which *first* becomes faster than *second*."""
        for value in self.values:
            if self.times[(first, value)] < self.times[(second, value)]:
                return value
        return None

    def to_dict(self) -> dict:
        """JSON-friendly form: the swept axis plus one entry per cell."""
        return {
            "parameter": self.parameter,
            "values": [repr(v) if isinstance(v, tuple) else v for v in self.values],
            "series": {
                protocol: [[value, seconds] for value, seconds in self.series(protocol)]
                for protocol in sorted({p for p, _ in self.times})
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def render(self) -> str:
        """Text table of the sweep."""
        protocols = sorted({p for p, _ in self.times})
        lines = [f"sweep over {self.parameter}", ""]
        header = [self.parameter] + protocols
        lines.append("".join(str(h).rjust(14) for h in header))
        for value in self.values:
            row = [str(value)] + [f"{self.times[(p, value)]:.4f}" for p in protocols]
            lines.append("".join(cell.rjust(14) for cell in row))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the ablation registry
# ---------------------------------------------------------------------------
#: builds the (value, protocol) -> spec closure of one ablation
SpecBuilder = Callable[[str, object, int, object], Callable[[object, str], ExperimentSpec]]


@dataclass(frozen=True)
class Ablation:
    """Declarative description of one named parameter sweep."""

    kind: str
    #: the swept parameter's display name (``SweepResult.parameter``)
    parameter: str
    #: the grid swept when the caller passes no explicit values
    default_values: tuple
    #: scalar type of a swept value (the CLI parses ``--values`` with it)
    value_type: type
    description: str
    #: (app, cluster, num_nodes, workload) -> make_spec(value, protocol)
    builder: SpecBuilder

    def make_spec(
        self, app: str, cluster, num_nodes: int, workload
    ) -> Callable[[object, str], ExperimentSpec]:
        """The ``make_spec(value, protocol)`` closure for one sweep run."""
        return self.builder(app, resolve_cluster(cluster), num_nodes, workload)


def _page_size_builder(app, cluster, num_nodes, workload):
    def make_spec(page_size, protocol) -> ExperimentSpec:
        return ExperimentSpec(
            app=app,
            cluster=cluster,
            protocol=protocol,
            num_nodes=num_nodes,
            workload=workload,
            config=RuntimeConfig(protocol=protocol, page_size=page_size),
        )

    return make_spec


def _check_cost_builder(app, cluster, num_nodes, workload):
    def make_spec(cycles, protocol) -> ExperimentSpec:
        return ExperimentSpec(
            app=app,
            cluster=cluster.with_software(inline_check_cycles=cycles),
            protocol=protocol,
            num_nodes=num_nodes,
            workload=workload,
        )

    return make_spec


def _threads_builder(app, cluster, num_nodes, workload):
    def make_spec(tpn, protocol) -> ExperimentSpec:
        return ExperimentSpec(
            app=app,
            cluster=cluster,
            protocol=protocol,
            num_nodes=num_nodes,
            workload=workload,
            config=RuntimeConfig(protocol=protocol, threads_per_node=tpn),
        )

    return make_spec


def _balancer_builder(app, cluster, num_nodes, workload):
    def make_spec(policy, protocol) -> ExperimentSpec:
        return ExperimentSpec(
            app=app,
            cluster=cluster,
            protocol=protocol,
            num_nodes=num_nodes,
            workload=workload,
            config=RuntimeConfig(protocol=protocol, balancer=policy),
        )

    return make_spec


#: kind -> declarative sweep description, as exposed by ``Session.ablation``
#: and the ``hyperion-sim sweep`` subcommand
ABLATIONS: dict[str, Ablation] = {
    "page_size": Ablation(
        kind="page_size",
        parameter="page_size",
        default_values=(1024, 2048, 4096, 8192, 16384),
        value_type=int,
        description="A1: effect of the DSM page size (granularity / pre-fetching trade-off)",
        builder=_page_size_builder,
    ),
    "check_cost": Ablation(
        kind="check_cost",
        parameter="inline_check_cycles",
        default_values=(2.0, 4.0, 8.0, 16.0, 32.0),
        value_type=float,
        description="A2: how expensive must the in-line check be for java_pf to win?",
        builder=_check_cost_builder,
    ),
    "threads": Ablation(
        kind="threads",
        parameter="threads_per_node",
        default_values=(1, 2, 4),
        value_type=int,
        description="A3: more than one application thread per node (paper future work)",
        builder=_threads_builder,
    ),
    "balancer": Ablation(
        kind="balancer",
        parameter="balancer",
        default_values=("round_robin", "block", "random"),
        value_type=str,
        description="A4: thread-placement policy of the load balancer",
        builder=_balancer_builder,
    ),
}


def ablation_by_name(kind: str) -> Ablation:
    """Look up one :data:`ABLATIONS` entry, with a helpful error."""
    try:
        return ABLATIONS[kind]
    except KeyError:
        raise KeyError(
            f"unknown ablation {kind!r}; available: {', '.join(sorted(ABLATIONS))}"
        ) from None
