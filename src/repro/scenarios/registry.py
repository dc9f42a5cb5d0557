"""Pattern registry: scenarios as first-class, registered applications.

Each :class:`ScenarioPattern` bundles a generator with its workload class
and registers a dedicated :class:`~repro.scenarios.runner.SyntheticApplication`
subclass under ``syn-<pattern>`` in the ordinary application registry.  From
that point on the harness cannot tell a generated scenario from a paper
benchmark: ``available_apps()`` lists it, ``ExperimentSpec``/``Session.cell``
run it, the result store caches it and ``ExperimentMatrix`` grids over it.

The public helpers (:func:`available_scenarios`, :func:`scenario_workload`,
:func:`scenario_parameters`) are what the CLI's ``scenario`` subcommand and
``describe`` section are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from collections.abc import Callable

from repro.apps.base import register_app
from repro.scenarios.patterns import (
    FalseSharingWorkload,
    HotLockWorkload,
    MigratoryWorkload,
    ProducerConsumerWorkload,
    ReadMostlyWorkload,
    ScenarioWorkload,
    StreamingWorkload,
    UniformWorkload,
    generate_false_sharing,
    generate_hot_lock,
    generate_migratory,
    generate_producer_consumer,
    generate_read_mostly,
    generate_streaming,
    generate_uniform,
)
from repro.scenarios.runner import SyntheticApplication
from repro.scenarios.script import AccessScript

#: registry-name prefix distinguishing scenarios from the paper benchmarks
SCENARIO_PREFIX = "syn-"


@dataclass(frozen=True)
class ScenarioPattern:
    """One registered sharing pattern."""

    #: short pattern key ("false-sharing", "migratory", ...)
    key: str
    #: the frozen workload dataclass parameterising the generator
    workload_cls: type[ScenarioWorkload]
    #: ``generate(workload, num_threads, num_nodes) -> AccessScript``
    generate: Callable[[ScenarioWorkload, int, int], AccessScript]
    #: one-line description for ``describe`` / ``scenario list``
    description: str

    @property
    def app_name(self) -> str:
        """Application-registry name (``syn-<key>``)."""
        return SCENARIO_PREFIX + self.key


_PATTERNS: dict[str, ScenarioPattern] = {}


def register_pattern(pattern: ScenarioPattern) -> type[SyntheticApplication]:
    """Register *pattern* and its application class; returns the class."""
    if pattern.key in _PATTERNS:
        raise ValueError(f"scenario pattern {pattern.key!r} is already registered")
    _PATTERNS[pattern.key] = pattern
    camel = "".join(part.capitalize() for part in pattern.key.split("-"))
    app_cls = type(
        f"Synthetic{camel}Application",
        (SyntheticApplication,),
        {
            "name": pattern.app_name,
            "pattern": pattern,
            "__doc__": pattern.description,
        },
    )
    return register_app(app_cls)


def _normalise(name: str) -> str:
    key = name.lower()
    if key.startswith(SCENARIO_PREFIX):
        key = key[len(SCENARIO_PREFIX):]
    return key


def get_pattern(name: str) -> ScenarioPattern:
    """Look a pattern up by key or registry name (``migratory``/``syn-migratory``)."""
    try:
        return _PATTERNS[_normalise(name)]
    except KeyError:
        known = ", ".join(sorted(_PATTERNS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def available_scenarios() -> list[str]:
    """Registry names of all scenarios (``syn-*``), sorted."""
    return sorted(p.app_name for p in _PATTERNS.values())


def scenario_patterns() -> dict[str, ScenarioPattern]:
    """All registered patterns keyed by pattern key (copy)."""
    return dict(_PATTERNS)


def scenario_workload(name: str, scale: str = "bench", **overrides) -> ScenarioWorkload:
    """Build a scenario workload at *scale* with field overrides applied.

    Overrides are validated twice: unknown names are rejected here with the
    pattern's own field list, and values re-run the dataclass's
    ``__post_init__`` checks through :func:`dataclasses.replace`.
    """
    pattern = get_pattern(name)
    workload = pattern.workload_cls.for_scale(scale)
    if overrides:
        known = {f.name for f in fields(pattern.workload_cls)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise KeyError(
                f"scenario {pattern.app_name!r} has no parameter(s) "
                f"{', '.join(unknown)}; known: {', '.join(sorted(known))}"
            )
        workload = replace(workload, **overrides)
    return workload


def scenario_parameters(name: str) -> dict[str, object]:
    """Parameter names and bench-scale defaults of one pattern."""
    pattern = get_pattern(name)
    bench = pattern.workload_cls.bench()
    return {f.name: getattr(bench, f.name) for f in fields(pattern.workload_cls)}


# ---------------------------------------------------------------------------
# the built-in pattern library
# ---------------------------------------------------------------------------
register_pattern(
    ScenarioPattern(
        key="read-mostly",
        workload_cls=ReadMostlyWorkload,
        generate=generate_read_mostly,
        description="shared tables read from every node, rarely written",
    )
)
register_pattern(
    ScenarioPattern(
        key="producer-consumer",
        workload_cls=ProducerConsumerWorkload,
        generate=generate_producer_consumer,
        description="lock-protected bounded-buffer hand-off between thread halves",
    )
)
register_pattern(
    ScenarioPattern(
        key="migratory",
        workload_cls=MigratoryWorkload,
        generate=generate_migratory,
        description="exclusive read-modify-write ownership rotating each phase",
    )
)
register_pattern(
    ScenarioPattern(
        key="false-sharing",
        workload_cls=FalseSharingWorkload,
        generate=generate_false_sharing,
        description="distinct per-thread fields packed onto one DSM page",
    )
)
register_pattern(
    ScenarioPattern(
        key="hot-lock",
        workload_cls=HotLockWorkload,
        generate=generate_hot_lock,
        description="every thread contending on one monitor around a tiny critical section",
    )
)
register_pattern(
    ScenarioPattern(
        key="uniform",
        workload_cls=UniformWorkload,
        generate=generate_uniform,
        description="uniform all-to-all accesses over one page-aligned array per node",
    )
)
register_pattern(
    ScenarioPattern(
        key="streaming",
        workload_cls=StreamingWorkload,
        generate=generate_streaming,
        description="chunked sequential array scans emitted as pre-grouped access runs",
    )
)
