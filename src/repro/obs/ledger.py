"""The run ledger: one versioned telemetry artifact per executed cell.

:class:`TelemetryCollector` is what a :class:`~repro.hyperion.runtime.
HyperionRuntime` carries when the spec opts into telemetry.  It owns the
cell's :class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.spans.SpanTracer` plus three tiny duck-typed
*instruments* the hot layers call without importing this package:

* the engine calls ``metrics.record_event(kind, depth)`` per dispatched
  event (the no-telemetry fast path is untouched);
* the page manager calls ``telemetry.observe_fetch(...)`` per fetch group
  with the virtual round-trip latency;
* the monitor manager calls ``telemetry.observe_acquire(...)`` with the
  virtual time spent blocked on a lock acquire.

Everything else — per-node fault/fetch/busy counters, island crossings,
monitor/thread totals — is snapshotted once at :meth:`finalize` from the
:class:`~repro.core.stats.RunStats` the run already maintains, so the
simulation pays nothing for those families.

:class:`RunTelemetry` is the resulting artifact: metrics + spans + host
numbers (shaped by :class:`~repro.perf.profiler.CellProfile`) + an
optional trace summary, versioned and JSON-round-trippable.  It rides on
``ExecutionReport.telemetry`` — a host-side field like
``events_processed`` — and is persisted by the result store *next to*
(never inside) the pinned report entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.obs.spans import DEFAULT_MAX_SPANS, SpanTracer
from repro.perf.clock import host_clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.spec import ExperimentSpec
    from repro.hyperion.runtime import ExecutionReport, HyperionRuntime

__all__ = [
    "RunTelemetry",
    "TelemetryCollector",
    "TELEMETRY_VERSION",
    "phase_table",
]

TELEMETRY_VERSION = 1


class EngineInstrument:
    """Per-event hook the engine calls on its (telemetry-only) slow path.

    An event costs one plain dict update and one comparison: counts by
    kind and the peak depth accumulate here and reach the registry's
    families in :meth:`publish`, which :meth:`TelemetryCollector.finalize`
    calls before it exports the metrics.
    """

    __slots__ = ("events", "queue_depth", "_counts", "_peak")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.events = registry.counter(
            "sim_events_dispatched_total", "Simulation events dispatched by kind."
        )
        self.queue_depth = registry.gauge(
            "sim_event_queue_depth_peak", "Peak pending-event queue depth."
        )
        self._counts: dict[str, int] = {}
        self._peak = -1

    def record_event(self, kind: str, depth: int) -> None:
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if depth > self._peak:
            self._peak = depth

    def publish(self) -> None:
        """Fold the events recorded since the last publish into the registry."""
        for kind, count in self._counts.items():
            self.events.inc(count, kind=kind)
        if self._peak >= 0:
            self.queue_depth.set_max(self._peak)
        self._counts = {}
        self._peak = -1


class DsmInstrument:
    """Inline DSM hook: virtual-time page-fetch latency by island scope."""

    __slots__ = ("fetch_latency",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self.fetch_latency = registry.histogram(
            "dsm_fetch_latency_virtual_seconds",
            "Virtual round-trip latency of page-fetch groups by island scope.",
            DEFAULT_LATENCY_BUCKETS,
        )

    def observe_fetch(
        self, intra_island: bool, latency: float, pages: int, nbytes: int
    ) -> None:
        self.fetch_latency.observe(
            latency, scope="intra" if intra_island else "inter"
        )


class MonitorInstrument:
    """Inline monitor hook: virtual time blocked acquiring a monitor lock."""

    __slots__ = ("acquire_latency",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self.acquire_latency = registry.histogram(
            "monitor_acquire_virtual_seconds",
            "Virtual time spent blocked acquiring a monitor lock.",
            DEFAULT_LATENCY_BUCKETS,
        )

    def observe_acquire(self, latency: float, contended: bool) -> None:
        self.acquire_latency.observe(
            latency, contended="true" if contended else "false"
        )


class TelemetryCollector:
    """Everything one telemetry-enabled runtime records, pre-finalize."""

    __slots__ = (
        "registry",
        "spans",
        "engine_instrument",
        "dsm_instrument",
        "monitor_instrument",
        "host_stages",
        "_epoch",
    )

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanTracer(max_spans)
        self.engine_instrument = EngineInstrument(self.registry)
        self.dsm_instrument = DsmInstrument(self.registry)
        self.monitor_instrument = MonitorInstrument(self.registry)
        self.host_stages: list[dict] = []
        self._epoch = host_clock()

    def attach(self, runtime: "HyperionRuntime") -> None:
        """Point the hot layers' telemetry hooks at this collector."""
        runtime.engine.metrics = self.engine_instrument
        runtime.page_manager.telemetry = self.dsm_instrument
        runtime.monitors.telemetry = self.monitor_instrument

    # ------------------------------------------------------------------
    def note_stage(self, name: str, seconds: float) -> None:
        """Record a duration-only harness stage (no epoch-relative span)."""
        self.host_stages.append({"name": name, "seconds": seconds})

    def begin_stage(self, name: str) -> float:
        return host_clock()

    def end_stage(self, name: str, started: float) -> None:
        now = host_clock()
        self.host_stages.append(
            {
                "name": name,
                "start": started - self._epoch,
                "end": now - self._epoch,
                "seconds": now - started,
            }
        )

    # ------------------------------------------------------------------
    def _snapshot_stats(self, report: "ExecutionReport") -> None:
        """Fold the run's existing counters into metric families."""
        registry = self.registry
        stats = report.stats
        dsm = stats.dsm

        registry.gauge(
            "sim_virtual_seconds", "Virtual seconds the simulated execution took."
        ).set(stats.execution_seconds)

        # The ``node`` label carries whatever key the manager attributes
        # stats under: exact node ids on paper-sized runs, island indices on
        # runs past PageManager.NODE_STAT_CAP (see ``stat_node``).
        fetches = registry.counter(
            "dsm_page_fetches_total", "Pages fetched into each node."
        )
        for node, pages in sorted(dsm.fetches_by_node.items()):
            fetches.inc(pages, node=node)
        faults = registry.counter(
            "dsm_page_faults_total", "Page faults taken on each node."
        )
        for node, count in sorted(dsm.faults_by_node.items()):
            faults.inc(count, node=node)
        scalars = registry.counter(
            "dsm_activity_total", "Scalar DSM activity counters by kind."
        )
        for kind, value in sorted(dsm.as_dict().items()):
            if kind in ("page_fetches", "page_faults"):
                continue  # already exported per node above
            scalars.inc(value, kind=kind)
        rehomes = registry.counter(
            "dsm_page_rehomes_total", "Home re-assignments by migratory policies."
        )
        if dsm.page_rehomes:
            rehomes.inc(dsm.page_rehomes)
        island_fetches = registry.counter(
            "dsm_island_page_fetches_total", "Page fetches by island scope."
        )
        island_seconds = registry.counter(
            "dsm_island_fetch_virtual_seconds_total",
            "Virtual seconds of page-fetch latency by island scope.",
        )
        island_fetches.inc(dsm.intra_island_page_fetches, scope="intra")
        island_fetches.inc(dsm.inter_island_page_fetches, scope="inter")
        island_seconds.inc(dsm.intra_island_fetch_seconds, scope="intra")
        island_seconds.inc(dsm.inter_island_fetch_seconds, scope="inter")
        if dsm.inter_island_bytes:
            registry.counter(
                "dsm_island_bytes_total", "Page-transfer bytes by island scope."
            ).inc(dsm.inter_island_bytes, scope="inter")

        monitors = registry.counter(
            "monitor_enters_total", "Monitor entries by kind."
        )
        monitors.inc(stats.monitors.enters, kind="total")
        monitors.inc(stats.monitors.remote_enters, kind="remote")
        monitors.inc(stats.monitors.contended_enters, kind="contended")
        sync = registry.counter(
            "sync_operations_total", "Waits, notifies and barrier passages."
        )
        sync.inc(stats.monitors.waits, kind="wait")
        sync.inc(stats.monitors.notifies, kind="notify")
        sync.inc(stats.monitors.barriers, kind="barrier")

        threads = registry.counter(
            "threads_activity_total", "Thread lifecycle activity by kind."
        )
        for kind, value in sorted(stats.threads.as_dict().items()):
            threads.inc(value, kind=kind)

        cpu = registry.counter(
            "node_cpu_virtual_seconds_total", "CPU busy virtual seconds per node."
        )
        for node, seconds in sorted(stats.cpu_seconds_by_node.items()):
            cpu.inc(seconds, node=node)
        wait = registry.counter(
            "node_wait_virtual_seconds_total",
            "Communication-wait virtual seconds per node.",
        )
        for node, seconds in sorted(stats.wait_seconds_by_node.items()):
            wait.inc(seconds, node=node)

    def finalize(
        self,
        spec: "ExperimentSpec",
        report: "ExecutionReport",
        runtime: "HyperionRuntime",
    ) -> "RunTelemetry":
        """Snapshot the finished run into a :class:`RunTelemetry`."""
        from repro.perf.profiler import CellProfile

        self.engine_instrument.publish()
        self._snapshot_stats(report)
        trace = runtime.engine.trace
        profile = CellProfile(
            label=spec.label(),
            wall_seconds=host_clock() - self._epoch,
            events=report.events_processed,
            execution_seconds=report.execution_seconds,
            report=report,
        )
        host = profile.as_dict()
        host["stages"] = self.host_stages
        return RunTelemetry(
            label=spec.label(),
            cache_key=spec.cache_key(),
            cached=False,
            metrics=self.registry.to_dict(),
            spans=self.spans.to_dict(),
            host=host,
            trace_summary=trace.summary() if trace is not None else None,
        )


@dataclass(slots=True)
class RunTelemetry:
    """Versioned out-of-band telemetry artifact for one cell."""

    label: str
    cache_key: str
    cached: bool
    metrics: dict
    spans: dict
    host: dict = field(default_factory=dict)
    trace_summary: dict | None = None
    version: int = TELEMETRY_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "label": self.label,
            "cache_key": self.cache_key,
            "cached": self.cached,
            "metrics": self.metrics,
            "spans": self.spans,
            "host": self.host,
            "trace_summary": self.trace_summary,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunTelemetry":
        return cls(
            label=payload["label"],
            cache_key=payload["cache_key"],
            cached=payload["cached"],
            metrics=payload.get("metrics", {"families": {}}),
            spans=payload.get("spans", {}),
            host=payload.get("host", {}),
            trace_summary=payload.get("trace_summary"),
            version=payload.get("version", TELEMETRY_VERSION),
        )

    @classmethod
    def cached_stub(cls, spec: "ExperimentSpec") -> "RunTelemetry":
        """Ledger for a cache-hit cell: marked cached, zero engine metrics."""
        return cls(
            label=spec.label(),
            cache_key=spec.cache_key(),
            cached=True,
            metrics=MetricsRegistry().to_dict(),
            spans=SpanTracer(0).to_dict(),
            host={"wall_seconds": 0.0, "events": 0, "stages": []},
        )

    def attach_profile(self, profile) -> None:
        """Fold a :class:`~repro.perf.profiler.CellProfile` into the host side."""
        merged = profile.as_dict()
        merged["stages"] = self.host.get("stages", [])
        self.host = merged


def phase_table(telemetry) -> list[tuple[str, float, float]]:
    """Per-phase virtual-time breakdown rows: (phase, seconds, share).

    Aggregates the exact per-track phase totals of a :class:`RunTelemetry`
    (or its ``to_dict`` payload); ``share`` is the fraction of the summed
    phase time.
    """
    if not isinstance(telemetry, dict):
        telemetry = telemetry.to_dict()
    phases = (telemetry.get("spans") or {}).get("phases", {})
    total = sum(phases.values())
    rows = []
    for phase, seconds in sorted(phases.items(), key=lambda kv: (-kv[1], kv[0])):
        share = seconds / total if total > 0.0 else 0.0
        rows.append((phase, seconds, share))
    return rows
