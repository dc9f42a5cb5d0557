"""Frozen description of one experiment cell and the pure function that runs it.

:class:`ExperimentSpec` is the unit of work of the experiment layer: an
application, a cluster, a consistency protocol, a node count, a workload and
optional :class:`~repro.hyperion.runtime.RuntimeConfig` overrides.  It is
frozen and hashable, so it can key dictionaries and result caches, and it
serialises to a *canonical* JSON form from which :meth:`ExperimentSpec.cache_key`
derives a content hash: two specs that describe the same physical cell — e.g.
one naming the ``"myrinet"`` preset and one carrying the equivalent
:class:`~repro.cluster.presets.ClusterSpec` object — hash to the same key.

:func:`run_spec` turns a spec into an :class:`~repro.hyperion.runtime.ExecutionReport`.
It is a *pure* function of the spec (the simulator is deterministic given the
config's seed), defined at module level so that process-pool executors can
pickle it; every executor and the legacy ``run_cell`` entry point route
through it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from types import BuiltinFunctionType, FunctionType
from typing import Any

from repro.apps.base import app_class, create_app
from repro.apps.workloads import WorkloadPreset
from repro.cluster.presets import ClusterSpec, cluster_by_name
from repro.hyperion.runtime import ExecutionReport, HyperionRuntime, RuntimeConfig

#: bump when the canonical JSON layout changes, so stale caches never match
CACHE_SCHEMA_VERSION = 1

#: entries of the process-wide component memo before it starts over
FORM_MEMO_LIMIT = 256
#: (form function, exact identity of a resolved component) -> its canonical
#: form; read only by :meth:`ExperimentSpec.cache_key`, never handed out
_FORM_MEMO: dict[tuple, Any] = {}

#: leaf types :func:`_identity` takes by value: they cannot change and
#: encode to JSON by value
_VALUE_LEAVES = frozenset({str, int, float, bool, type(None)})
#: leaves it takes by object: the canonical form spells functions and
#: classes by name, or by a ``repr`` that includes the object's id
_NAMED_LEAVES = (type, FunctionType, BuiltinFunctionType)
#: field names of each frozen dataclass :func:`_identity` has walked
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def resolve_cluster(cluster: str | ClusterSpec) -> ClusterSpec:
    """Resolve a preset name to its :class:`ClusterSpec` (pass specs through)."""
    if isinstance(cluster, ClusterSpec):
        return cluster
    return cluster_by_name(cluster)


def resolve_workload(app_name: str, workload) -> object:
    """Resolve the many accepted workload forms to a concrete workload object.

    ``workload`` may be a workload object, a :class:`WorkloadPreset`, a preset
    name (``"bench"``, ``"paper"``, ``"testing"``) or None (bench preset).
    Preset forms are resolved through the application's
    ``workload_from_preset`` hook, so applications outside the preset bundle
    (the generated ``syn-*`` scenarios) scale with the same three names.
    """
    if workload is None:
        preset = WorkloadPreset.bench()
    elif isinstance(workload, str):
        preset = WorkloadPreset.by_name(workload)
    elif isinstance(workload, WorkloadPreset):
        preset = workload
    else:
        return workload
    try:
        cls = app_class(app_name)
    except KeyError:
        # unregistered names keep the preset's own lookup error behaviour
        return preset.workload_for(app_name)
    return cls.workload_from_preset(preset)


def _dataclass_dict(value) -> dict[str, Any]:
    """Class-tagged field dictionary of a (frozen) dataclass instance."""
    return {"__class__": type(value).__name__, **asdict(value)}


def _workload_form(workload) -> Any:
    """Stable, JSON-friendly identity of a workload object.

    Dataclasses (every built-in workload) serialise field-by-field; other
    objects fall back to their attribute dictionary so parameter changes
    still change the cache key.  Objects exposing neither (e.g. slots-only
    with no dataclass fields) end up as ``repr`` — define workloads as
    frozen dataclasses for reliable caching.
    """
    if is_dataclass(workload) and not isinstance(workload, type):
        return _dataclass_dict(workload)
    attributes = getattr(workload, "__dict__", None)
    if attributes:
        return {"__class__": type(workload).__name__, **attributes}
    return repr(workload)


def _identity(value) -> tuple:
    """Hashable identity of a resolved spec component, for the form memo.

    Two components share an identity only when their canonical forms are
    the same JSON text: every leaf carries its type (``1``, ``1.0`` and
    ``True`` compare equal but encode differently), floats are taken by
    ``repr`` (``0.0 == -0.0`` but they encode apart), and only immutable
    leaves, tuples and frozen dataclasses are accepted, so a memoised form
    cannot go stale.  Anything else raises :class:`TypeError` and the
    caller builds the component's form afresh.
    """
    cls = type(value)
    if cls is float:
        return (cls, repr(value))
    if cls in _VALUE_LEAVES or isinstance(value, _NAMED_LEAVES):
        return (cls, value)
    if cls is tuple:
        return (cls, *map(_identity, value))
    names = _FIELD_NAMES.get(cls)
    if names is None:
        params = getattr(cls, "__dataclass_params__", None)
        if params is None or not params.frozen:
            raise TypeError(f"{cls.__name__} has no immutable identity")
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return (cls, *[_identity(getattr(value, name)) for name in names])


#: the canonical JSON encoding every cache key is hashed from (one encoder:
#: ``json.dumps`` with options builds a new one per call)
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=repr).encode


def _build_form(form, value):
    return form(value)


def _memo_form(form, value):
    """``form(value)``, memoised by the exact identity of *value*."""
    try:
        identity = (form, _identity(value))
    except TypeError:
        return form(value)
    built = _FORM_MEMO.get(identity)
    if built is None:
        built = form(value)
        if len(_FORM_MEMO) >= FORM_MEMO_LIMIT:
            _FORM_MEMO.clear()
        _FORM_MEMO[identity] = built
    return built


def _cluster_form(cluster: ClusterSpec) -> dict[str, Any]:
    """Canonical form of a resolved cluster: its constants, not its name's."""
    return {
        "name": cluster.name,
        "num_nodes": cluster.num_nodes,
        "machine": _dataclass_dict(cluster.machine),
        "network": _dataclass_dict(cluster.network),
        "software": _dataclass_dict(cluster.software),
        "page_size": cluster.page_size,
        "topology": _qualified_name(cluster.topology_factory),
    }


def _qualified_name(obj) -> str:
    """Module-qualified name of a callable (topology factories)."""
    module = getattr(obj, "__module__", "?")
    name = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(obj)))
    return f"{module}.{name}"


@dataclass(frozen=True)
class ExperimentSpec:
    """Identity of one simulated execution (frozen, hashable, cacheable)."""

    app: str
    cluster: str | ClusterSpec
    protocol: str
    num_nodes: int
    #: workload object, :class:`WorkloadPreset`, preset name, or None (bench)
    workload: Any = None
    #: extra runtime parameters; ``protocol`` is always taken from the spec
    config: RuntimeConfig | None = None
    #: run the application's correctness check after execution (not part of
    #: the cell's identity: excluded from equality, hashing and the cache key)
    verify: bool = field(default=False, compare=False)
    #: run under the JMM consistency sanitizer (opt-in shadow layer); like
    #: ``verify`` this does not change what is simulated — the report's
    #: ``to_dict`` stays byte-identical — so it is excluded from the cell's
    #: identity as well.  The findings surface on ``ExecutionReport.sanitizer``.
    sanitize: bool = field(default=False, compare=False)
    #: collect the out-of-band telemetry ledger (metrics + virtual-time
    #: spans, see :mod:`repro.obs`).  Like ``verify``/``sanitize`` it never
    #: changes what is simulated — the report's ``to_dict`` stays
    #: byte-identical — so it is excluded from the cell's identity and does
    #: NOT bypass the result cache: cache-hit cells get a stub ledger marked
    #: ``cached`` instead of a re-execution.  The ledger surfaces on
    #: ``ExecutionReport.telemetry``.
    telemetry: bool = field(default=False, compare=False)
    #: price contention-free compute/read phases analytically instead of one
    #: engine event at a time (see ``Engine.try_fast_advance``).  The
    #: simulated outcome is byte-identical — the determinism suite pins it —
    #: so like ``verify``/``sanitize``/``telemetry`` the flag is excluded
    #: from the cell's identity: cache keys MUST NOT distinguish the modes.
    fast_forward: bool = field(default=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def cluster_name(self) -> str:
        """Name of the cluster preset or spec."""
        return self.cluster.name if isinstance(self.cluster, ClusterSpec) else self.cluster

    @property
    def workload_name(self) -> str:
        """Preset or workload display name (``"custom"`` for plain objects)."""
        if self.workload is None:
            return "bench"
        if isinstance(self.workload, str):
            return self.workload
        return str(getattr(self.workload, "name", "custom"))

    def label(self) -> str:
        """Short display label (used by reports and benchmark names)."""
        return f"{self.app}/{self.cluster_name}/{self.protocol}/n{self.num_nodes}"

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolved_cluster(self) -> ClusterSpec:
        """The concrete :class:`ClusterSpec` this cell runs on."""
        return resolve_cluster(self.cluster)

    def resolved_workload(self) -> object:
        """The concrete workload object for :attr:`app`."""
        return resolve_workload(self.app, self.workload)

    def effective_config(self) -> RuntimeConfig:
        """The runtime config actually used (spec protocol wins)."""
        base = self.config or RuntimeConfig()
        return base.with_overrides(protocol=self.protocol)

    # ------------------------------------------------------------------
    # canonical form / content hash
    # ------------------------------------------------------------------
    def canonical_dict(self) -> dict[str, Any]:
        """Fully resolved, JSON-friendly identity of this cell.

        Preset names are resolved into their constants so that equivalent
        specs produce identical dictionaries regardless of how the cluster or
        workload was spelled.  Every call builds a new dictionary.
        """
        return self._canonical_form(_build_form)

    def _canonical_form(self, component) -> dict[str, Any]:
        """The canonical layout; ``component(form, value)`` renders the
        resolved cluster, workload and config."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "app": self.app,
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "cluster": component(_cluster_form, self.resolved_cluster()),
            "workload": component(_workload_form, self.resolved_workload()),
            "config": component(_dataclass_dict, self.effective_config()),
        }

    def cache_key(self) -> str:
        """Content hash of the canonical form (hex SHA-256).

        Memoised per instance: the spec is frozen, and resolving presets plus
        hashing is paid several times per cell otherwise (store lookup and
        store write at least).  New instances of an equal cell (every
        ``matrix.build()`` or ``dataclasses.replace``) still resolve their
        components, but take each component's canonical form from a bounded
        process-wide memo keyed by its exact :func:`_identity`, so no
        ``asdict`` copy is made.  The memoised forms are only encoded here,
        never returned, so the text hashed is ``_dumps(self.canonical_dict())``.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is not None:
            return cached
        payload = _dumps(self._canonical_form(_memo_form))
        key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_cache_key", key)
        return key

    def describe(self) -> dict[str, Any]:
        """Human-oriented summary stored next to cached results."""
        return {
            "label": self.label(),
            "app": self.app,
            "cluster": self.cluster_name,
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "workload": self.workload_name,
        }

    # ------------------------------------------------------------------
    def run(self) -> ExecutionReport:
        """Execute this cell (see :func:`run_spec`)."""
        return run_spec(self)


def run_spec(spec: ExperimentSpec) -> ExecutionReport:
    """Run one experiment cell and return its :class:`ExecutionReport`.

    Pure function of *spec*: the same spec (and therefore the same config
    seed) always produces the same report, which is what lets executors run
    cells in any order or process and lets :class:`~repro.harness.store.ResultStore`
    reuse results across runs.
    """
    report, _ = run_spec_runtime(spec)
    return report


def run_spec_runtime(spec: ExperimentSpec) -> "tuple[ExecutionReport, HyperionRuntime]":
    """Like :func:`run_spec`, but also return the finished runtime.

    The runtime gives callers access to post-run state the report does not
    carry — most notably ``runtime.engine.trace`` for the CLI's
    ``--trace-out`` export.  The report is identical to :func:`run_spec`'s.
    """
    if spec.telemetry:
        # lazy: importing repro.perf at module scope would cycle back into
        # this module through the profiler
        from repro.perf.clock import host_clock

        resolve_started = host_clock()
    cluster = spec.resolved_cluster()
    workload = spec.resolved_workload()
    runtime = HyperionRuntime(
        cluster,
        num_nodes=spec.num_nodes,
        config=spec.effective_config(),
        sanitize=spec.sanitize,
        telemetry=spec.telemetry,
        fast_forward=spec.fast_forward,
    )
    collector = runtime.telemetry
    if collector is not None:
        collector.note_stage("spec_resolve", host_clock() - resolve_started)
        stage = collector.begin_stage("execute")
    app = create_app(spec.app)
    report = app.run(runtime, workload)
    if collector is not None:
        collector.end_stage("execute", stage)
    if spec.verify and not app.verify(report.result, workload):
        raise AssertionError(
            f"{spec.app} produced an incorrect result under "
            f"{spec.protocol} on {cluster.name}/{spec.num_nodes} nodes"
        )
    if collector is not None:
        report.telemetry = collector.finalize(spec, report, runtime)
    return report, runtime
