"""Layer tracing for the traced benchmark run: self time per ``repro`` package.

The benchmark wraps the public entry points of each layer *from its own
files*, before any runtime is built; nothing under ``src/`` changes.  Every
wrapper is a span boundary.  Spans are not stored one by one: each thread
keeps per-layer self-time totals plus, per entry point, an inclusive time and
a call count, so the hot memory primitives stay affordable.

Self time is exact by construction: at every boundary the time since the
previous boundary is charged to the layer that was running, so the layer
self times plus the ``unattributed`` bucket (time outside every wrapped
entry point) add up to the traced interval.  The clock is a parameter: the
single-threaded grid passes use wall time, the multi-threaded server uses
per-thread CPU time, whose threads would otherwise overlap in wall time.

Three kinds of entry point need care, as the module's wrappers do:

* generator functions (thread bodies and blocking context primitives) are
  timed across every resume, not only the call that creates them;
* prepared fast paths (``make_range_updater``) return callables that bypass
  the wrapped methods, so the returned callable is wrapped too;
* callbacks handed across a layer (the ``transform`` of a range update) are
  wrapped in the caller's layer, so the application's numeric work stays in
  ``apps``.

Nothing here switches the program to a reference path: the memory
subsystem's fast path stays on, and ``disable_access_fast_path`` calls are
counted so the benchmark can prove it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import Counter

#: bucket 0 is time outside every wrapped entry point
LAYERS = (
    "unattributed",
    "apps",
    "scenarios",
    "core",
    "hyperion",
    "simulation",
    "dsm",
    "cluster",
    "pm2",
    "harness",
    "obs",
)
LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}
#: layers that simulate (the layer-share check compares harness+obs to these)
SIMULATION_LAYERS = ("apps", "scenarios", "core", "hyperion", "simulation", "dsm", "cluster", "pm2")


class _ThreadState:
    __slots__ = ("cur", "last", "self_t", "incl", "calls")


class Tracer:
    """Per-thread layer self times and per-entry-point totals, in memory."""

    def __init__(self, clock=time.perf_counter_ns, per_thread_clock: bool = False):
        self.clock = clock
        #: the clock counts from each thread's birth (a thread CPU clock):
        #: a thread's time before its first boundary is then known, and is
        #: charged to ``unattributed``
        self.per_thread_clock = per_thread_clock
        self.keys: list[str] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._started = 0

    # -- state ------------------------------------------------------------
    def key(self, name: str) -> int:
        """Register an entry point (before any thread state exists)."""
        if self._states:
            raise RuntimeError("entry points must be registered before tracing starts")
        self.keys.append(name)
        return len(self.keys) - 1

    def _new_state(self) -> _ThreadState:
        state = _ThreadState()
        state.cur = 0
        state.last = self.clock()
        state.self_t = [0] * len(LAYERS)
        if self.per_thread_clock and self._started:
            state.self_t[0] = state.last
        state.incl = [0] * len(self.keys)
        state.calls = [0] * len(self.keys)
        self._local.s = state
        with self._lock:
            self._states.append(state)
        return state

    def start(self) -> None:
        """Zero every total and open the traced interval on this thread."""
        with self._lock:
            for state in self._states:
                state.self_t = [0] * len(LAYERS)
                state.incl = [0] * len(self.keys)
                state.calls = [0] * len(self.keys)
        self.counters.clear()
        try:
            state = self._local.s
        except AttributeError:
            state = self._new_state()
        if state.cur != 0:
            raise RuntimeError("tracing must start outside every wrapped entry point")
        self._started = state.last = self.clock()

    def stop(self) -> bool:
        """Close the traced interval; True when this thread's spans balanced."""
        state = self._local.s
        now = self.clock()
        state.self_t[state.cur] += now - state.last
        state.last = now
        return state.cur == 0

    # -- wrappers ---------------------------------------------------------
    def call_wrapper(self, fn, layer: int, key: int, after=None):
        """A plain callable timed as one span of *layer*."""
        clock = self.clock
        local = self._local
        new_state = self._new_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = local.s
            except AttributeError:
                st = new_state()
            t0 = clock()
            prev = st.cur
            st.self_t[prev] += t0 - st.last
            st.cur = layer
            st.last = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.self_t[layer] += t1 - st.last
                st.last = t1
                st.cur = prev
                st.incl[key] += t1 - t0
                st.calls[key] += 1
            if after is not None:
                after(result)
            return result

        return traced

    def generator_wrapper(self, fn, layer: int, key: int):
        """A generator function timed across each resume of its generator."""
        clock = self.clock
        local = self._local
        new_state = self._new_state

        def drive(gen):
            value = None
            error = None
            first = True
            while True:
                try:
                    st = local.s
                except AttributeError:
                    st = new_state()
                t0 = clock()
                prev = st.cur
                st.self_t[prev] += t0 - st.last
                st.cur = layer
                st.last = t0
                try:
                    if error is None:
                        item = gen.send(value)
                    else:
                        item = gen.throw(error)
                except StopIteration as stop:
                    _close(st, prev, t0, first)
                    return stop.value
                except BaseException:
                    _close(st, prev, t0, first)
                    raise
                _close(st, prev, t0, first)
                first = False
                error = None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in by the engine: forward it
                    error = exc
                    value = None

        def _close(st, prev, t0, first):
            t1 = clock()
            st.self_t[layer] += t1 - st.last
            st.last = t1
            st.cur = prev
            st.incl[key] += t1 - t0
            if first:
                st.calls[key] += 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        return traced

    def wrap(self, fn, layer: str, name: str, after=None):
        """Wrap *fn* for *layer*, choosing the generator form when needed."""
        index = LAYER_INDEX[layer]
        key = self.key(f"{layer}:{name}")
        if inspect.isgeneratorfunction(fn):
            return self.generator_wrapper(fn, index, key)
        return self.call_wrapper(fn, index, key, after)

    # -- results ----------------------------------------------------------
    def summary(self) -> dict:
        """Totals over every thread: seconds per layer and per entry point."""
        self_ns = [0] * len(LAYERS)
        incl = [0] * len(self.keys)
        calls = [0] * len(self.keys)
        with self._lock:
            for state in self._states:
                for i, value in enumerate(state.self_t):
                    self_ns[i] += value
                for i, value in enumerate(state.incl):
                    incl[i] += value
                for i, value in enumerate(state.calls):
                    calls[i] += value
        return {
            "self_s": {LAYERS[i]: self_ns[i] / 1e9 for i in range(len(LAYERS))},
            "entry_s": {self.keys[i]: incl[i] / 1e9 for i in range(len(self.keys)) if calls[i]},
            "entry_calls": {self.keys[i]: calls[i] for i in range(len(self.keys)) if calls[i]},
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------
def _import_all() -> None:
    """Import every ``repro`` module, so module-level rebinding is complete."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _public_functions(cls, names=None):
    """(name, raw attribute) pairs of functions defined on *cls* itself."""
    for name, value in list(vars(cls).items()):
        if names is not None:
            if name not in names:
                continue
        elif name.startswith("_"):
            continue
        if isinstance(value, (staticmethod, classmethod)) or inspect.isfunction(value):
            yield name, value


def _wrap_class(tracer: Tracer, cls, layer: str, names=None, exclude=()) -> None:
    for name, value in _public_functions(cls, names):
        if name in exclude:
            continue
        label = f"{cls.__name__}.{name}"
        if isinstance(value, (staticmethod, classmethod)):
            setattr(cls, name, type(value)(tracer.wrap(value.__func__, layer, label)))
        else:
            setattr(cls, name, tracer.wrap(value, layer, label))


def _subclasses(cls):
    seen = []
    stack = [cls]
    while stack:
        klass = stack.pop()
        if klass not in seen:
            seen.append(klass)
            stack.extend(klass.__subclasses__())
    return seen


def _rebind(module_name: str, attr: str, replacement) -> None:
    """Replace a module-level function in every ``repro`` module holding it."""
    original = getattr(sys.modules[module_name], attr)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (call before building a runtime)."""
    _import_all()
    from repro.apps.base import Application
    from repro.cluster.costs import CostModel
    from repro.cluster.topology import Topology
    from repro.core.memory import MemorySubsystem
    from repro.dsm.page_manager import PageManager
    from repro.harness import service, spec, store
    from repro.harness.jobs import SweepJob
    from repro.harness.session import Session
    from repro.hyperion.runtime import HyperionRuntime
    from repro.hyperion.threads import JavaThread, JavaThreadContext
    from repro.obs.ledger import (
        DsmInstrument,
        EngineInstrument,
        MonitorInstrument,
        RunTelemetry,
        TelemetryCollector,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanTracer
    from repro.pm2.isoaddr import IsoAddressAllocator
    from repro.pm2.marcel import MarcelRuntime
    from repro.pm2.rpc import RpcSystem
    from repro.scenarios import runner, script
    from repro.simulation.engine import Engine

    counters = tracer.counters
    wrap = tracer.wrap

    # -- harness ----------------------------------------------------------
    _wrap_class(tracer, Session, "harness")
    _wrap_class(tracer, spec.ExperimentSpec, "harness", names={"cache_key"})

    def count_hit(report):
        if report is not None:
            counters["store_hits"] += 1

    store_cls = store.ResultStore
    store_cls.get = wrap(store_cls.get, "harness", "ResultStore.get", after=count_hit)
    _wrap_class(tracer, store_cls, "harness", names={"put", "put_telemetry", "flush"})
    for name in ("report_to_payload", "report_from_payload"):
        _rebind("repro.harness.store", name, wrap(getattr(store, name), "harness", name))
    _rebind("repro.harness.spec", "run_spec", wrap(spec.run_spec, "harness", "run_spec"))
    _wrap_class(tracer, SweepJob, "harness", names={"run"})

    sweep_service = service.SweepService
    submit = sweep_service.submit
    run_sweep = sweep_service._run_sweep

    def submit_stamped(self, payload):
        record = submit(self, payload)
        record.perfbench_submitted = time.perf_counter()
        return record

    def run_sweep_waited(self, record):
        waited = time.perf_counter() - getattr(record, "perfbench_submitted", time.perf_counter())
        counters["queue_wait_ns"] += int(waited * 1e9)
        counters["sweeps_started"] += 1
        return run_sweep(self, record)

    sweep_service.submit = functools.wraps(submit)(submit_stamped)
    sweep_service._run_sweep = functools.wraps(run_sweep)(run_sweep_waited)
    _wrap_class(
        tracer,
        sweep_service,
        "harness",
        names={"submit", "get", "statuses", "grid", "cell", "metrics_snapshot", "shutdown",
               "_worker_loop", "_run_sweep"},
    )
    # the accept loop and each request thread's body, so the server's CPU
    # time closes (the inherited stdlib methods are wrapped on the subclass)
    server_cls = service.ServiceServer
    for name in ("serve_until_shutdown", "process_request_thread"):
        setattr(server_cls, name, wrap(getattr(server_cls, name), "harness", f"ServiceServer.{name}"))

    # -- apps and scenarios ----------------------------------------------------
    for cls in _subclasses(Application):
        layer = "scenarios" if issubclass(cls, runner.SyntheticApplication) else "apps"
        names = {"run", "launch", "main", "verify", "workload_from_preset"}
        names |= {n for n, v in vars(cls).items() if inspect.isgeneratorfunction(v)}
        names.discard("build_script")
        _wrap_class(tracer, cls, layer, names=names)

    synthetic = runner.SyntheticApplication
    build_script = synthetic.build_script
    script_cache = runner._SCRIPT_CACHE

    def build_script_counted(self, *args, **kwargs):
        before = len(script_cache)
        result = build_script(self, *args, **kwargs)
        if len(script_cache) == before:
            counters["script_reuses"] += 1
        return result

    synthetic.build_script = wrap(
        functools.wraps(build_script)(build_script_counted), "scenarios", "build_script"
    )
    _rebind(
        "repro.scenarios.script",
        "materialise_layout",
        wrap(script.materialise_layout, "scenarios", "materialise_layout"),
    )

    # -- hyperion -----------------------------------------------------------
    def count_events(report):
        counters["events_dispatched"] += report.events_processed
        counters["events_elided"] += report.events_fast_forwarded

    HyperionRuntime.run = wrap(
        HyperionRuntime.run, "hyperion", "HyperionRuntime.run", after=count_events
    )
    _wrap_class(
        tracer,
        HyperionRuntime,
        "hyperion",
        names={"__init__", "create_thread", "spawn_main", "create_barrier"},
    )
    # charge_cpu/charge_wait are the cost sink core calls on every access: a
    # few additions each, so they stay in their caller's layer
    _wrap_class(tracer, JavaThreadContext, "hyperion", exclude={"charge_cpu", "charge_wait"})
    _wrap_class(tracer, JavaThread, "hyperion", names={"_wrapper"})

    # -- core: the memory primitives, prepared updaters and their callbacks ----
    apps_layer = LAYER_INDEX["apps"]
    transform_key = tracer.key("apps:transform")
    call_wrapper = tracer.call_wrapper

    update_range = MemorySubsystem.update_range

    def update_range_apps(self, ctx, node, obj, lo, hi, transform, *args, **kwargs):
        return update_range(
            self, ctx, node, obj, lo, hi,
            call_wrapper(transform, apps_layer, transform_key), *args, **kwargs,
        )

    make_range_updater = MemorySubsystem.make_range_updater
    updater_layer = LAYER_INDEX["core"]
    updater_key = tracer.key("core:range_updater")

    def make_range_updater_wrapped(self, *args, **kwargs):
        update = make_range_updater(self, *args, **kwargs)

        def prepared(transform, extra_obj=None):
            return update(call_wrapper(transform, apps_layer, transform_key), extra_obj)

        return call_wrapper(prepared, updater_layer, updater_key)

    MemorySubsystem.update_range = functools.wraps(update_range)(update_range_apps)
    MemorySubsystem.make_range_updater = functools.wraps(make_range_updater)(
        make_range_updater_wrapped
    )
    disable = MemorySubsystem.disable_access_fast_path

    def disable_counted(self):
        counters["fast_path_disabled"] += 1
        return disable(self)

    MemorySubsystem.disable_access_fast_path = functools.wraps(disable)(disable_counted)
    _wrap_class(
        tracer,
        MemorySubsystem,
        "core",
        names={"get", "put", "get_range", "put_range", "account_accesses", "update_range",
               "make_range_updater", "get_run", "put_run", "load_into_cache",
               "invalidate_cache", "update_main_memory", "is_local"},
    )

    # -- dsm, cluster, pm2, simulation, obs ------------------------------
    _wrap_class(tracer, PageManager, "dsm")
    _wrap_class(tracer, CostModel, "cluster", exclude={"describe"})
    for cls in _subclasses(Topology):
        _wrap_class(tracer, cls, "cluster", exclude={"describe"})
    _wrap_class(tracer, MarcelRuntime, "pm2")
    _wrap_class(tracer, RpcSystem, "pm2")
    _wrap_class(tracer, IsoAddressAllocator, "pm2")
    _wrap_class(tracer, Engine, "simulation", names={"run", "step"})
    for cls in (TelemetryCollector, RunTelemetry, EngineInstrument, DsmInstrument,
                MonitorInstrument, MetricsRegistry, SpanTracer):
        _wrap_class(tracer, cls, "obs")
