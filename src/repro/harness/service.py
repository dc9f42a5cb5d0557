"""The sweep service: ``hyperion-sim serve`` — a JSON API over sweeps.

A :class:`SweepService` owns a queue of submitted sweeps and a pool of
background worker threads that run each sweep as a
:class:`~repro.harness.jobs.SweepJob` (sharded, checkpointed, store-backed).
:class:`ServiceServer` wraps it in a stdlib
:class:`~http.server.ThreadingHTTPServer` speaking a small JSON protocol::

    GET  /health               liveness + queue depth
    GET  /metrics              Prometheus text: service + per-job aggregates
    POST /sweeps               submit a sweep request -> {"id": ...}
    GET  /sweeps               every sweep's status snapshot
    GET  /sweeps/<id>          one sweep: state + progress + metric snapshot
    GET  /sweeps/<id>/grid     the finished grid, SessionResult.to_dict()
    GET  /sweeps/<id>/cells/<label>   one cell as a CellResult record
    POST /shutdown             graceful stop: drain in-flight shards

A sweep request names its grid the way :class:`ExperimentMatrix` does::

    {"apps": ["pi"], "clusters": ["myrinet"], "nodes": [1, 2],
     "protocols": ["java_ic", "java_pf"], "workload": "testing",
     "shard_size": 4}

The grid a finished sweep serves is **byte-identical** to what a serial
``Session().run(...)`` of the same specs returns: cells cross the worker /
checkpoint / store boundary as canonical payloads whose round-trip
(:func:`~repro.harness.store.report_from_payload`) reproduces ``to_dict()``
exactly.  Sweeps run with telemetry on by default (it is out-of-band, so
the grids stay byte-identical); a request may opt out with
``"telemetry": false``.  ``GET /metrics`` renders the service gauges plus
every job's aggregated :mod:`repro.obs` families as Prometheus text.  Shutdown is graceful by construction — the service stops handing
out new shards, drains the ones in flight (checkpointing each), and marks
still-queued or interrupted sweeps so a later submission can resume them.

Everything here is standard library; there is no web framework to install.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.harness.jobs import SweepInterrupted, SweepJob
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import SessionResult
from repro.harness.store import ResultStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import CONTENT_TYPE, render_metrics
from repro.util.logging import get_logger
from repro.util.validation import check_positive

#: states a submitted sweep moves through (terminal: done/failed/interrupted)
SWEEP_STATES = ("queued", "running", "done", "failed", "interrupted")


class ServiceError(ValueError):
    """A client-facing request error (HTTP 400/404)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def parse_sweep_request(payload: Any) -> ExperimentMatrix:
    """Build the :class:`ExperimentMatrix` a sweep-request JSON describes."""
    if not isinstance(payload, dict):
        raise ServiceError("sweep request must be a JSON object")
    known = {
        "apps",
        "clusters",
        "protocols",
        "nodes",
        "workload",
        "shard_size",
        "telemetry",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ServiceError(
            f"unknown sweep-request field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    apps = payload.get("apps")
    clusters = payload.get("clusters")
    if not apps or not isinstance(apps, list):
        raise ServiceError('sweep request needs a non-empty "apps" list')
    if not clusters or not isinstance(clusters, list):
        raise ServiceError('sweep request needs a non-empty "clusters" list')
    matrix = ExperimentMatrix().apps(*apps).clusters(*clusters)
    if payload.get("protocols"):
        matrix = matrix.protocols(*payload["protocols"])
    if payload.get("nodes"):
        matrix = matrix.nodes(*payload["nodes"])
    matrix = matrix.workload(payload.get("workload", "bench"))
    return matrix


class SweepRecord:
    """One submitted sweep: its specs, its job, and its lifecycle state."""

    def __init__(
        self,
        sweep_id: str,
        specs: list,
        shard_size: int | None,
        telemetry: bool = True,
    ):
        self.id = sweep_id
        self.specs = specs
        self.shard_size = shard_size
        self.telemetry = bool(telemetry)
        self.state = "queued"
        self.error: str | None = None
        self.job: SweepJob | None = None
        self.result: SessionResult | None = None
        self.lock = threading.Lock()

    def status(self) -> dict[str, Any]:
        """JSON status snapshot (what the ``GET /sweeps`` list returns)."""
        with self.lock:
            progress = self.job.progress.to_dict() if self.job is not None else None
            return {
                "id": self.id,
                "state": self.state,
                "cells": len(self.specs),
                "error": self.error,
                "progress": progress,
            }

    def detail(self) -> dict[str, Any]:
        """Status plus the job-level metric snapshot (``GET /sweeps/<id>``)."""
        payload = self.status()
        with self.lock:
            job = self.job
        payload["metrics"] = job.metrics_snapshot() if job is not None else None
        return payload


class SweepService:
    """Queue + worker pool running submitted sweeps as :class:`SweepJob` s."""

    def __init__(
        self,
        jobs: int = 1,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        checkpoint_root: str | Path | None = None,
        shard_size: int | None = None,
        telemetry: bool = True,
    ):
        check_positive("workers", workers)
        self.jobs = int(jobs)
        self.default_shard_size = shard_size
        self.telemetry = bool(telemetry)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.checkpoint_root = Path(checkpoint_root) if checkpoint_root else None
        #: service-level counters (guarded by ``_lock`` like the queue)
        self._metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._sweeps: dict[str, SweepRecord] = {}
        self._order: list[str] = []
        self._queue: list[str] = []
        self._next_id = 1
        self._stopping = threading.Event()
        self._wakeup = threading.Condition(self._lock)
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"sweep-worker-{i}", daemon=True)
            for i in range(int(workers))
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # submission and lookup
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> SweepRecord:
        """Validate and enqueue one sweep request; returns its record."""
        matrix = parse_sweep_request(payload)
        shard_size = payload.get("shard_size", self.default_shard_size)
        try:
            if shard_size is not None:
                check_positive("shard_size", shard_size)
            specs = matrix.build()  # unknown apps/clusters surface here
        except ServiceError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise ServiceError(f"invalid sweep request: {exc}") from exc
        if not specs:
            raise ServiceError("sweep request expands to zero cells")
        telemetry = bool(payload.get("telemetry", self.telemetry))
        with self._lock:
            if self._stopping.is_set():
                raise ServiceError("service is shutting down", status=503)
            sweep_id = f"sweep-{self._next_id:04d}"
            self._next_id += 1
            record = SweepRecord(sweep_id, specs, shard_size, telemetry=telemetry)
            self._sweeps[sweep_id] = record
            self._order.append(sweep_id)
            self._queue.append(sweep_id)
            self._metrics.counter(
                "service_sweeps_submitted_total", "Sweeps accepted by the service."
            ).inc()
            self._wakeup.notify()
        return record

    def get(self, sweep_id: str) -> SweepRecord:
        """Look one sweep up (404 when unknown)."""
        with self._lock:
            record = self._sweeps.get(sweep_id)
        if record is None:
            raise ServiceError(f"no such sweep: {sweep_id}", status=404)
        return record

    def statuses(self) -> list[dict[str, Any]]:
        """Status snapshots of every sweep, in submission order."""
        with self._lock:
            records = [self._sweeps[sweep_id] for sweep_id in self._order]
        return [record.status() for record in records]

    def grid(self, sweep_id: str) -> dict[str, Any]:
        """The finished grid — byte-identical to a serial ``Session.run``."""
        record = self.get(sweep_id)
        with record.lock:
            if record.state != "done" or record.result is None:
                raise ServiceError(
                    f"sweep {sweep_id} is {record.state}, not done", status=409
                )
            return record.result.to_dict()

    def cell(self, sweep_id: str, label: str) -> dict[str, Any]:
        """One finished cell as its :class:`CellResult` record."""
        record = self.get(sweep_id)
        with record.lock:
            if record.state != "done" or record.result is None:
                raise ServiceError(
                    f"sweep {sweep_id} is {record.state}, not done", status=409
                )
            for spec in record.result.reports:
                if spec.label() == label:
                    return record.result.cell(spec).to_dict()
        raise ServiceError(
            f"sweep {sweep_id} has no cell labelled {label!r}", status=404
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """One deterministic payload of everything the service can count.

        A fresh registry absorbs the service counters, the live queue/worker
        gauges, and every job's aggregate (each under its own lock).  Gauges
        merge by ``max`` across jobs — the documented registry semantics.
        """
        snapshot = MetricsRegistry()
        with self._lock:
            snapshot.merge(self._metrics.to_dict())
            records = [self._sweeps[sweep_id] for sweep_id in self._order]
            queue_depth = len(self._queue)
            worker_count = len(self._workers)
        states = dict.fromkeys(SWEEP_STATES, 0)
        jobs = []
        for record in records:
            with record.lock:
                states[record.state] += 1
                job = record.job
            if job is not None:
                jobs.append(job)
        snapshot.gauge(
            "service_queue_depth", "Sweeps waiting for a worker."
        ).set(queue_depth)
        sweeps = snapshot.gauge("service_sweeps", "Sweeps by lifecycle state.")
        for state in SWEEP_STATES:
            sweeps.set(states[state], state=state)
        workers = snapshot.gauge("service_workers", "Worker threads by state.")
        workers.set(worker_count, state="total")
        workers.set(states["running"], state="busy")
        for job in jobs:
            snapshot.merge(job.metrics_snapshot())
        return snapshot.to_dict()

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopping.is_set():
                    self._wakeup.wait()
                if self._stopping.is_set() and not self._queue:
                    return
                sweep_id = self._queue.pop(0) if self._queue else None
            if sweep_id is None:
                return
            self._run_sweep(self._sweeps[sweep_id])

    def _run_sweep(self, record: SweepRecord) -> None:
        store = ResultStore(self.cache_dir) if self.cache_dir else None
        checkpoint_dir = (
            self.checkpoint_root / record.id if self.checkpoint_root else None
        )
        job = SweepJob(
            record.specs,
            checkpoint_dir=checkpoint_dir,
            jobs=self.jobs,
            shard_size=record.shard_size,
            store=store,
            stop_event=self._stopping,
            telemetry=record.telemetry,
        )
        with record.lock:
            if self._stopping.is_set():
                record.state = "interrupted"
                record.error = "service shut down before the sweep started"
                return
            record.state = "running"
            record.job = job
        try:
            result = job.run()
        except SweepInterrupted as exc:
            with record.lock:
                record.state = "interrupted"
                record.error = str(exc)
            return
        except Exception as exc:  # noqa: BLE001 - a sweep failure must not kill the worker
            with record.lock:
                record.state = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
            return
        with record.lock:
            record.result = result
            record.state = "done"

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> dict[str, Any]:
        """Stop gracefully: no new shards start, in-flight shards drain."""
        with self._lock:
            self._stopping.set()
            abandoned = list(self._queue)
            self._queue.clear()
            self._wakeup.notify_all()
        for sweep_id in abandoned:
            record = self._sweeps[sweep_id]
            with record.lock:
                record.state = "interrupted"
                record.error = "service shut down while the sweep was queued"
        for thread in self._workers:
            thread.join()
        return {"stopped": True, "abandoned": abandoned}


# ---------------------------------------------------------------------------
# the HTTP layer
# ---------------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON protocol onto the :class:`SweepService`."""

    server: "ServiceServer"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    #: headers and body go out in separate sends; with Nagle on, a
    #: keep-alive client's delayed ACK holds every body back ~40 ms
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            self.server.logger.info(
                "%s - %s", self.address_string(), format % args
            )

    # -- plumbing ----------------------------------------------------------
    def _send(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def _route(self, method: str) -> None:
        service = self.server.service
        path = self.path.rstrip("/") or "/"
        try:
            if method == "GET" and path == "/health":
                statuses = service.statuses()
                self._send(
                    200,
                    {
                        "status": "ok",
                        "sweeps": len(statuses),
                        "running": sum(s["state"] == "running" for s in statuses),
                    },
                )
            elif method == "GET" and path == "/metrics":
                self._send_text(
                    200, render_metrics(service.metrics_snapshot()), CONTENT_TYPE
                )
            elif method == "POST" and path == "/sweeps":
                record = service.submit(self._read_json())
                self._send(202, record.status())
            elif method == "GET" and path == "/sweeps":
                self._send(200, {"sweeps": service.statuses()})
            elif method == "POST" and path == "/shutdown":
                self._send(200, {"shutting_down": True})
                self.server.request_shutdown()
            elif path.startswith("/sweeps/"):
                self._route_sweep(method, path.split("/")[2:])
            else:
                raise ServiceError(f"no such endpoint: {method} {path}", status=404)
        except ServiceError as exc:
            self._send(exc.status, {"error": str(exc)})

    def _route_sweep(self, method: str, parts: list[str]) -> None:
        service = self.server.service
        if method != "GET" or not parts:
            raise ServiceError(f"no such endpoint: {method} {self.path}", status=404)
        sweep_id, rest = parts[0], parts[1:]
        if not rest:
            self._send(200, service.get(sweep_id).detail())
        elif rest == ["grid"]:
            self._send(200, {"id": sweep_id, "grid": service.grid(sweep_id)})
        elif rest[0] == "cells" and len(rest) > 1:
            # cell labels contain slashes (app/cluster/protocol/nN)
            label = "/".join(rest[1:])
            self._send(200, service.cell(sweep_id, label))
        else:
            raise ServiceError(f"no such endpoint: GET {self.path}", status=404)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._route("POST")


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server wired to one :class:`SweepService`."""

    daemon_threads = True

    def __init__(
        self,
        service: SweepService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ):
        super().__init__((host, port), _Handler)
        self.service = service
        self.verbose = verbose
        self.logger = get_logger("harness.service")
        self._shutdown_requested = threading.Event()

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def request_shutdown(self) -> None:
        """Begin graceful shutdown from a handler thread (non-blocking)."""
        if self._shutdown_requested.is_set():
            return
        self._shutdown_requested.set()
        threading.Thread(target=self._drain_and_stop, daemon=True).start()

    def _drain_and_stop(self) -> None:
        self.service.shutdown()  # drains in-flight shards
        self.shutdown()  # stops serve_forever

    def serve_until_shutdown(self) -> None:
        """Serve requests until ``POST /shutdown`` (or Ctrl-C) drains us."""
        try:
            self.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            self.service.shutdown()
        finally:
            self.server_close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    jobs: int = 1,
    workers: int = 1,
    cache_dir: str | None = None,
    checkpoint_root: str | None = None,
    shard_size: int | None = None,
    verbose: bool = False,
    telemetry: bool = True,
) -> ServiceServer:
    """Construct the service + server pair (without starting to serve)."""
    service = SweepService(
        jobs=jobs,
        workers=workers,
        cache_dir=cache_dir,
        checkpoint_root=checkpoint_root,
        shard_size=shard_size,
        telemetry=telemetry,
    )
    return ServiceServer(service, host=host, port=port, verbose=verbose)
