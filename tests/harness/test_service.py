"""The sweep service: request parsing, lifecycle, and the HTTP round-trip."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.harness.matrix import ExperimentMatrix
from repro.harness.service import (
    ServiceError,
    SweepService,
    parse_sweep_request,
    serve,
)
from repro.harness.session import Session

REQUEST = {
    "apps": ["pi"],
    "clusters": ["myrinet"],
    "nodes": [1, 2],
    "protocols": ["java_ic", "java_pf"],
    "workload": "testing",
}


def _serial_grid():
    return Session().run(
        ExperimentMatrix()
        .apps("pi")
        .clusters("myrinet")
        .nodes(1, 2)
        .workload("testing")
    ).to_dict()


# ---------------------------------------------------------------------------
# request parsing
# ---------------------------------------------------------------------------
def test_parse_sweep_request_builds_the_matrix():
    specs = parse_sweep_request(REQUEST).build()
    assert len(specs) == 4
    assert {s.label() for s in specs} == set(_serial_grid())


@pytest.mark.parametrize(
    "payload",
    [
        "not an object",
        {},
        {"apps": []},
        {"apps": ["pi"]},
        {"apps": ["pi"], "clusters": ["myrinet"], "bogus": 1},
    ],
)
def test_parse_sweep_request_rejects_bad_payloads(payload):
    with pytest.raises(ServiceError):
        parse_sweep_request(payload)


# ---------------------------------------------------------------------------
# service lifecycle (no HTTP)
# ---------------------------------------------------------------------------
def _wait_done(service, sweep_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.get(sweep_id).status()
        if status["state"] in ("done", "failed", "interrupted"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"sweep {sweep_id} did not finish: {status}")


def test_service_runs_a_sweep_to_done(tmp_path):
    service = SweepService(cache_dir=tmp_path / "cache", shard_size=2)
    record = service.submit(REQUEST)
    status = _wait_done(service, record.id)
    assert status["state"] == "done"
    assert status["progress"]["done"] is True
    assert service.grid(record.id) == _serial_grid()
    service.shutdown()


def test_service_grid_before_done_is_an_error():
    service = SweepService()
    try:
        with pytest.raises(ServiceError) as excinfo:
            service.grid("sweep-9999")
        assert excinfo.value.status == 404
    finally:
        service.shutdown()


def test_service_cell_lookup(tmp_path):
    service = SweepService(shard_size=4)
    try:
        record = service.submit(REQUEST)
        _wait_done(service, record.id)
        label = "pi/myrinet/java_pf/n2"
        cell = service.cell(record.id, label)
        assert cell["label"] == label and cell["report"] == _serial_grid()[label]
        with pytest.raises(ServiceError) as excinfo:
            service.cell(record.id, "nope/nope/nope/n1")
        assert excinfo.value.status == 404
    finally:
        service.shutdown()


def test_shutdown_interrupts_queued_sweeps():
    service = SweepService(shard_size=2)
    first = service.submit(REQUEST)
    # saturate the single worker so later submissions stay queued
    queued = [service.submit(REQUEST | {"nodes": [n]}) for n in (1, 2)]
    outcome = service.shutdown()
    states = {record.id: record.status()["state"] for record in [first] + queued}
    # everything is terminal after a drain: done or interrupted, never running
    assert all(state in ("done", "interrupted") for state in states.values())
    assert set(outcome["abandoned"]) <= set(states)
    with pytest.raises(ServiceError) as excinfo:
        service.submit(REQUEST)
    assert excinfo.value.status == 503


# ---------------------------------------------------------------------------
# the HTTP round-trip
# ---------------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    server = serve(port=0, shard_size=2, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    yield server
    if thread.is_alive():
        server.request_shutdown()
        thread.join(timeout=30)


def _call(server, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        server.address + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_submit_poll_fetch_round_trip(server):
    status, health = _call(server, "GET", "/health")
    assert status == 200 and health["status"] == "ok"

    status, submitted = _call(server, "POST", "/sweeps", REQUEST)
    assert status == 202 and submitted["state"] == "queued"
    sweep_id = submitted["id"]

    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, snapshot = _call(server, "GET", f"/sweeps/{sweep_id}")
        if snapshot["state"] == "done":
            break
        time.sleep(0.05)
    assert snapshot["state"] == "done"

    status, listing = _call(server, "GET", "/sweeps")
    assert status == 200 and listing["sweeps"][0]["id"] == sweep_id

    # the served grid is byte-identical to a serial Session.run
    status, grid = _call(server, "GET", f"/sweeps/{sweep_id}/grid")
    assert status == 200
    serial = _serial_grid()
    assert json.dumps(grid["grid"], sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )

    # single-cell fetch (labels contain slashes)
    label = "pi/myrinet/java_ic/n1"
    status, cell = _call(server, "GET", f"/sweeps/{sweep_id}/cells/{label}")
    assert status == 200 and cell["label"] == label
    assert json.dumps(cell["report"], sort_keys=True) == json.dumps(
        serial[label], sort_keys=True
    )


def test_http_errors(server):
    assert _call(server, "GET", "/sweeps/sweep-9999")[0] == 404
    assert _call(server, "GET", "/nope")[0] == 404
    assert _call(server, "POST", "/sweeps", {"apps": []})[0] == 400
    status, body = _call(server, "POST", "/sweeps", REQUEST | {"shard_size": -1})
    assert status == 400 and "shard_size" in body["error"]


def test_keep_alive_responses_do_not_stall(server):
    """Calls on one kept-alive connection answer promptly.

    The handler sends headers and body separately; with Nagle's algorithm
    on, the body waits for the client's delayed ACK (~40 ms) on every
    response after the first.
    """
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        elapsed = []
        for _ in range(12):
            started = time.perf_counter()
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            elapsed.append(time.perf_counter() - started)
    finally:
        conn.close()
    assert statistics.median(elapsed) < 0.010


def test_http_shutdown_drains_cleanly(tmp_path):
    server = serve(port=0, shard_size=2, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    _call(server, "POST", "/sweeps", REQUEST)
    status, body = _call(server, "POST", "/shutdown")
    assert status == 200 and body["shutting_down"] is True
    thread.join(timeout=60)
    assert not thread.is_alive()  # drained and stopped
    # every sweep ended in a terminal state
    for record in server.service.statuses():
        assert record["state"] in ("done", "interrupted")


# ---------------------------------------------------------------------------
# telemetry: /metrics and per-sweep metric snapshots
# ---------------------------------------------------------------------------
def test_service_metrics_snapshot_aggregates_sweeps(tmp_path):
    service = SweepService(cache_dir=tmp_path / "cache", shard_size=2)
    try:
        record = service.submit(REQUEST)
        assert _wait_done(service, record.id)["state"] == "done"
        families = service.metrics_snapshot()["families"]
        for name in (
            "service_sweeps_submitted_total",
            "service_sweeps",
            "service_workers",
            "sweep_shards_completed_total",
            "sweep_cells_completed_total",
            "sim_events_dispatched_total",
            "dsm_page_fetches_total",
            "store_gets_total",
        ):
            assert name in families, name
        cells = families["sweep_cells_completed_total"]["series"][0]["value"]
        assert cells == 4
        # the sweep's own detail carries its job-level snapshot
        detail = service.get(record.id).detail()
        assert detail["metrics"] is not None
        assert "sweep_shards_completed_total" in detail["metrics"]["families"]
    finally:
        service.shutdown()


def test_service_telemetry_opt_out(tmp_path):
    service = SweepService(cache_dir=tmp_path / "cache", telemetry=False)
    try:
        record = service.submit(REQUEST)
        assert record.telemetry is False
        assert _wait_done(service, record.id)["state"] == "done"
        families = service.metrics_snapshot()["families"]
        # sweep bookkeeping still flows; per-cell engine families do not
        assert "sweep_shards_completed_total" in families
        assert "sim_events_dispatched_total" not in families
        # a request can opt back in per sweep — but these cells are now
        # cache hits, and cached stubs carry zero engine metrics, so the
        # engine families still stay absent
        record = service.submit(REQUEST | {"telemetry": True})
        assert record.telemetry is True
        assert _wait_done(service, record.id)["state"] == "done"
        families = service.metrics_snapshot()["families"]
        assert "sim_events_dispatched_total" not in families
        hits = families["sweep_cells_cache_hits_total"]["series"][0]["value"]
        assert hits == 4
    finally:
        service.shutdown()


def test_http_metrics_endpoint_serves_prometheus_text(server):
    import re

    status, submitted = _call(server, "POST", "/sweeps", REQUEST)
    assert status == 202
    sweep_id = submitted["id"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, snapshot = _call(server, "GET", f"/sweeps/{sweep_id}")
        if snapshot["state"] == "done":
            break
        time.sleep(0.05)
    assert snapshot["state"] == "done"
    assert "sweep_shards_completed_total" in snapshot["metrics"]["families"]

    with urllib.request.urlopen(server.address + "/metrics", timeout=30) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode()
    for name in (
        "sim_events_dispatched_total",
        "dsm_page_fetches_total",
        "store_gets_total",
        "sweep_shards_completed_total",
        "service_queue_depth",
    ):
        assert f"# TYPE {name} " in text, name
    sample = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(inf)?$'
    )
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        assert sample.match(line), line
