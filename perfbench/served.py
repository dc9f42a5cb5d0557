"""The sweep-served workload: the sweep server and its closed-loop client.

``python3 perfbench/served.py serve ...`` is the benchmark's server
launcher.  It does what ``hyperion-sim serve`` does (build the service with
``repro.harness.service.serve`` and serve until ``POST /shutdown``), on an
ephemeral port that it prints as the first stdout line.  With ``--trace 1``
it first installs the layer wrappers, timed on per-thread CPU clocks, since
the server's request and worker threads overlap in wall time.  On exit it
writes its peak RSS (and the trace totals) to ``--out``.

:func:`served_pass` is one pass of the client: spawn a server with an empty
store, wait for ``/health``, then send the seeded request sequence one at a
time (a closed loop with one client) and check every returned cell.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import common

#: fixed interval between two status polls of one sweep
POLL_SECONDS = 0.002
#: how long the client waits for the server or one request
TIMEOUT_SECONDS = 60.0
#: server start-ups per untraced pass, each one a ``setup_s`` sample
SETUP_STARTS = 5


def request_sequence(seed: int) -> list[tuple[str, dict]]:
    """The pass's requests: every universe request once, each followed by a
    repeat of a request already sent.

    The seed orders the fresh requests and picks each repeat among the sent
    requests not yet repeated, so every request is repeated exactly once:
    the seed changes the order, never the mix.
    """
    rng = random.Random(seed)
    fresh = common.served_universe()
    rng.shuffle(fresh)
    sequence = []
    unrepeated = []
    for request in fresh:
        sequence.append(("fresh", request))
        unrepeated.append(request)
        sequence.append(("repeat", unrepeated.pop(rng.randrange(len(unrepeated)))))
    return sequence


def expected_labels(request: dict) -> set[str]:
    return {
        f"{app}/{cluster}/{protocol}/n{nodes}"
        for app in request["apps"]
        for cluster in request["clusters"]
        for protocol in request["protocols"]
        for nodes in request["nodes"]
    }


def _call(address: tuple[str, int], method: str, path: str, payload=None) -> tuple[int, dict]:
    """One HTTP call on its own connection, as ``urllib`` clients make them.

    A new connection per call also keeps the round trips off the keep-alive
    path, where the server's separate header and body writes meet the
    client's delayed ACK and every response waits about 40 ms.
    """
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn = http.client.HTTPConnection(*address, timeout=TIMEOUT_SECONDS)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, json.loads(data) if data else {}


def _sweep(address: tuple[str, int], request: dict) -> tuple[dict, int]:
    """Submit one sweep, poll it to completion, fetch its grid."""
    status, submitted = _call(address, "POST", "/sweeps", request)
    if status != 202:
        raise RuntimeError(f"submit answered {status}: {submitted}")
    sweep_id = submitted["id"]
    polls = 0
    while True:
        status, detail = _call(address, "GET", f"/sweeps/{sweep_id}")
        polls += 1
        if status != 200:
            raise RuntimeError(f"status answered {status}: {detail}")
        if detail["state"] == "done":
            break
        if detail["state"] in ("failed", "interrupted"):
            raise RuntimeError(f"sweep {sweep_id} {detail['state']}: {detail.get('error')}")
        time.sleep(POLL_SECONDS)
    status, grid = _call(address, "GET", f"/sweeps/{sweep_id}/grid")
    if status != 200:
        raise RuntimeError(f"grid answered {status}: {grid}")
    return grid["grid"], polls


def _wait_healthy(address: tuple[str, int], proc: subprocess.Popen) -> None:
    deadline = time.monotonic() + TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode} before answering /health")
        try:
            status, _ = _call(address, "GET", "/health")
            if status == 200:
                return
        except OSError:
            pass
        time.sleep(0.002)
    raise RuntimeError("server did not answer /health in time")


def _close(proc: subprocess.Popen) -> None:
    """Stop *proc* if it still runs, wait for it, and close its pipe."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _start(
    scratch: Path, trace: bool, cpu: set[int]
) -> tuple[subprocess.Popen, tuple[str, int], float]:
    """Spawn a server on an empty store under *scratch* and wait for ``/health``.

    Returns the server, its address and its set-up time (spawn until
    ``/health`` answers).
    """
    scratch.mkdir(parents=True)
    command = [
        sys.executable, str(Path(__file__).resolve()), "serve",
        "--cache-dir", str(scratch / "store"),
        "--checkpoint-root", str(scratch / "checkpoints"),
        "--trace", "1" if trace else "0",
        "--out", str(scratch / "server.json"),
    ]
    spawned = common.monotonic_ns()
    with open(scratch / "server.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, text=True,
            env=common.child_env(), cwd=common.ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpu),
        )
    try:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server printed no address")
        listening = json.loads(line)
        address = (listening["host"], listening["port"])
        _wait_healthy(address, proc)
    except BaseException:
        _close(proc)
        raise
    return proc, address, (common.monotonic_ns() - spawned) / 1e9


def _shutdown(proc: subprocess.Popen, address: tuple[str, int]) -> None:
    """Stop the server gracefully (``POST /shutdown``) and wait until it exits."""
    _call(address, "POST", "/shutdown")
    proc.wait(timeout=TIMEOUT_SECONDS)


def served_pass(seed: int, trace: bool, scratch: Path) -> dict:
    """One pass: fresh server, empty store, the whole request sequence.

    The server and this client share one CPU, so the probes the client runs
    between requests measure the speed of the CPU the server runs on.  One
    start-up per pass is too few for a steady ``setup_s``, so an untraced
    pass first starts and stops ``SETUP_STARTS - 1`` further servers that
    only measure their set-up.  Each start-up is followed by the probes
    that scale its set-up time.
    """
    references = common.load_refs("sweep-served")["cells"]
    sequence = request_sequence(seed)
    allowed = os.sched_getaffinity(0)
    cpu = common.bench_cpu()
    os.sched_setaffinity(0, cpu)
    setups: list[float] = []
    setup_probes: list[list[float]] = []
    try:
        for index in range(0 if trace else SETUP_STARTS - 1):
            proc, address, setup_s = _start(scratch / f"setup-{index}", False, cpu)
            try:
                setups.append(setup_s)
                setup_probes.append([common.probe() for _ in range(common.SETUP_PROBES)])
                _shutdown(proc, address)
            finally:
                _close(proc)
        proc, address, setup_s = _start(scratch / "pass", trace, cpu)
        try:
            setups.append(setup_s)
            setup_probes.append([common.probe() for _ in range(common.SETUP_PROBES)])
            samples: dict[str, list[float]] = {"fresh": [], "repeat": []}
            probes: dict[str, list[float]] = {"fresh": [], "repeat": []}
            failed: list[str] = []
            polls = 0
            counts = {"accesses": 0, "page_faults": 0, "page_fetches": 0}
            started = time.perf_counter()
            for kind, request in sequence:
                name = f"{kind} {request['apps'][0]}/{request['clusters'][0]}/{request['nodes']}"
                probe_s = common.probe()
                begun = time.perf_counter()
                try:
                    grid, request_polls = _sweep(address, request)
                except (OSError, RuntimeError, ValueError, KeyError) as exc:
                    failed.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                elapsed_ms = (time.perf_counter() - begun) * 1000.0
                polls += request_polls
                samples[kind].append(elapsed_ms)
                probes[kind].append(probe_s)
                if set(grid) != expected_labels(request) or any(
                    common.digest(report) != references.get(label) for label, report in grid.items()
                ):
                    failed.append(f"{name}: cells differ from the reference")
                if kind == "fresh":
                    for report in grid.values():
                        for key in counts:
                            counts[key] += int(report[key])
            wall_s = time.perf_counter() - started
            _shutdown(proc, address)
        finally:
            _close(proc)
    finally:
        os.sched_setaffinity(0, allowed)
    out_file = scratch / "pass" / "server.json"
    server = json.loads(out_file.read_text()) if out_file.exists() else {}
    if proc.returncode != 0 or not server:
        failed.append(f"server exited with {proc.returncode}")
    return {
        "setup_s": setups,
        "setup_probe_s": setup_probes,
        "wall_s": wall_s,
        "wall_probe_s": sum(probes["fresh"]) + sum(probes["repeat"]),
        "peak_rss_mb": server.get("peak_rss_mb", 0.0),
        "fresh_ms": samples["fresh"],
        "fresh_probe_s": probes["fresh"],
        "repeat_ms": samples["repeat"],
        "repeat_probe_s": probes["repeat"],
        "wall_kinds": ["fresh", "repeat"],
        "requests": len(sequence),
        "failed": failed,
        "polls": polls,
        "counts": counts,
        "trace": server.get("trace"),
        "process_cpu_s": server.get("process_cpu_s"),
        "balanced": server.get("balanced", True),
    }


def serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="served.py serve")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--checkpoint-root", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(common.SRC))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(time.thread_time_ns, per_thread_clock=True)
        tracing.install(tracer)
        tracer.start()
    from repro.harness.service import serve

    cpu_started = time.process_time()
    server = serve(
        host="127.0.0.1",
        port=0,
        jobs=1,
        workers=1,
        cache_dir=args.cache_dir,
        checkpoint_root=args.checkpoint_root,
        telemetry=True,
    )
    host, port = server.server_address[:2]
    common.emit({"host": host, "port": port})
    server.serve_until_shutdown()
    process_cpu_s = time.process_time() - cpu_started
    balanced = tracer.stop() if tracer is not None else True
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "process_cpu_s": process_cpu_s,
        "trace": tracer.summary() if tracer is not None else None,
        "balanced": balanced,
    }
    Path(args.out).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] != ["serve"]:
        sys.exit("usage: served.py serve --cache-dir D --checkpoint-root C --out F [--trace 0|1]")
    sys.exit(serve_main(sys.argv[2:]))
