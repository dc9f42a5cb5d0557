"""Sharded, checkpointed, resumable sweeps: SweepJob and the grid CLI."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.jobs import (
    CheckpointMismatch,
    SweepInterrupted,
    SweepJob,
    SweepProgress,
)
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import Session
from repro.harness.store import ResultStore


@pytest.fixture(scope="module")
def grid_specs():
    return (
        ExperimentMatrix()
        .apps("pi", "jacobi")
        .clusters("myrinet")
        .protocols("java_ic", "java_pf")
        .nodes(1, 2)
        .workload("testing")
        .build()
    )


@pytest.fixture(scope="module")
def serial_dict(grid_specs):
    return Session().run(grid_specs).to_dict()


# ---------------------------------------------------------------------------
# shard layout and accounting
# ---------------------------------------------------------------------------
def test_shard_layout_and_dedup(grid_specs):
    job = SweepJob(grid_specs + grid_specs, shard_size=3)
    assert len(job.specs) == len(grid_specs)  # duplicates collapse
    assert [len(s) for s in job.shards] == [3, 3, 2]
    assert job.progress.total_shards == 3
    assert job.progress.total_cells == 8


def test_job_key_depends_on_grid_and_shard_size(grid_specs):
    base = SweepJob(grid_specs, shard_size=3).job_key()
    assert SweepJob(grid_specs, shard_size=3).job_key() == base
    assert SweepJob(grid_specs, shard_size=2).job_key() != base
    assert SweepJob(grid_specs[:4], shard_size=3).job_key() != base


def test_progress_eta_and_render():
    progress = SweepProgress(total_cells=10, total_shards=5)
    assert progress.eta_seconds is None  # nothing finished yet
    progress.completed_cells = 5
    progress.completed_shards = 2
    progress.elapsed_seconds = 10.0
    assert progress.eta_seconds == pytest.approx(10.0)  # same rate ahead
    assert progress.percent == pytest.approx(50.0)
    assert "2/5" in progress.render() and "50.0%" in progress.render()
    # resumed cells don't count toward the rate estimate
    resumed = SweepProgress(
        total_cells=10, completed_cells=5, resumed_cells=5, elapsed_seconds=3.0
    )
    assert resumed.eta_seconds is None
    payload = progress.to_dict()
    assert payload["done"] is False and payload["completed_cells"] == 5


def test_job_result_matches_serial_run(grid_specs, serial_dict, tmp_path):
    job = SweepJob(grid_specs, checkpoint_dir=tmp_path / "ckpt", shard_size=3)
    result = job.run()
    assert result.to_dict() == serial_dict
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        serial_dict, sort_keys=True
    )
    assert job.progress.done and job.progress.executed_cells == len(grid_specs)


def test_progress_callback_fires_per_shard(grid_specs, tmp_path):
    snapshots = []
    job = SweepJob(
        grid_specs,
        checkpoint_dir=tmp_path / "ckpt",
        shard_size=2,
        progress_callback=lambda p: snapshots.append(p.completed_shards),
    )
    job.run()
    assert snapshots == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# resume semantics
# ---------------------------------------------------------------------------
def test_resume_recomputes_nothing(grid_specs, serial_dict, tmp_path):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3).run()
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3, resume=True)
    result = job.run()
    assert job.progress.resumed_cells == len(grid_specs)
    assert job.progress.executed_cells == 0  # zero recomputed cells
    assert result.to_dict() == serial_dict
    assert all(result.cell(spec).cached for spec in grid_specs)


def test_interrupt_then_resume(grid_specs, serial_dict, tmp_path):
    ckpt = tmp_path / "ckpt"
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2)
    job.progress_callback = (
        lambda p: job.request_stop() if p.completed_shards >= 2 else None
    )
    with pytest.raises(SweepInterrupted) as excinfo:
        job.run()
    assert excinfo.value.progress.completed_cells == 4
    resumed = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2, resume=True)
    result = resumed.run()
    assert resumed.progress.resumed_cells == 4
    assert resumed.progress.executed_cells == len(grid_specs) - 4
    assert result.to_dict() == serial_dict


def test_truncated_shard_checkpoint_recomputes_only_that_shard(
    grid_specs, serial_dict, tmp_path
):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2).run()
    shard_file = ckpt / "shard-0001.json"
    shard_file.write_text(shard_file.read_text()[:40])  # killed mid-write
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2, resume=True)
    result = job.run()
    assert job.progress.resumed_cells == len(grid_specs) - 2
    assert job.progress.executed_cells == 2
    assert result.to_dict() == serial_dict


def _cells_not_objects(path):
    payload = json.loads(path.read_text())
    payload["cells"] = [1, 2]
    return payload


@pytest.mark.parametrize(
    "filename, rewrite, recomputed",
    [
        # a non-object shard is corrupt: that shard alone recomputes
        ("shard-0000.json", lambda path: [], 2),
        # a non-object manifest counts as absent: every shard still resumes
        ("job.json", lambda path: [1], 0),
        # non-object cells make the shard corrupt too
        ("shard-0001.json", _cells_not_objects, 2),
    ],
    ids=["shard-list", "manifest-list", "cells-not-objects"],
)
def test_wrong_shape_checkpoint_json_recomputes(
    grid_specs, serial_dict, tmp_path, filename, rewrite, recomputed
):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2).run()
    path = ckpt / filename
    path.write_text(json.dumps(rewrite(path)))
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2, resume=True)
    result = job.run()
    assert job.progress.executed_cells == recomputed
    assert job.progress.resumed_cells == len(grid_specs) - recomputed
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        serial_dict, sort_keys=True
    )
    # the damaged file was replaced by a well-formed one
    assert isinstance(json.loads(path.read_text()), dict)


def test_resume_against_foreign_checkpoints_is_an_error(grid_specs, tmp_path):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2).run()
    with pytest.raises(CheckpointMismatch):
        SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3, resume=True).run()


def test_fresh_run_clears_stale_checkpoints(grid_specs, tmp_path):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2).run()
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2)  # no resume
    result = job.run()
    assert job.progress.resumed_cells == 0
    assert job.progress.executed_cells == len(grid_specs)
    assert len(result) == len(grid_specs)


def test_resume_without_checkpoint_dir_raises(grid_specs):
    with pytest.raises(ValueError, match="checkpoint_dir"):
        SweepJob(grid_specs, resume=True)


# ---------------------------------------------------------------------------
# process-pool path and the store
# ---------------------------------------------------------------------------
def test_parallel_job_with_shared_store(grid_specs, serial_dict, tmp_path):
    store = ResultStore(tmp_path / "store")
    job = SweepJob(
        grid_specs, checkpoint_dir=tmp_path / "ckpt", shard_size=2, jobs=2, store=store
    )
    assert job.run().to_dict() == serial_dict
    # a later job (no checkpoints at all) is served entirely by the store
    warm = SweepJob(grid_specs, shard_size=2, jobs=2, store=store)
    result = warm.run()
    assert warm.progress.executed_cells == 0
    assert warm.progress.cache_hits == len(grid_specs)
    assert result.to_dict() == serial_dict


# ---------------------------------------------------------------------------
# kill -9 and resume through the CLI
# ---------------------------------------------------------------------------
def _grid_argv(ckpt, extra=()):
    return [
        sys.executable,
        "-m",
        "repro.harness.cli",
        "grid",
        "--apps",
        "pi,jacobi",
        "--nodes",
        "1,2",
        "--scale",
        "testing",
        "--shard-size",
        "2",
        "--checkpoint-dir",
        str(ckpt),
        *extra,
    ]


def test_kill_and_resume_via_cli(tmp_path):
    """SIGKILL a grid run mid-sweep; --resume finishes without rerunning."""
    ckpt = tmp_path / "ckpt"
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.Popen(
        _grid_argv(ckpt),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # wait for at least one shard checkpoint, then kill hard
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if list(ckpt.glob("shard-*.json")):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test failure
            proc.kill()
    checkpointed = len(list(ckpt.glob("shard-*.json")))
    done = subprocess.run(
        _grid_argv(ckpt, extra=["--resume"]),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary = [l for l in done.stderr.splitlines() if "grid complete" in l][0]
    # "grid complete: 8 cells (resumed R, cache hits H, executed E)"
    resumed = int(summary.split("resumed ")[1].split(",")[0])
    executed = int(summary.split("executed ")[1].split(")")[0])
    assert resumed == 2 * checkpointed  # every checkpointed shard was reused
    assert resumed + executed == 8  # and nothing ran twice
    grid = json.loads(done.stdout)
    serial = Session().run(
        ExperimentMatrix()
        .apps("pi", "jacobi")
        .clusters("myrinet")
        .nodes(1, 2)
        .workload("testing")
    ).to_dict()
    assert grid == serial


# ---------------------------------------------------------------------------
# telemetry aggregation
# ---------------------------------------------------------------------------
def _family_total(families, name):
    return sum(entry["value"] for entry in families[name]["series"])


def test_job_telemetry_aggregates_ledgers_and_metrics(grid_specs, tmp_path):
    job = SweepJob(
        grid_specs,
        checkpoint_dir=tmp_path / "ckpt",
        shard_size=3,
        store=ResultStore(tmp_path / "cache"),
        telemetry=True,
    )
    assert job.telemetry_enabled
    assert all(spec.telemetry for spec in job.specs)
    job.run()
    payload = job.telemetry()
    assert len(payload["ledgers"]) == len(grid_specs)
    assert all(not ledger["cached"] for ledger in payload["ledgers"])
    families = payload["metrics"]["families"]
    assert _family_total(families, "sweep_shards_completed_total") == 3
    assert _family_total(families, "sweep_cells_completed_total") == 8
    assert _family_total(families, "sweep_cells_executed_total") == 8
    assert "sim_events_dispatched_total" in families
    assert "store_gets_total" in families
    assert "sweep_shard_host_seconds" in families


def test_job_resume_counts_resumed_shards_without_ledgers(grid_specs, tmp_path):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3, telemetry=True).run()
    job = SweepJob(
        grid_specs, checkpoint_dir=ckpt, shard_size=3, resume=True, telemetry=True
    )
    job.run()
    payload = job.telemetry()
    # resumed shards contribute counters, not host artifacts
    assert payload["ledgers"] == []
    families = payload["metrics"]["families"]
    assert _family_total(families, "sweep_shards_resumed_total") == 3
    assert _family_total(families, "sweep_cells_resumed_total") == 8


def test_job_without_telemetry_keeps_sweep_counters_only(grid_specs, tmp_path):
    job = SweepJob(grid_specs, shard_size=4)
    assert not job.telemetry_enabled
    job.run()
    payload = job.telemetry()
    assert payload["ledgers"] == []
    families = payload["metrics"]["families"]
    assert _family_total(families, "sweep_cells_completed_total") == 8
    assert "sim_events_dispatched_total" not in families
