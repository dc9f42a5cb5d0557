"""On-disk artifacts and identities that must not drift between versions.

* cache keys are pinned as literal hex strings, so a change to how keys are
  computed (the process-wide form memo included) cannot orphan a store;
* a cell's telemetry metrics are pinned as a digest;
* checkpoint shard files carry cells and counters, not ledgers;
* stores and checkpoints written in the older layout (``indent=2``
  entries and ledgers, shard files with a ``telemetry`` key) still read.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.harness.jobs import CHECKPOINT_SCHEMA, SweepJob, _run_shard
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import Session
from repro.harness.spec import CACHE_SCHEMA_VERSION, ExperimentSpec, run_spec
from repro.harness.store import (
    MANIFEST_NAME,
    STORE_FORMAT,
    STORE_VERSION,
    TELEMETRY_DIR,
    ResultStore,
    report_to_payload,
)
from repro.hyperion.runtime import RuntimeConfig

GOLDEN_KEYS = [
    (
        ExperimentSpec("pi", "myrinet", "java_ic", 4, workload="testing"),
        "6925155af0b1f5b4098684020f1c1ffaa3b90273944d6f49db80370ff45bb971",
    ),
    (
        ExperimentSpec("pi", "sci", "java_pf", 2, workload="testing"),
        "de685dc766821d46eb06ee304f5203eecb9b53517a890ff8eeb7d408fd1b1f70",
    ),
    (
        ExperimentSpec("asp", "myrinet", "java_pf", 8),
        "b06b2dbb12b7a8ee3906b268423abc49f0f41c772aacf599d3c26dde5ee076c7",
    ),
    (
        ExperimentSpec("asp", "sci", "java_ic", 6, workload="paper"),
        "82326ef5a5e06a5786c505d51b4e17f8ba68c8492e7ea1ce1155ccac92f4818f",
    ),
    (
        ExperimentSpec("syn-false-sharing", "myrinet", "java_pf", 4, workload="testing"),
        "012b5c4ace8edff31e6dd72069b9387420059f1d273040c7963643ef8fa9dd36",
    ),
    (
        ExperimentSpec(
            "jacobi",
            "myrinet",
            "java_pf",
            2,
            workload="testing",
            config=RuntimeConfig(threads_per_node=2, seed=7, page_size=8192),
        ),
        "6973ad9555337c4305b2e071b6ede453e2dd4d69e401b59f95574714b734fe3e",
    ),
    (
        ExperimentSpec("pi", "myrinet", "java_ic", 4, workload="testing", telemetry=True),
        "6925155af0b1f5b4098684020f1c1ffaa3b90273944d6f49db80370ff45bb971",
    ),
]

#: equal values of different types encode differently, so keys differ
GOLDEN_SEED_KEYS = [
    (1, "3e19b631cdf02e9bb1be30158a640542b4f322ab417e6f93066f96039c144ac1"),
    (True, "246be97e752173e0d74ae2153d1b3b7a369ea7bccda131a2b1a6b4c4548e7b9c"),
    (1.0, "8a7c41f1111b8e6aa91b6d19ca2c5709ebe2c50c782b76a0581707fe7a0f1c22"),
    # 0.0 == -0.0 and both hash alike, but they encode as "0.0" and "-0.0"
    (0.0, "dfa609da7cd466fdff9f1d6c02581b82a967da5bb604ede11ddb302d338a00db"),
    (-0.0, "cd8c66df67c29a253104e0177c64add0cfc8015da61864d93f96131845d5ae3b"),
]

#: sha256 of RunTelemetry.to_dict()["metrics"] (sorted, compact JSON)
GOLDEN_METRICS = [
    (
        ExperimentSpec("pi", "myrinet", "java_pf", 2, workload="testing", telemetry=True),
        "ab7027de9ed2cdef0ee6abb79c177f9e8fbaead6657a373489686a41dbdcf745",
        {"Process": 3.0, "SimEvent": 14.0, "Timeout": 12.0},
        3,
    ),
    (
        ExperimentSpec(
            "syn-hot-lock", "myrinet", "java_ic", 4, workload="testing", telemetry=True
        ),
        "0ed1aa8b492d818c51ead063ebb0516c0d62e02229ed28015f121a0c43e084d6",
        {"Process": 5.0, "SimEvent": 114.0, "Timeout": 147.0},
        7,
    ),
]


def _fresh(spec: ExperimentSpec) -> ExperimentSpec:
    """An equal spec instance that has not memoised its own key."""
    return ExperimentSpec(
        spec.app,
        spec.cluster,
        spec.protocol,
        spec.num_nodes,
        workload=spec.workload,
        config=spec.config,
        telemetry=spec.telemetry,
    )


def _canonical_key(spec: ExperimentSpec) -> str:
    payload = json.dumps(
        spec.canonical_dict(), sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("spec,key", GOLDEN_KEYS, ids=lambda v: getattr(v, "app", ""))
def test_golden_cache_keys(spec, key):
    assert spec.cache_key() == key
    # a second instance is served by the memo and must agree
    assert _fresh(spec).cache_key() == key
    assert _canonical_key(spec) == key


def test_equal_values_of_other_types_keep_their_own_keys():
    for seed, key in GOLDEN_SEED_KEYS:
        spec = ExperimentSpec(
            "pi", "myrinet", "java_pf", 2, "testing", config=RuntimeConfig(seed=seed)
        )
        assert spec.cache_key() == key
    # and again in reverse order, with every key now memoised
    for seed, key in reversed(GOLDEN_SEED_KEYS):
        spec = ExperimentSpec(
            "pi", "myrinet", "java_pf", 2, "testing", config=RuntimeConfig(seed=seed)
        )
        assert spec.cache_key() == key


def test_mutating_a_canonical_dict_changes_nothing():
    spec = GOLDEN_KEYS[0][0]
    first = spec.canonical_dict()
    first["cluster"]["machine"]["__class__"] = "tampered"
    first["config"]["seed"] = -1
    first["workload"].clear()
    second = _fresh(spec).canonical_dict()
    assert second != first
    assert second["config"]["seed"] == RuntimeConfig().seed
    assert _fresh(spec).cache_key() == GOLDEN_KEYS[0][1]


class _MutableWorkload:
    """A plain-object workload: its key follows its attributes."""

    def __init__(self, intervals):
        self.intervals = intervals


def test_mutable_workload_is_never_memoised():
    workload = _MutableWorkload(100)
    before = ExperimentSpec("pi", "myrinet", "java_pf", 1, workload).cache_key()
    workload.intervals = 200
    after = ExperimentSpec("pi", "myrinet", "java_pf", 1, workload).cache_key()
    assert before != after


@pytest.mark.parametrize("app", ["jacobi", "syn-false-sharing"])
def test_report_payload_stats_match_asdict(app):
    report = run_spec(ExperimentSpec(app, "myrinet", "java_pf", 4, workload="testing"))
    stats = report.stats
    assert stats.dsm.fetches_by_node  # the dict fields are exercised
    payload = report_to_payload(report)["stats"]
    for name in ("dsm", "monitors", "threads"):
        expected = dataclasses.asdict(getattr(stats, name))
        assert json.dumps(payload[name]) == json.dumps(expected)
    # the dict fields are copies, not the live counters
    payload["dsm"]["fetches_by_node"].clear()
    assert stats.dsm.fetches_by_node


# ---------------------------------------------------------------------------
# telemetry metrics and checkpoint contents
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec,digest,events,depth", GOLDEN_METRICS, ids=lambda v: getattr(v, "app", "")
)
def test_golden_telemetry_metrics(spec, digest, events, depth):
    metrics = run_spec(spec).telemetry.to_dict()["metrics"]
    families = metrics["families"]
    dispatched = {
        entry["labels"]["kind"]: entry["value"]
        for entry in families["sim_events_dispatched_total"]["series"]
    }
    assert dispatched == events
    assert families["sim_event_queue_depth_peak"]["series"] == [
        {"labels": {}, "value": depth}
    ]
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.fixture(scope="module")
def grid_specs():
    return (
        ExperimentMatrix()
        .apps("pi", "syn-hot-lock")
        .clusters("myrinet")
        .protocols("java_ic", "java_pf")
        .nodes(1, 2)
        .workload("testing")
        .build()
    )


@pytest.fixture(scope="module")
def serial_text(grid_specs):
    return json.dumps(Session().run(grid_specs).to_dict(), sort_keys=True)


def test_checkpoint_shards_hold_no_ledgers(grid_specs, tmp_path):
    ckpt = tmp_path / "ckpt"
    job = SweepJob(
        grid_specs,
        checkpoint_dir=ckpt,
        shard_size=3,
        store=ResultStore(tmp_path / "cache"),
        telemetry=True,
    )
    job.run()
    shard_files = sorted(ckpt.glob("shard-*.json"))
    assert len(shard_files) == len(job.shards)
    for path in shard_files:
        payload = json.loads(path.read_text())
        assert "telemetry" not in payload
        assert payload["job_key"] == job.job_key()
        assert payload["executed"] == len(payload["cells"])
    ledgers = job.telemetry()["ledgers"]
    assert len(ledgers) == job.progress.executed_cells == len(grid_specs)
    assert sorted(ledger["cache_key"] for ledger in ledgers) == sorted(
        spec.cache_key() for spec in grid_specs
    )
    # the ledgers live in the store instead
    store = ResultStore(tmp_path / "cache")
    assert all(store.get_telemetry(spec) is not None for spec in grid_specs)


# ---------------------------------------------------------------------------
# artifacts in the older layout
# ---------------------------------------------------------------------------
def _write_indented_store(root, specs):
    """A store as older versions wrote it: every file is ``indent=2`` JSON."""
    root.mkdir()
    (root / MANIFEST_NAME).write_text(
        json.dumps(
            {
                "format": STORE_FORMAT,
                "store_version": STORE_VERSION,
                "entry_schema": CACHE_SCHEMA_VERSION,
            },
            indent=2,
        )
    )
    (root / TELEMETRY_DIR).mkdir()
    telemetered = [dataclasses.replace(spec, telemetry=True) for spec in specs]
    reports = Session().run(telemetered)
    for spec in telemetered:
        report = reports[spec]
        key = spec.cache_key()
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "spec": spec.describe(),
            "report": report_to_payload(report),
        }
        (root / f"{key}.json").write_text(json.dumps(entry, indent=2))
        (root / TELEMETRY_DIR / f"{key}.json").write_text(
            json.dumps(report.telemetry.to_dict(), indent=2)
        )


def test_indented_store_entries_are_cache_hits(grid_specs, serial_text, tmp_path):
    root = tmp_path / "cache"
    _write_indented_store(root, grid_specs)
    store = ResultStore(root)
    result = Session(store=store).run(grid_specs)
    assert result.executed == 0
    assert result.cache_hits == len(grid_specs)
    assert json.dumps(result.to_dict(), sort_keys=True) == serial_text
    assert store.quarantined == 0
    for spec in grid_specs:
        assert store.get_telemetry(spec)["cache_key"] == spec.cache_key()


def test_resume_reads_shards_that_carry_ledgers(grid_specs, serial_text, tmp_path):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    old = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3, telemetry=True)
    (ckpt / "job.json").write_text(
        json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "job_key": old.job_key(),
                "total_cells": len(old.specs),
                "shard_size": old.shard_size,
                "num_shards": len(old.shards),
            }
        )
    )
    for index, shard in enumerate(old.shards):
        outcome = _run_shard(index, shard, None)
        assert len(outcome["telemetry"]) == len(shard)
        payload = {"schema": CHECKPOINT_SCHEMA, "job_key": old.job_key(), **outcome}
        (ckpt / f"shard-{index:04d}.json").write_text(json.dumps(payload))

    job = SweepJob(
        grid_specs, checkpoint_dir=ckpt, shard_size=3, resume=True, telemetry=True
    )
    result = job.run()
    assert job.progress.executed_cells == 0
    assert job.progress.resumed_cells == len(grid_specs)
    assert json.dumps(result.to_dict(), sort_keys=True) == serial_text
