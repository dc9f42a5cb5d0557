"""Concurrency, corruption and schema behaviour of the ResultStore."""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec
from repro.harness.store import (
    MANIFEST_NAME,
    QUARANTINE_DIR,
    ResultStore,
    StoreSchemaError,
)


def _spec(app="pi", nodes=1):
    return ExperimentSpec(app, "myrinet", "java_ic", nodes, "testing")


def _race_worker(args):
    """Run the same cell through a fresh store handle (separate process)."""
    store_root, app, nodes = args
    session = Session(store=ResultStore(store_root))
    report = session.run_one(_spec(app, nodes))
    return report.to_dict()


# ---------------------------------------------------------------------------
# concurrent writers
# ---------------------------------------------------------------------------
def test_two_processes_racing_the_same_cell(tmp_path):
    """Two processes writing the same cell never corrupt the entry."""
    root = str(tmp_path / "store")
    with ProcessPoolExecutor(max_workers=2) as pool:
        dicts = list(pool.map(_race_worker, [(root, "pi", 1), (root, "pi", 1)]))
    assert dicts[0] == dicts[1]
    # whichever writer won, the stored entry round-trips byte-identically
    store = ResultStore(root)
    cached = store.get(_spec())
    assert cached is not None
    assert cached.to_dict() == dicts[0]
    assert store.quarantined == 0


def test_many_processes_disjoint_cells(tmp_path):
    """A pool writing disjoint cells sees every entry land."""
    root = str(tmp_path / "store")
    cells = [("pi", 1), ("pi", 2), ("jacobi", 1), ("jacobi", 2)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        list(pool.map(_race_worker, [(root, app, n) for app, n in cells]))
    store = ResultStore(root)
    assert len(store) == len(cells)
    for app, nodes in cells:
        assert store.get(_spec(app, nodes)) is not None


# ---------------------------------------------------------------------------
# corruption quarantine
# ---------------------------------------------------------------------------
def test_corrupt_entry_is_quarantined_not_raised(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = _spec()
    report = Session(store=store).run_one(spec)
    path = store.path_for(spec.cache_key())
    # simulate a writer killed mid-write: truncated JSON on disk
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    fresh = ResultStore(tmp_path / "store")
    assert fresh.get(spec) is None  # miss, not crash
    assert fresh.quarantined == 1
    assert not path.exists()
    quarantined = list((tmp_path / "store" / QUARANTINE_DIR).iterdir())
    assert len(quarantined) == 1
    # the cell recomputes and caches cleanly afterwards
    again = Session(store=fresh).run_one(spec)
    assert again.to_dict() == report.to_dict()
    assert fresh.get(spec) is not None


def test_garbage_entry_is_quarantined(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = _spec()
    store.path_for(spec.cache_key()).write_text('{"not": "a result payload"}')
    assert store.get(spec) is None
    assert store.quarantined == 1


# ---------------------------------------------------------------------------
# manifest / schema stamping
# ---------------------------------------------------------------------------
def test_manifest_written_and_not_counted(tmp_path):
    store = ResultStore(tmp_path / "store")
    manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
    assert manifest["format"] == "hyperion-result-store"
    assert len(store) == 0  # the manifest is not an entry


def test_foreign_manifest_raises_schema_error(tmp_path):
    root = tmp_path / "store"
    ResultStore(root)
    manifest_path = root / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = "something-else"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreSchemaError):
        ResultStore(root)


@pytest.mark.parametrize("content", ["[]", "[1]", '"hyperion-result-store"', "5", "null"])
def test_non_object_manifest_raises_schema_error(tmp_path, content):
    root = tmp_path / "store"
    ResultStore(root)
    (root / MANIFEST_NAME).write_text(content)
    with pytest.raises(StoreSchemaError, match="not an object"):
        ResultStore(root)


def test_stale_entry_schema_is_a_miss(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = _spec()
    Session(store=store).run_one(spec)
    path = store.path_for(spec.cache_key())
    payload = json.loads(path.read_text())
    payload["schema"] = -1
    path.write_text(json.dumps(payload))
    fresh = ResultStore(tmp_path / "store")
    assert fresh.get(spec) is None  # stale, recompute
    assert fresh.quarantined == 0  # ... but not corrupt


# ---------------------------------------------------------------------------
# write-behind mode
# ---------------------------------------------------------------------------
def test_write_behind_buffers_until_flush(tmp_path):
    root = tmp_path / "store"
    store = ResultStore(root, write_behind=True)
    spec = _spec()
    report = Session(store=store).run_one(spec)
    # nothing on disk yet, but the handle itself serves the pending entry
    assert ResultStore(root).get(spec) is None
    pending = store.get(spec)
    assert pending is not None and pending.to_dict() == report.to_dict()
    store.flush()
    cached = ResultStore(root).get(spec)
    assert cached is not None and cached.to_dict() == report.to_dict()


def test_write_behind_context_manager_flushes(tmp_path):
    root = tmp_path / "store"
    spec = _spec()
    with ResultStore(root, write_behind=True) as store:
        Session(store=store).run_one(spec)
    assert ResultStore(root).get(spec) is not None
