"""The checkpoint record format: round trips, corruption, drift.

A checkpoint is only trustworthy if every ScenarioSpec field survives
the save/load round trip byte-exactly, and if every way the file can
go bad — truncation, hand-editing, schema drift, resuming against the
wrong scenario — fails loudly with a specific error *before* any
state is applied.  A partial restore would be worse than no restore.
"""

import json
import os

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointSchemaError,
    CheckpointSpecMismatch,
    load_checkpoint,
    restore,
    snapshot,
)
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments import (
    ResultCache,
    ScenarioSpec,
    warm_point_key,
)
from repro.faults import FaultSchedule, link_down, link_up
from repro.telemetry import WindowedMetrics
from repro.util import canonical_json_bytes


def checkpoint_for(spec, cycles=0):
    platform = build_platform(spec.to_platform_config())
    if cycles:
        platform.run(cycles)
    return platform, snapshot(platform, spec)


#: One spec with every field off its default, including the optional
#: fault schedule and telemetry window length.
FULL_SPEC = ScenarioSpec(
    topology="mesh:3:3",
    routing="shortest",
    switching="store_and_forward",
    arbitration="fixed_priority",
    buffer_depth=6,
    traffic="burst",
    load=0.3,
    length=5,
    packets=50,
    receptors="stochastic",
    seed=42,
    traffic_params={"mean_burst_packets": 4},
    faults=FaultSchedule(
        events=(link_down(200, 0, 1), link_up(600, 0, 1))
    ),
    telemetry_windows=250,
)


def test_every_spec_field_round_trips(tmp_path):
    _, checkpoint = checkpoint_for(FULL_SPEC)
    path = str(tmp_path / "full.json")
    digest = checkpoint.save(path)
    loaded = load_checkpoint(path, spec=FULL_SPEC)
    assert loaded.spec == FULL_SPEC
    assert loaded.spec.to_dict() == FULL_SPEC.to_dict()
    assert loaded.content_hash == checkpoint.content_hash == digest
    assert loaded.state == checkpoint.state
    # The embedded fault schedule round-trips as a real FaultSchedule.
    assert isinstance(loaded.spec.faults, FaultSchedule)
    assert loaded.spec.faults.to_dict() == FULL_SPEC.faults.to_dict()


def test_save_bytes_are_the_canonical_record(tmp_path):
    """save() encodes the state once and splices the hash in; the file
    must still be the canonical encoding of to_dict(), on a cut with
    repaired routes (between link_down and link_up) mid-window."""
    platform = build_platform(FULL_SPEC.to_platform_config())
    engine = EmulationEngine(
        platform,
        faults=FULL_SPEC.faults,
        telemetry=WindowedMetrics(platform, FULL_SPEC.telemetry_windows),
    )
    engine.run(max_cycles=400, finalize=False)
    checkpoint = snapshot(platform, FULL_SPEC, engine)
    assert checkpoint.state["faults"]["injector"]["dead_pairs"]
    assert checkpoint.state["telemetry"]["base"] is not None
    path = tmp_path / "cut.json"
    digest = checkpoint.save(str(path))
    assert digest == checkpoint.content_hash
    assert path.read_bytes() == canonical_json_bytes(checkpoint.to_dict())
    assert os.listdir(str(tmp_path)) == ["cut.json"]


def test_healthy_spec_omits_optional_keys(tmp_path):
    """faults/telemetry_windows stay absent from the stored spec of a
    healthy run, keeping its canonical form (and spec hash) identical
    to pre-checkpoint specs."""
    spec = ScenarioSpec(load=0.5, packets=30, seed=3)
    _, checkpoint = checkpoint_for(spec)
    path = str(tmp_path / "healthy.json")
    checkpoint.save(path)
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    assert "faults" not in record["spec"]
    assert "telemetry_windows" not in record["spec"]
    assert load_checkpoint(path).spec == spec


def test_checkpoint_hash_is_deterministic():
    spec = ScenarioSpec(load=0.5, packets=30, seed=3)
    _, a = checkpoint_for(spec, cycles=300)
    _, b = checkpoint_for(spec, cycles=300)
    assert a.state == b.state
    assert a.content_hash == b.content_hash
    _, c = checkpoint_for(spec, cycles=301)
    assert c.content_hash != a.content_hash


# ----------------------------------------------------------------------
# Corruption and schema drift: every failure is specific and total.
# ----------------------------------------------------------------------

def saved(tmp_path, spec=None, cycles=200):
    spec = spec or ScenarioSpec(load=0.5, packets=30, seed=3)
    _, checkpoint = checkpoint_for(spec, cycles=cycles)
    path = str(tmp_path / "cp.json")
    checkpoint.save(path)
    return path, spec


def test_truncated_file_is_corrupt(tmp_path):
    path, _ = saved(tmp_path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointCorruptError, match="not valid JSON"):
        load_checkpoint(path)


def test_missing_file_is_corrupt(tmp_path):
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(str(tmp_path / "nope.json"))


def test_non_object_payload_is_corrupt(tmp_path):
    path = str(tmp_path / "cp.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[1, 2, 3]")
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


def test_wrong_schema_version_is_drift(tmp_path):
    path, _ = saved(tmp_path)
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    record["schema"] = CHECKPOINT_SCHEMA + 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    with pytest.raises(CheckpointSchemaError, match="schema"):
        load_checkpoint(path)


def test_tampered_state_fails_the_hash(tmp_path):
    path, _ = saved(tmp_path)
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    record["state"]["cycle"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    with pytest.raises(CheckpointCorruptError, match="hash"):
        load_checkpoint(path)


def test_corrupt_load_restores_nothing(tmp_path):
    """A file that is not JSON fails the load before any state is
    applied."""
    path, _ = saved(tmp_path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


def test_spec_mismatch_names_both_hashes(tmp_path):
    """Regression: resuming against the wrong scenario must fail with
    a structured error carrying both content hashes, so the operator
    can see *which* two specs disagreed."""
    path, spec = saved(tmp_path)
    other = ScenarioSpec(load=0.6, packets=30, seed=3)
    with pytest.raises(CheckpointSpecMismatch) as excinfo:
        load_checkpoint(path, spec=other)
    err = excinfo.value
    assert err.expected_key == other.key
    assert err.found_key == spec.key
    assert other.key in str(err)
    assert spec.key in str(err)
    # Without a spec to check against, the same file loads fine.
    assert load_checkpoint(path).spec == spec


def test_from_dict_rejects_missing_fields():
    spec = ScenarioSpec(load=0.5, packets=30, seed=3)
    _, checkpoint = checkpoint_for(spec)
    record = checkpoint.to_dict()
    for key in ("hash", "spec", "state"):
        broken = dict(record)
        del broken[key]
        with pytest.raises(CheckpointCorruptError):
            Checkpoint.from_dict(broken)


@pytest.mark.parametrize(
    "path, value, match",
    [
        (["links"], None, "links"),
        (["nis", 3, "credits"], None, r"nis\[3\]\.credits"),
        (["switches", 1, "outputs", 0, "arbiter", "grants"], None,
         r"switches\[1\]\.outputs\[0\]\.arbiter\.grants"),
        (["generators", 0, "model", "next_emission"], None,
         r"generators\[0\]\.model\.next_emission"),
        (["cycle"], "x", "malformed"),
        (["generators", 0, "model"], "x", "malformed"),
        (["next_pid"], "x", "malformed"),
    ],
    ids=["no-links", "ni-credits", "arbiter-grants", "model-field",
         "cycle-type", "model-type", "next-pid-type"],
)
def test_malformed_state_is_a_checkpoint_error(path, value, match):
    """A record whose hash is valid but whose state is malformed fails
    restore with a structured error naming what is wrong."""
    spec = ScenarioSpec(load=0.5, packets=30, seed=3)
    _, checkpoint = checkpoint_for(spec, cycles=200)
    state = json.loads(json.dumps(checkpoint.state))
    *parents, key = path
    node = state
    for part in parents:
        node = node[part]
    if value is None:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(CheckpointError, match=match):
        restore(Checkpoint(spec=spec, state=state))


# ----------------------------------------------------------------------
# Warm-start cache keys: warm and cold runs must never collide.
# ----------------------------------------------------------------------

def test_warm_key_differs_from_cold_and_tracks_inputs():
    spec = ScenarioSpec(load=0.5, packets=30, seed=3)
    key = warm_point_key(spec, "abc123", load=0.5, max_cycles=1000)
    assert key != spec.key
    assert key != warm_point_key(spec, "def456", load=0.5, max_cycles=1000)
    assert key != warm_point_key(spec, "abc123", load=0.6, max_cycles=1000)
    assert key != warm_point_key(spec, "abc123", load=0.5, max_cycles=2000)
    assert key == warm_point_key(spec, "abc123", load=0.5, max_cycles=1000)


def test_cache_raw_key_round_trip(tmp_path):
    from repro.experiments.runner import RECORD_SCHEMA

    cache = ResultCache(str(tmp_path / "cache"))
    key = "deadbeefdeadbeef"
    record = {
        "schema": RECORD_SCHEMA,
        "key": key,
        "metrics": {"mean_latency": 12.5},
    }
    assert cache.get_record(key) is None
    cache.put_record(key, record)
    assert cache.get_record(key) == record
    # A key mismatch is a programming error, not a silent mis-file.
    with pytest.raises(ValueError):
        cache.put_record("somewhereelse", record)
    # Corruption degrades to a miss, exactly like the spec-keyed path.
    with open(cache.path_for(key), "w", encoding="utf-8") as fh:
        fh.write("{broken")
    assert cache.get_record(key) is None
