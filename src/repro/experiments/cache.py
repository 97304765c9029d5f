"""On-disk result cache keyed by scenario content hash.

The hardware flow caches synthesis on the *hardware signature* so
software-only changes re-use the bitstream (Slide 13); the sweep layer
applies the same idea one level up: a finished scenario's metric
record is cached on the spec's content hash, so re-running a sweep
only executes scenarios whose definition actually changed.  Editing
one axis value of a 100-point sweep re-emulates the affected points
and serves the other ~90 from disk in milliseconds.

Layout: one canonical-JSON file per scenario under the cache root,
named ``<key>.json``.  Records are written atomically (temp file +
rename) so a crashed or killed sweep never leaves a truncated record
a later run would trust; unreadable, schema-mismatched or key-
mismatched files read as misses, never as errors — and are
*quarantined* in the same motion: the bad file is atomically renamed
to ``<key>.corrupt`` (preserved for post-mortem, skipped by
:meth:`ResultCache.keys`) so the sweep re-runs the scenario once and
overwrites the slot, instead of silently re-parsing the same corrupt
bytes on every future run.  The per-instance ``corrupt_quarantined``
counter surfaces in the sweep's
:class:`~repro.experiments.resilience.SweepReport`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.util import atomic_write, canonical_json_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.spec import ScenarioSpec

#: Default cache directory of the CLI (relative to the working dir).
DEFAULT_CACHE_DIR = ".repro-cache"


def _canonical(record: Mapping[str, Any]) -> bytes:
    """The byte form stored on disk: canonical, key-sorted JSON."""
    return canonical_json_bytes(record)


class ResultCache:
    """A directory of scenario records addressed by content hash."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        #: Corrupt entries renamed to ``<key>.corrupt`` by this
        #: instance; sweep runs surface the delta in their report.
        self.corrupt_quarantined = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def corrupt_path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.corrupt")

    def _quarantine(self, key: str) -> None:
        """Atomically move a bad entry aside so it cannot be re-read
        as a miss forever; counted only when this process wins the
        rename (concurrent readers race benignly — exactly one
        succeeds, the rest see the file already gone)."""
        try:
            os.replace(self.path_for(key), self.corrupt_path_for(key))
        except OSError:
            return
        self.corrupt_quarantined += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, spec: "ScenarioSpec") -> Optional[Dict[str, Any]]:
        """The stored record for ``spec``, or None on any miss.

        Corruption, schema drift and (vanishingly unlikely) hash
        collisions all degrade to a miss: the scenario simply re-runs
        and overwrites the slot.  Corrupt and drifted entries are
        additionally quarantined to ``<key>.corrupt``; a genuine hash
        collision (valid record, matching key, different spec) is a
        plain miss — the entry is someone else's valid data.
        """
        raw = self.get_bytes(spec.key)
        if raw is None:
            return None
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            self._quarantine(spec.key)
            return None
        if not isinstance(record, dict):
            self._quarantine(spec.key)
            return None
        from repro.experiments.runner import RECORD_SCHEMA

        if record.get("schema") != RECORD_SCHEMA:
            self._quarantine(spec.key)
            return None
        if record.get("key") != spec.key:
            self._quarantine(spec.key)
            return None
        # Hash collision guard: the full spec must match.  Compare in
        # canonical JSON form — the live spec holds tuples where the
        # JSON round trip yields lists, and those must compare equal.
        if _canonical(record.get("spec", {})) != _canonical(
            spec.to_dict()
        ):
            return None
        if not isinstance(record.get("metrics"), dict):
            self._quarantine(spec.key)
            return None
        return record

    def get_bytes(self, key: str) -> Optional[bytes]:
        """Raw stored bytes for a key (byte-identity checks in tests)."""
        try:
            with open(self.path_for(key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record under an explicit ``key``, or None.

        The raw-key twin of :meth:`get` for records whose key is not
        a bare spec hash — warm-started sweep points fold the ramp
        checkpoint's content hash into their key, so warm and cold
        runs of the same spec cache separately.  Same degradation
        rules: corruption, schema drift or a key mismatch read as a
        quarantined miss, never as an error.
        """
        raw = self.get_bytes(key)
        if raw is None:
            return None
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            self._quarantine(key)
            return None
        if not isinstance(record, dict):
            self._quarantine(key)
            return None
        from repro.experiments.runner import RECORD_SCHEMA

        if record.get("schema") != RECORD_SCHEMA:
            self._quarantine(key)
            return None
        if record.get("key") != key:
            self._quarantine(key)
            return None
        if not isinstance(record.get("metrics"), dict):
            self._quarantine(key)
            return None
        return record

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def put(
        self, spec: "ScenarioSpec", record: Mapping[str, Any]
    ) -> str:
        """Atomically persist a record; returns the file path."""
        if record.get("key") != spec.key:
            raise ValueError(
                f"record key {record.get('key')!r} does not match spec"
                f" key {spec.key!r}"
            )
        return self.put_record(spec.key, record)

    def put_record(
        self, key: str, record: Mapping[str, Any]
    ) -> str:
        """Atomically persist a record under an explicit ``key``."""
        if record.get("key") != key:
            raise ValueError(
                f"record key {record.get('key')!r} does not match"
                f" cache key {key!r}"
            )
        path = self.path_for(key)
        atomic_write(path, (_canonical(record),))
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """All cached scenario keys (sorted, for stable listings)."""
        keys = []
        for entry in os.listdir(self.root):
            if entry.endswith(".json") and not entry.startswith("."):
                keys.append(entry[: -len(".json")])
        return sorted(keys)

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for key in self.keys():
            try:
                os.unlink(self.path_for(key))
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultCache({self.root!r}, entries={len(self)})"
