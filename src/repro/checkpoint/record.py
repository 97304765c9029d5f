"""The on-disk checkpoint record: versioned, canonical, content-hashed.

A :class:`Checkpoint` is a pure-data object — the scenario spec that
built the platform plus one JSON-plain ``state`` dict enumerating every
piece of mutable emulation state (see :mod:`repro.checkpoint.capture`
for the enumeration).  Hashing and serialization mirror the conventions
of :class:`~repro.experiments.spec.ScenarioSpec` and
:class:`~repro.experiments.cache.ResultCache`:

* canonical JSON — sorted keys, ``(",", ":")`` separators — so the
  content hash is byte-stable across processes;
* ``content_hash`` — first 16 hex chars of the SHA-256 of the schema +
  spec + state payload, embedded in the file and re-verified on load;
* section-by-section encoding — those canonical bytes are produced one
  ``state`` key, and one slice of a per-component list, at a time and
  hashed as they go, so no encoder call holds the whole state (one
  ``mesh:8:8`` save peaks at ~0.6 MiB, not ~2.1 MiB);
* atomic writes — :func:`repro.util.atomic_write`, so a crash mid-save
  never leaves a truncated checkpoint where a good one stood;
* clean errors, never partial reads — truncation, bad JSON, a foreign
  schema version, or a hash mismatch each raise their own
  :mod:`~repro.checkpoint.errors` class before anything is returned.

One deliberate caveat: a checkpoint taken *after an online repair*
embeds the fault report's ``repair_wall_seconds`` (real wall-clock
spent rebuilding route tables), so two checkpoints of the same faulted
run hash differently.  Healthy ramps — the warm-start case — are fully
deterministic: same spec, same cycle, same hash.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Dict, Iterator, Optional

from repro.experiments.spec import ScenarioSpec
from repro.util import atomic_write, canonical_json_bytes

from .errors import (
    CheckpointCorruptError,
    CheckpointSchemaError,
    CheckpointSpecMismatch,
)

__all__ = ["CHECKPOINT_SCHEMA", "Checkpoint", "load_checkpoint"]

#: Bump when the state layout changes incompatibly.  Old files then
#: read as :class:`CheckpointSchemaError`, never as garbage state.
CHECKPOINT_SCHEMA = 1

#: Records of a per-component ``state`` list per encoder call when a
#: checkpoint is hashed or saved: few enough to keep the encoder's
#: own peak small, enough to keep per-call costs out of the save time.
_RECORDS_PER_SECTION = 32


@dataclass(frozen=True)
class Checkpoint:
    """Complete emulation state at one cycle boundary.

    ``state`` is JSON-plain (dicts, lists, ints, strings, None) by
    construction; everything structural is rebuilt from ``spec`` at
    restore time, so the record stays portable across processes.
    """

    spec: ScenarioSpec
    state: Dict[str, Any]

    @property
    def cycle(self) -> int:
        """The cycle boundary this checkpoint was taken at."""
        return self.state["cycle"]

    def _sections(self) -> Iterator[bytes]:
        """Canonical ``{"schema":..,"spec":..,"state":..}`` (the hashed
        bytes) after its opening brace, in pieces.

        The bytes equal ``canonical_json_bytes`` of the payload: keys
        in sorted order, each ``state`` value encoded on its own and
        each per-component list ``_RECORDS_PER_SECTION`` records at a
        time, so no encoder call holds more than a slice of the state.
        """
        yield b'"schema":%d,"spec":' % CHECKPOINT_SCHEMA
        yield canonical_json_bytes(self.spec.to_dict())
        yield b',"state":{'
        separator = b""
        for key in sorted(self.state):
            value = self.state[key]
            # A str key's canonical form is its ASCII-escaped string.
            yield b'%s%s:' % (separator, _json_str(key).encode("ascii"))
            separator = b","
            if not isinstance(value, list):
                yield canonical_json_bytes(value)
                continue
            yield b"["
            for start in range(0, len(value), _RECORDS_PER_SECTION):
                if start:
                    yield b","
                # A slice of records, its brackets stripped.
                yield canonical_json_bytes(
                    value[start:start + _RECORDS_PER_SECTION]
                )[1:-1]
            yield b"]"
        yield b"}}"

    @property
    def content_hash(self) -> str:
        """16-hex-char SHA-256 over schema, spec and state."""
        hasher = hashlib.sha256(b"{")
        for section in self._sections():
            hasher.update(section)
        return hasher.hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        """The full file payload, hash included."""
        return {
            "schema": CHECKPOINT_SCHEMA,
            "hash": self.content_hash,
            "spec": self.spec.to_dict(),
            "state": self.state,
        }

    def save(self, path: str) -> str:
        """Atomically write the checkpoint to ``path``.

        The state is encoded once, section by section, and hashed as
        it goes: the file is the hashed body with ``"hash":"<digest>",``
        spliced in after its brace, the canonical encoding of
        :meth:`to_dict` (``hash`` sorts first).  Only the encoded
        sections are held until the digest is known, never the whole
        state in one encoder call.  Written through
        :func:`repro.util.atomic_write`, so a crash mid-save leaves the
        previous checkpoint in place.  Returns the content hash so
        callers can fold it into cache keys.
        """
        sections = []
        hasher = hashlib.sha256(b"{")
        for section in self._sections():
            hasher.update(section)
            sections.append(section)
        digest = hasher.hexdigest()[:16]
        sections.insert(0, b'{"hash":"%s",' % digest.encode("ascii"))
        atomic_write(path, sections)
        return digest

    @classmethod
    def from_dict(cls, record: Any, where: str = "checkpoint"
                  ) -> "Checkpoint":
        """Validate a parsed file payload into a :class:`Checkpoint`.

        Raises one of the :mod:`~repro.checkpoint.errors` classes on
        any defect; on success the returned object is fully verified
        (schema, structure, content hash).
        """
        if not isinstance(record, dict):
            raise CheckpointCorruptError(
                f"{where}: expected a JSON object, got"
                f" {type(record).__name__}"
            )
        schema = record.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointSchemaError(
                f"{where}: schema version {schema!r} is not the"
                f" supported version {CHECKPOINT_SCHEMA}"
            )
        for field in ("hash", "spec", "state"):
            if field not in record:
                raise CheckpointCorruptError(
                    f"{where}: missing required field {field!r}"
                )
        if not isinstance(record["state"], dict):
            raise CheckpointCorruptError(
                f"{where}: 'state' must be an object"
            )
        try:
            spec = ScenarioSpec.from_dict(record["spec"])
        except Exception as exc:
            raise CheckpointCorruptError(
                f"{where}: embedded spec does not parse: {exc}"
            ) from exc
        checkpoint = cls(spec=spec, state=record["state"])
        digest = checkpoint.content_hash
        if digest != record["hash"]:
            raise CheckpointCorruptError(
                f"{where}: content hash mismatch — file claims"
                f" {record['hash']!r} but payload hashes to"
                f" {digest!r}; the record was tampered with or"
                f" damaged"
            )
        return checkpoint


def load_checkpoint(path: str,
                    spec: Optional[ScenarioSpec] = None) -> Checkpoint:
    """Read and fully validate a checkpoint file.

    When ``spec`` is given, the embedded spec must hash to the same
    scenario key — resuming under a different scenario raises
    :class:`CheckpointSpecMismatch` naming both hashes.  Every failure
    raises before anything is returned; there are no partial loads.
    """
    where = os.path.basename(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointCorruptError(
            f"{where}: cannot read checkpoint: {exc}"
        ) from exc
    try:
        record = json.loads(raw)
    except ValueError as exc:
        raise CheckpointCorruptError(
            f"{where}: not valid JSON (truncated or damaged): {exc}"
        ) from exc
    checkpoint = Checkpoint.from_dict(record, where=where)
    if spec is not None and checkpoint.spec.key != spec.key:
        raise CheckpointSpecMismatch(
            expected_key=spec.key,
            found_key=checkpoint.spec.key,
            where=where,
        )
    return checkpoint
