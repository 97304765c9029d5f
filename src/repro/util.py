"""Shared utilities: the canonical JSON encoder and the atomic writer.

Every deterministic record in the repo — scenario specs, result-cache
entries, checkpoints, fault schedules, warm-point cache keys — is
serialized through exactly one encoding so that equal payloads are
equal *bytes*: sorted keys, ``(",", ":")`` separators, no trailing
whitespace.  Content hashes (spec keys, checkpoint hashes) are SHA-256
over that byte form, so the encoder is part of the repo-wide
bit-identity contract, not a style choice.  Flit traces are the one
output formatted by hand, from ``%`` templates of their fixed record
shapes, because they are written per event: a test pins every JSONL
line to :func:`canonical_json` of its event, and the Perfetto export
(a viewer format, not a hashed record) to ``json.dumps`` of its
records' dict form.

The determinism lint (:mod:`repro.analysis`) enforces the funnel: any
direct ``json.dumps``/``json.dump`` call or ``json.JSONEncoder``
construction outside this module is a ``canonical-json`` finding, so a
new record type cannot quietly introduce a second, subtly different
encoding.

:func:`atomic_write` is the shared writer of the artefacts that
replace an earlier copy in place: cache records, checkpoints and
Perfetto exports.  :class:`Param` declares one input value (scenario
spec fields, fault event fields, traffic-model params) once, and
every check of that value derives from the declaration.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Iterable, Mapping, Optional, Tuple

from repro.core.errors import ConfigError

__all__ = [
    "Param",
    "atomic_write",
    "canonical_json",
    "canonical_json_bytes",
    "check_declared",
    "declared",
    "from_fields",
]


def canonical_json(payload: Any) -> str:
    """``payload`` as canonical JSON text (sorted keys, no spaces)."""
    # The single sanctioned json.dumps of the source tree; see the
    # module docstring.  # repro: allow[canonical-json] this is the shared encoder itself
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_json_bytes(payload: Any) -> bytes:
    """``payload`` as UTF-8 canonical JSON (the hashed/stored form)."""
    return canonical_json(payload).encode("utf-8")


def atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` atomically, creating its directory.

    The chunks go to a dot-prefixed temp file beside ``path`` (listings
    that skip dotfiles never see it), renamed over ``path`` only once
    all are written.  On any error, including one raised while
    producing ``chunks``, the temp file is removed and ``path`` is
    left as it was, so a crash never leaves a truncated file where a
    good one stood.
    """
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class Param:
    """One declared parameter: its type, range and default.

    A number (``kind`` ``int``, or ``float``, which takes ints too)
    lies in ``[lo, hi]``, or in ``(lo, hi]`` when ``lo_open``.
    Another ``kind`` is a class the value must be an instance of, and
    ``choices`` the set it must come from.  ``span`` also admits an
    inclusive ``[min, max]`` pair, ``optional`` admits ``None``.
    ``default`` is a value, a function of the scenario's ``(length,
    load)``, or ``None`` for a required param.
    """

    kind: type = int
    lo: float = 0
    hi: float = math.inf
    lo_open: bool = False
    default: Any = None
    span: bool = False
    optional: bool = False
    choices: Tuple[Any, ...] = ()
    label: str = ""

    def _holds(self, value: Any) -> bool:
        if self.choices:
            return isinstance(value, str) and value in self.choices
        if self.kind not in (int, float):
            return isinstance(value, self.kind)
        if isinstance(value, bool) or not isinstance(
            value, (int, float) if self.kind is float else int
        ):
            return False
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and value <= self.hi

    def problem(self, value: Any) -> Optional[str]:
        """Why ``value`` breaks this declaration, or ``None``."""
        if self.span and isinstance(value, (tuple, list)) and len(value) == 2:
            if all(map(self._holds, value)) and value[0] <= value[1]:
                return None
        elif self._holds(value) or value is None and self.optional:
            return None
        if self.choices:
            want = f"one of {self.choices}"
        elif self.kind not in (int, float):
            want = f"a {self.kind.__name__}"
        else:
            want = "an int" if self.kind is int else "a number"
            want += (
                f" in {'(' if self.lo_open else '['}{self.lo:g},"
                f" {self.hi:g}{']' if self.hi < math.inf else ')'}"
            )
        if self.span:
            want += " or an inclusive [min, max] pair of them"
        if self.optional:
            want += " or None"
        return f"must be {want}, got {value!r}"


def declared(param: Param, default: Any = MISSING) -> Any:
    """A dataclass field whose type and range ``param`` declares."""
    return field(default=default, metadata={"param": param})


def check_declared(record: Any, prefix: str = "") -> None:
    """Raise :class:`ConfigError` for the first :func:`declared` field
    of the dataclass ``record`` whose value its param rejects."""
    for f in record.__dataclass_fields__.values():
        param = f.metadata.get("param")
        problem = param and param.problem(getattr(record, f.name))
        if problem:
            raise ConfigError(f"{prefix}{param.label or f.name} {problem}")


def from_fields(cls: Any, payload: Mapping[str, Any], what: str) -> Any:
    """``cls(**payload)`` for the dataclass ``cls``, refusing a key of
    ``payload`` that names none of its fields."""
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(
            f"unknown {what} field(s) {sorted(unknown)}; expected a"
            f" subset of {sorted(known)}"
        )
    return cls(**payload)
