"""Shared utilities: the canonical JSON encoder and the atomic writer.

Every deterministic record in the repo — scenario specs, result-cache
entries, checkpoints, fault schedules, warm-point cache keys — is
serialized through exactly one encoding so that equal payloads are
equal *bytes*: sorted keys, ``(",", ":")`` separators, no trailing
whitespace.  Content hashes (spec keys, checkpoint hashes) are SHA-256
over that byte form, so the encoder is part of the repo-wide
bit-identity contract, not a style choice.  Flit-trace lines are the
one record formatted by hand, from the trace's fixed schema, because
they are written per event; a test pins every line to
:func:`canonical_json` of its event.

The determinism lint (:mod:`repro.analysis`) enforces the funnel: any
direct ``json.dumps``/``json.dump`` call or ``json.JSONEncoder``
construction outside this module is a ``canonical-json`` finding, so a
new record type cannot quietly introduce a second, subtly different
encoding.

:func:`atomic_write` is the shared writer of the artefacts that
replace an earlier copy in place: cache records, checkpoints and
Perfetto exports.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Iterable

__all__ = ["atomic_write", "canonical_json", "canonical_json_bytes"]


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
