"""Section-by-section checkpoint encoding: the same bytes, less memory.

``Checkpoint`` hashes and saves its body one ``state`` key (and one
slice of a per-component list) at a time.  The concatenated sections
must equal the canonical encoding of the whole payload on any
JSON-plain state, and one save of a real cut must peak well below the
single-call encoding of the whole body (~2.1 MiB on the cut below).
"""

import hashlib
import os
import tempfile
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import CHECKPOINT_SCHEMA, Checkpoint, snapshot
from repro.core.engine import EmulationEngine
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.util import canonical_json_bytes

SPEC = ScenarioSpec(topology="mesh:2:2", load=0.3, packets=20, seed=5)

#: Keys and strings the encoder must escape: quotes, backslashes,
#: control characters, non-ASCII (including astral-plane) text.
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\té€𝄞'), st.characters()
    ),
    max_size=8,
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXT,
)

VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=12,
)

#: Top-level values: any JSON value, or a list of small records long
#: enough to span several encoder calls.
STATE_VALUES = st.one_of(
    VALUES,
    st.lists(
        st.one_of(SCALARS, st.dictionaries(TEXT, SCALARS, max_size=3)),
        max_size=40,
    ),
)


def canonical_body(state):
    return canonical_json_bytes({
        "schema": CHECKPOINT_SCHEMA,
        "spec": SPEC.to_dict(),
        "state": state,
    })


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(TEXT, STATE_VALUES, max_size=8))
@example({})
@example({"": [], "é\"\\\n": [[]], "a": [{"z": 1.5, "\x00": None}] * 33})
def test_sections_equal_the_canonical_encoding(state):
    checkpoint = Checkpoint(spec=SPEC, state=state)
    body = canonical_body(state)
    assert b"{" + b"".join(checkpoint._sections()) == body
    assert checkpoint.content_hash == hashlib.sha256(body).hexdigest()[:16]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cp.json")
        assert checkpoint.save(path) == checkpoint.content_hash
        with open(path, "rb") as fh:
            assert fh.read() == canonical_json_bytes(checkpoint.to_dict())


def test_save_encode_peak(tmp_path):
    """One save of a ``mesh:8:8`` cut (~207 KB) peaks at ~0.6 MiB;
    encoding the body in one call peaked at ~2.1-2.3 MiB."""
    spec = ScenarioSpec(topology="mesh:8:8", routing="auto", load=0.15,
                        packets=100, seed=1)
    platform = build_platform(spec.to_platform_config())
    engine = EmulationEngine(platform)
    engine.run(max_cycles=1500, finalize=False)
    checkpoint = snapshot(platform, spec, engine)
    assert checkpoint.cycle == 1500
    tracemalloc.start()
    try:
        checkpoint.save(str(tmp_path / "cut.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * 2**20 / 2, f"peak {peak / 2**20:.2f} MiB"
