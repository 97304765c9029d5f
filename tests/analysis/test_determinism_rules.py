"""Violating/clean fixture pairs for the determinism rule family.

Every fixture is a virtual module injected through the project
overlay — nothing touches the real tree, and each pair pins both the
detection (the violating twin fires) and the precision (the clean
twin stays silent).
"""

import textwrap

from repro.analysis import run_lint


def lint_src(source, path="pkg/mod.py", rules=None):
    return run_lint(
        [], rule_ids=rules, overlay={path: textwrap.dedent(source)}
    )


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
def test_wall_clock_flags_time_calls():
    result = lint_src(
        """
        import time

        def measure():
            return time.perf_counter()
        """,
        rules=["wall-clock"],
    )
    assert rules_fired(result) == ["wall-clock"]
    assert "time.perf_counter" in result.findings[0].message


def test_wall_clock_flags_from_import_alias():
    result = lint_src(
        """
        from time import perf_counter as pc

        def measure():
            return pc()
        """,
        rules=["wall-clock"],
    )
    assert len(result.findings) == 1


def test_wall_clock_flags_datetime_now():
    result = lint_src(
        """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """,
        rules=["wall-clock"],
    )
    assert len(result.findings) == 1


def test_wall_clock_clean_twin():
    result = lint_src(
        """
        def measure(clock):
            return clock()  # cycle counter, not the host clock

        class Thing:
            def time(self):
                return 0

        def use(t):
            return t.time()
        """,
        rules=["wall-clock"],
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------
def test_rng_flags_random_module():
    result = lint_src(
        """
        import os
        import random

        def choose(xs):
            return random.choice(xs) if os.urandom(1) else xs[0]
        """,
        rules=["unseeded-rng"],
    )
    assert len(result.findings) == 2


def test_rng_home_module_is_exempt():
    result = lint_src(
        """
        import random

        def reference_stream(seed):
            random.seed(seed)
            return random.random()
        """,
        path="repro/traffic/rng.py",
        rules=["unseeded-rng"],
    )
    assert result.findings == []


def test_rng_clean_twin():
    result = lint_src(
        """
        from repro.traffic.rng import LfsrRandom

        def choose(xs, seed):
            return xs[LfsrRandom(seed).randrange(len(xs))]
        """,
        rules=["unseeded-rng"],
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# unsorted-set-iter
# ----------------------------------------------------------------------
def test_set_iter_flags_for_loop_and_list():
    result = lint_src(
        """
        def emit(xs, out):
            for x in set(xs):
                out.append(x)
            return list({1, 2, 3})
        """,
        rules=["unsorted-set-iter"],
    )
    assert len(result.findings) == 2


def test_set_iter_flags_comprehension_and_join():
    result = lint_src(
        """
        def emit(xs):
            names = [n for n in {x.name for x in xs}]
            return ",".join(set(names))
        """,
        rules=["unsorted-set-iter"],
    )
    assert len(result.findings) == 2


def test_set_iter_clean_when_sorted():
    result = lint_src(
        """
        def emit(xs, out):
            for x in sorted(set(xs)):
                out.append(x)
            return list(sorted({1, 2, 3}))
        """,
        rules=["unsorted-set-iter"],
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# id-ordering
# ----------------------------------------------------------------------
def test_id_ordering_flags_key_id():
    result = lint_src(
        """
        def order(xs):
            return sorted(xs, key=id)
        """,
        rules=["id-ordering"],
    )
    assert len(result.findings) == 1


def test_id_ordering_flags_lambda_id():
    result = lint_src(
        """
        def order(xs):
            xs.sort(key=lambda x: id(x))
        """,
        rules=["id-ordering"],
    )
    assert len(result.findings) == 1


def test_id_ordering_clean_twin():
    result = lint_src(
        """
        def order(xs, registry):
            # identity *lookup* by id() is fine; only ordering is not
            registry[id(xs)] = xs
            return sorted(xs, key=lambda x: x.pid)
        """,
        rules=["id-ordering"],
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# canonical-json
# ----------------------------------------------------------------------
def test_canonical_json_flags_dumps_and_dump():
    result = lint_src(
        """
        import json

        def save(record, fh):
            json.dump(record, fh)
            return json.dumps(record, sort_keys=True)
        """,
        rules=["canonical-json"],
    )
    assert len(result.findings) == 2


def test_canonical_json_encoder_home_is_exempt():
    result = lint_src(
        """
        import json

        def canonical_json(payload):
            return json.dumps(payload, sort_keys=True)
        """,
        path="repro/util.py",
        rules=["canonical-json"],
    )
    assert result.findings == []


def test_canonical_json_clean_twin():
    result = lint_src(
        """
        from repro.util import canonical_json

        def save(record, fh):
            fh.write(canonical_json(record))
        """,
        rules=["canonical-json"],
    )
    assert result.findings == []


def test_canonical_json_flags_encoder_construction():
    # An encoder object is json.dumps under another name: both the
    # module path and the from-import spelling fire.
    result = lint_src(
        """
        import json
        from json import JSONEncoder as Encoder

        def save(record, fh):
            fh.write(json.JSONEncoder(sort_keys=True).encode(record))
            fh.write(json.encoder.JSONEncoder().encode(record))
            fh.write(Encoder(separators=(",", ":")).encode(record))
        """,
        rules=["canonical-json"],
    )
    assert len(result.findings) == 3
    assert all("JSONEncoder" in f.message for f in result.findings)


def test_canonical_json_encoder_construction_clean_twin():
    # Reading the encoder module's string escaper is not an encoder.
    result = lint_src(
        """
        from json.encoder import encode_basestring_ascii

        from repro.util import canonical_json

        def save(record, fh):
            fh.write(canonical_json(record))
            fh.write(encode_basestring_ascii(record["name"]))
        """,
        rules=["canonical-json"],
    )
    assert result.findings == []
