"""Golden digests of :meth:`ScenarioSpec.to_platform_config`.

Each digest covers everything elaboration decides: the resolved
topology name, the routing, buffer depth, arbitration, switching, the
platform name, and every field of every generator and receptor (node,
model, params, packet budget, seed register, queue limit; node, kind,
params).  The specs span the paper route cases, every topology family,
every traffic model, both receptor kinds, store-and-forward, matrix
arbitration and ``traffic_params`` overrides, so any change to how a
spec becomes a platform moves at least one digest.
"""

import hashlib
import json

import pytest

from repro.experiments.spec import ScenarioSpec

SPECS = {
    "paper_auto": {},
    "paper_overlap": {"routing": "overlap"},
    "paper_disjoint": {"routing": "disjoint", "packets": 50},
    "paper_shortest": {"routing": "shortest"},
    "mesh_auto": {"topology": "mesh:3:3", "load": 0.2},
    "mesh_multipath": {
        "topology": "mesh:2:2:2", "routing": "multipath:3", "seed": 9,
    },
    "torus_auto": {"topology": "torus:3:3"},
    "ring_updown": {"topology": "ring:5", "routing": "updown"},
    "star": {"topology": "star:4", "packets": None},
    "spidergon": {"topology": "spidergon:8", "length": 4},
    "tree": {"topology": "tree:2:2", "load": 0.1},
    "full": {"topology": "full:4:2"},
    "burst": {"traffic": "burst"},
    "poisson": {"traffic": "poisson", "topology": "mesh:2:2"},
    "onoff": {"traffic": "onoff", "routing": "disjoint"},
    "trace": {"traffic": "trace", "topology": "ring:4"},
    "stochastic": {"receptors": "stochastic", "topology": "mesh:2:3"},
    "store_and_forward": {
        "switching": "store_and_forward", "buffer_depth": 8,
    },
    "matrix": {"arbitration": "matrix", "topology": "torus:3:4"},
    "params_dst": {
        "topology": "mesh:3:3", "traffic_params": {"dst": 4}, "seed": 3,
    },
    "params_burst": {
        "traffic": "burst",
        "routing": "disjoint",
        "traffic_params": {"mean_burst_packets": 3.5},
    },
}

GOLDEN = {
    "paper_auto": "51b4c006086211e8",
    "paper_overlap": "9caed129f41caca5",
    "paper_disjoint": "46a1b6a1c587917c",
    "paper_shortest": "c3214dbeeaaacd26",
    "mesh_auto": "680a29c6b1cc6e86",
    "mesh_multipath": "46d6bd487d1e857f",
    "torus_auto": "ee3dccb0fdc58051",
    "ring_updown": "8d506f6507314ae3",
    "star": "e84fdd5777257fe7",
    "spidergon": "3e0f4d0a39264eb9",
    "tree": "4fc2bf26edfe4003",
    "full": "0d0aef950876a54f",
    "burst": "927d32c761772904",
    "poisson": "d96b88a6d0181466",
    "onoff": "364e2a468fa346c9",
    "trace": "f3ebd0d9ab0300be",
    "stochastic": "d559df1571d1f665",
    "store_and_forward": "5b118df8e31e368f",
    "matrix": "5014b73f0faa4862",
    "params_dst": "e7ace1c9e828240b",
    "params_burst": "e5e8f950e1bd2470",
}


def elaboration_digest(spec: ScenarioSpec) -> str:
    """SHA-256 prefix over what ``to_platform_config`` decides."""
    config = spec.to_platform_config()
    switching = getattr(config.switching, "value", config.switching)
    record = {
        "topology": config.resolve_topology().name,
        "routing": config.routing,
        "buffer_depth": config.buffer_depth,
        "arbitration": config.arbitration,
        "switching": switching,
        "name": config.name,
        "tgs": [
            [tg.node, tg.model, sorted(tg.params.items()),
             tg.max_packets, tg.seed, tg.queue_limit]
            for tg in config.tgs
        ],
        "trs": [
            [tr.node, tr.kind, sorted(tr.params.items())]
            for tr in config.trs
        ],
    }
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_elaboration_matches_golden(name):
    spec = ScenarioSpec(**SPECS[name])
    assert elaboration_digest(spec) == GOLDEN[name]
