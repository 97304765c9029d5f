"""The counters the kernel derives instead of counting on each hop.

``Switch.buffered_flits``, ``Link.wire_count``, ``_OutputPort.
flits_sent`` and ``FlitBuffer.total_pops`` are read from state the
kernel already holds (FIFO lengths, delivery-wheel entries, the link's
``flits_carried``, ``total_pushes``) plus a base that resets and fault
purges adjust.  The oracle here is the opposite design, kept on the
test side the way ``scan_in_flight_flits`` is: a shadow that follows
every flit from cycle to cycle by its ``(pid, seq)`` and applies the
old per-hop increments to what it sees move.  The two must agree at
every cycle boundary, through statistics resets, faults, both
switching modes, a standalone switch and a checkpoint cut.

A static check keeps the per-hop writes from coming back.
"""

import ast
import copy
import os

import pytest

from repro.checkpoint import CheckpointError, restore, snapshot
from repro.checkpoint.record import Checkpoint
from repro.core.platform import build_platform
from repro.experiments.spec import ScenarioSpec
from repro.faults import FaultInjector, FaultSchedule, link_down, link_up
from repro.noc.flit import Packet
from repro.noc.routing import TableRouting
from repro.noc.switch import Switch, SwitchConfig

SRC = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"
)


def positions(network):
    """``(pid, seq) -> ("buf", switch, input) | ("wire", link index)``
    for every flit inside the fabric."""
    link_index = {id(link): k for k, link in enumerate(network.links)}
    where = {}
    for sw in network.switches:
        for i, buf in enumerate(sw.inputs):
            for flit in buf._fifo:
                where[flit.packet.pid, flit.seq] = ("buf", sw.switch_id, i)
    for slot in network._flit_wheel:
        for link, flit in slot:
            where[flit.packet.pid, flit.seq] = ("wire", link_index[id(link)])
    return where


class Shadow:
    """The four counters, kept incrementally from flit movements."""

    def __init__(self, network):
        self.feeder = {}  # link index -> (switch id, output port)
        self.ejects = set()  # link indices ending in reassembly
        for k, link in enumerate(network.links):
            up, out = network.link_upstream[link]
            if up is not None:
                self.feeder[k] = (up.switch_id, up._outputs.index(out))
            if link.rx is not None:
                self.ejects.add(k)
        self.buffered = {sw.switch_id: 0 for sw in network.switches}
        self.pops = {
            (sw.switch_id, i): 0
            for sw in network.switches for i in range(len(sw.inputs))
        }
        self.sent = {
            (sw.switch_id, p): 0
            for sw in network.switches for p in range(len(sw._outputs))
        }
        self.wire = {k: 0 for k in range(len(network.links))}
        self.purged = self.wire_dropped = 0
        self.where = positions(network)

    def follow(self, network):
        """Apply the moves since the last call: the old increments."""
        now = positions(network)
        for key, was in self.where.items():
            is_ = now.get(key)
            if is_ == was:
                continue
            if was[0] == "buf":
                self.buffered[was[1]] -= 1
                if is_ is None:
                    self.purged += 1  # a purge is not a pop
                else:
                    assert is_[0] == "wire"
                    assert self.feeder[is_[1]][0] == was[1]
                    self.pops[was[1], was[2]] += 1
                    self.sent[self.feeder[is_[1]]] += 1
            else:
                self.wire[was[1]] -= 1
                if is_ is None and was[1] not in self.ejects:
                    self.wire_dropped += 1
        for key, is_ in now.items():
            if self.where.get(key) == is_:
                continue
            if is_[0] == "buf":
                self.buffered[is_[1]] += 1
            else:
                self.wire[is_[1]] += 1
        self.where = now

    def reset_stats(self):
        """``Network.reset_stats``: pops restart, nothing else does."""
        for key in self.pops:
            self.pops[key] = 0

    def check(self, network):
        for sw in network.switches:
            s = sw.switch_id
            assert sw.buffered_flits == self.buffered[s], (network.cycle, s)
            for i, buf in enumerate(sw.inputs):
                assert buf.total_pops == self.pops[s, i], (network.cycle, s, i)
            for p, out in enumerate(sw._outputs):
                assert out.flits_sent == self.sent[s, p], (network.cycle, s, p)
        for k, link in enumerate(network.links):
            assert link.wire_count == self.wire[k], (network.cycle, link.name)


def run_checked(platform, shadow, cycles, injector=None, reset_at=None):
    network = platform.network
    for _ in range(cycles):
        if injector is not None:
            injector.tick(network.cycle)
        platform.step()
        shadow.follow(network)
        if network.cycle == reset_at:
            assert any(shadow.buffered.values()), "reset with flits buffered"
            platform.reset_statistics()
            shadow.reset_stats()
        shadow.check(network)
    assert network.in_flight_flits == network.scan_in_flight_flits()


def platform_of(**kwargs):
    return build_platform(ScenarioSpec(**kwargs).to_platform_config())


def test_mid_run_reset_with_flits_buffered():
    platform = platform_of(topology="mesh:3:3", load=0.8, packets=None,
                           seed=3)
    shadow = Shadow(platform.network)
    run_checked(platform, shadow, 600, reset_at=300)
    assert sum(shadow.sent.values()) > 0


def test_link_down_purge_wire_drop_repair_then_link_up():
    spec = ScenarioSpec(topology="paper", load=0.9, packets=None, seed=2)
    platform = build_platform(spec.to_platform_config())
    schedule = FaultSchedule.of(
        link_down(300, 1, 4), link_down(300, 4, 1),
        link_up(700, 1, 4), link_up(700, 4, 1),
    )
    injector = FaultInjector(schedule, platform)
    injector.begin(platform.cycle)
    shadow = Shadow(platform.network)
    run_checked(platform, shadow, 1100, injector=injector, reset_at=500)
    assert shadow.purged > 0
    assert shadow.wire_dropped > 0
    events = injector.report.events
    assert any(e.repaired for e in events)
    assert [e.kind for e in events].count("link_up") == 2
    assert not platform.network.switch_links[(1, 4)][0].down


def test_store_and_forward():
    config = ScenarioSpec(
        topology="paper", traffic="burst", length=4, load=0.8,
        packets=None, seed=4,
    ).to_platform_config()
    config.switching = "store_and_forward"
    platform = build_platform(config)
    shadow = Shadow(platform.network)
    run_checked(platform, shadow, 800, reset_at=400)


def test_standalone_switch_with_custom_sinks():
    routing = TableRouting([[0, 1]])
    sw = Switch(0, SwitchConfig(n_inputs=2, n_outputs=2, buffer_depth=4),
                routing)
    sw._clock = lambda: 0
    sinks = [[], []]
    for port in range(2):
        sw.connect_output(
            port, lambda flit, now, _p=port: sinks[_p].append(flit),
            credits=8,
        )
    pops = [0, 0]
    packets = [Packet(src=s, dst=s % 2, length=3).flits() for s in range(4)]
    for now in range(16):
        for i in range(2):
            waiting = packets[i] or packets[i + 2]
            if waiting and len(sw.inputs[i]) < 4:
                sw.receive(i, waiting.pop(0))
        before = [len(buf) for buf in sw.inputs]
        sw.traverse(now)
        for i, buf in enumerate(sw.inputs):
            pops[i] += before[i] - len(buf)
        assert sw.buffered_flits == sum(len(buf) for buf in sw.inputs)
        assert [buf.total_pops for buf in sw.inputs] == pops
        assert [out.flits_sent for out in sw._outputs] == [
            len(sink) for sink in sinks
        ]
        if now == 8:
            sw.reset_stats()
            pops = [0, 0]
    assert sum(len(sink) for sink in sinks) == 12


def test_checkpoint_cut_and_resume():
    spec = ScenarioSpec(topology="mesh:3:3", load=0.8, packets=None, seed=5)
    platform = build_platform(spec.to_platform_config())
    shadow = Shadow(platform.network)
    run_checked(platform, shadow, 250, reset_at=120)
    checkpoint = snapshot(platform, spec)
    state = checkpoint.state
    network = platform.network
    assert [r["buffered"] for r in state["switches"]] == [
        shadow.buffered[sw.switch_id] for sw in network.switches
    ]
    assert [r["wire_count"] for r in state["links"]] == [
        shadow.wire[k] for k in range(len(network.links))
    ]
    assert [
        [o["flits_sent"] for o in r["outputs"]] for r in state["switches"]
    ] == [
        [shadow.sent[sw.switch_id, p] for p in range(len(sw._outputs))]
        for sw in network.switches
    ]
    assert any(state["network"]["flit_wheel"])
    resumed, _engine = restore(checkpoint)
    resumed_shadow = copy.deepcopy(shadow)
    resumed_shadow.check(resumed.network)
    run_checked(platform, shadow, 250)
    run_checked(resumed, resumed_shadow, 250)
    assert resumed_shadow.pops == shadow.pops
    assert resumed_shadow.sent == shadow.sent


@pytest.mark.parametrize("key", ["buffered", "wire_count"])
def test_restore_rejects_a_derived_counter_off_by_one(key):
    spec = ScenarioSpec(topology="mesh:3:3", load=0.8, packets=None, seed=5)
    platform = build_platform(spec.to_platform_config())
    for _ in range(200):
        platform.step()
    state = copy.deepcopy(snapshot(platform, spec).state)
    records = state["switches"] if key == "buffered" else state["links"]
    records[0][key] += 1
    with pytest.raises(CheckpointError, match=key):
        restore(Checkpoint(spec=spec, state=state))


# ----------------------------------------------------------------------
# No per-hop write of a derived counter
# ----------------------------------------------------------------------
DERIVED = {"_buffered", "wire_count", "flits_sent", "total_pops"}

#: The per-hop paths: (module, enclosing class or None, function).
HOP_PATHS = [
    ("noc/switch.py", None, "traverse_all"),
    ("noc/switch.py", "Switch", "receive"),
    ("noc/switch.py", "Switch", "traverse_reference"),
    ("noc/switch.py", "Switch", "_credit_wake_port"),
    ("noc/network.py", "Network", "step"),
    ("noc/network.py", "Network", "step_reference"),
    ("noc/network.py", "Network", "_drain_credit_slot"),
    ("noc/network.py", "Network", "_drain_flit_slot"),
    ("noc/ni.py", "NetworkInterface", "inject"),
    ("noc/ni.py", "ReassemblyBuffer", "receive"),
    ("noc/link.py", "Link", "send"),
]


def _function(tree, owner, name):
    scope = tree.body
    if owner is not None:
        (cls,) = [
            node for node in scope
            if isinstance(node, ast.ClassDef) and node.name == owner
        ]
        scope = cls.body
    (fn,) = [
        node for node in scope
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return fn


@pytest.mark.parametrize(
    "module,owner,name", HOP_PATHS,
    ids=[f"{o}.{n}" if o else n for _m, o, n in HOP_PATHS],
)
def test_hop_paths_write_no_derived_counter(module, owner, name):
    """These counters are derived when read; writing one on the hop
    is the per-hop cost the derivation removed."""
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    fn = _function(tree, owner, name)
    written = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in DERIVED:
                    written.append(f"line {sub.lineno}: .{sub.attr}")
    assert not written, f"{owner or module}.{name} writes {written}"
