"""Cycle-level Network-on-Chip substrate.

This package implements the packet-switched network the emulation
platform of Genko et al. (DATE 2005) is built around: flits and packets,
bounded flit buffers with credit-based flow control, parameterisable
switches (number of inputs, number of outputs, buffer size — the three
switch parameters the paper emulates), links, arbitration policies,
routing (including the paper's "two routing possibilities" multi-path
scheme) and topology construction, tied together by a cycle engine.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "Arbiter": ".arbiter",
    "FixedPriorityArbiter": ".arbiter",
    "MatrixArbiter": ".arbiter",
    "RoundRobinArbiter": ".arbiter",
    "make_arbiter": ".arbiter",
    "FlitBuffer": ".buffer",
    "DeadlockError": ".deadlock",
    "assert_deadlock_free": ".deadlock",
    "is_deadlock_free": ".deadlock",
    "Flit": ".flit",
    "FlitType": ".flit",
    "Packet": ".flit",
    "Link": ".link",
    "Network": ".network",
    "NetworkInterface": ".ni",
    "ReassemblyBuffer": ".ni",
    "MultiPathTableRouting": ".routing",
    "RoutingError": ".routing",
    "TableRouting": ".routing",
    "build_multipath_tables": ".routing",
    "build_shortest_path_tables": ".routing",
    "Switch": ".switch",
    "SwitchConfig": ".switch",
    "SwitchingMode": ".switch",
    "Topology": ".topology",
    "TopologyError": ".topology",
    "paper_topology": ".topology",
})
