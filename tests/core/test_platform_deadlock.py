"""Platform compilation refuses deadlock-capable routing tables."""

import pytest

from repro.core.config import PlatformConfig, TGSpec, TRSpec
from repro.core.errors import ConfigError
from repro.core.platform import build_platform
from repro.noc.routing import build_tables_from_paths
from repro.noc.topology import ring


def cyclic_ring_config():
    """Four clockwise flows around a 4-ring: a classic CDG cycle."""
    topo = ring(4)
    routing = build_tables_from_paths(
        topo,
        {
            (0, 2): (0, 1, 2),
            (1, 3): (1, 2, 3),
            (2, 0): (2, 3, 0),
            (3, 1): (3, 0, 1),
        },
    )
    params = {"length": 6, "interval": 8}
    return PlatformConfig(
        topology=topo,
        routing=routing,
        buffer_depth=4,
        tgs=[
            TGSpec(node=src, params={**params, "dst": dst})
            for src, dst in ((0, 2), (1, 3), (2, 0), (3, 1))
        ],
        trs=[TRSpec(node=n) for n in range(4)],
    )


class TestDeadlockGate:
    def test_cyclic_tables_rejected_at_compile_time(self):
        with pytest.raises(ConfigError, match="dependency cycle"):
            build_platform(cyclic_ring_config())

    @pytest.mark.usefixtures("no_deadlock_vet")
    def test_only_the_gate_refuses_the_tables(self):
        # Without the vet the same tables compile: nothing else
        # in the build objects to them.
        platform = build_platform(cyclic_ring_config())
        assert platform.topology.n_switches == 4

    def test_paper_platform_passes_the_gate(self):
        from repro.experiments.spec import ScenarioSpec

        for case in ("overlap", "disjoint", "split"):
            config = ScenarioSpec(
                packets=10, routing=case
            ).to_platform_config()
            build_platform(config)  # must not raise

    @pytest.mark.usefixtures("no_deadlock_vet")
    def test_cyclic_tables_actually_deadlock_when_forced(self):
        """The gate protects against a real hang: with the gate off
        and long packets, the clockwise ring wedges."""
        config = cyclic_ring_config()
        for tg in config.tgs:
            tg.max_packets = 50
            tg.params["interval"] = 6  # saturate: packets back to back
        platform = build_platform(config)
        platform.run(5_000)
        # Not every seedless schedule wedges instantly, but the
        # network must show sustained blocking on the ring.
        assert platform.network.total_blocked_flit_cycles > 0
