"""Platform configuration.

The emulation flow (Slide 14) splits the setup in two:

* **Platform settings** (hardware, fixed at platform-compilation time):
  switch topology, buffer depth, arbitration, switching mode, and the
  number/type of traffic generators and receptors.
* **Software settings** (written over the bus at initialisation time):
  traffic definition — model parameters, seeds, packet budgets — and
  the routing tables.

:class:`PlatformConfig` captures both and exposes a
:meth:`~PlatformConfig.hardware_signature` so the flow can detect when
a change actually requires hardware re-synthesis ("avoids often
hardware re-synthesis", Slide 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import ConfigError
from repro.noc.routing import (
    RoutingFunction,
    build_multipath_tables,
    build_shortest_path_tables,
    build_updown_tables,
    paper_routing,
)
from repro.noc.switch import SwitchingMode
from repro.noc.topology import (
    PAPER_TG_LOAD,
    Topology,
    fully_connected,
    mesh,
    paper_flow_pairs,
    paper_topology,
    ring,
    spidergon,
    star,
    torus,
    tree,
)
from repro.traffic.base import (
    DestinationChooser,
    FixedDestination,
    TrafficModel,
    UniformRandomDestination,
    interval_for_load,
)
from repro.traffic.burst import BurstTraffic
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.poisson import PoissonTraffic
from repro.traffic.trace import (
    Trace,
    TraceTraffic,
    synthetic_burst_trace,
)
from repro.traffic.uniform import UniformTraffic

#: Traffic-model type tags accepted in :class:`TGSpec`.
TG_MODELS = ("uniform", "burst", "poisson", "onoff", "trace")

#: Receptor type tags accepted in :class:`TRSpec`.
TR_KINDS = ("stochastic", "tracedriven")


@dataclass
class TGSpec:
    """One traffic generator of the platform.

    ``model`` picks the traffic process; ``params`` holds its keyword
    parameters (see :func:`make_traffic_model`); ``max_packets`` bounds
    the run ("number of sent packets" experiments); ``seed`` loads the
    random-initialisation register.
    """

    node: int
    model: str = "uniform"
    params: Dict[str, Any] = field(default_factory=dict)
    max_packets: Optional[int] = None
    seed: int = 1
    queue_limit: int = 64

    def __post_init__(self) -> None:
        if self.model not in TG_MODELS:
            raise ConfigError(
                f"unknown traffic model {self.model!r}; expected one of"
                f" {TG_MODELS}"
            )
        if self.node < 0:
            raise ConfigError(f"TG node must be >= 0, got {self.node}")

    def destinations(self) -> Tuple[int, ...]:
        """Every node this TG can address, decoded from ``params["dst"]``
        (a :class:`DestinationChooser`, one node, or a sequence); empty
        when the traffic carries its own destinations (trace objects).
        """
        dst = self.params.get("dst")
        if dst is None:
            return ()
        if isinstance(dst, DestinationChooser):
            return tuple(dst.destinations())
        if isinstance(dst, int):
            return (dst,)
        return tuple(dst)


@dataclass
class TRSpec:
    """One traffic receptor of the platform."""

    node: int
    kind: str = "tracedriven"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TR_KINDS:
            raise ConfigError(
                f"unknown receptor kind {self.kind!r}; expected one of"
                f" {TR_KINDS}"
            )
        if self.node < 0:
            raise ConfigError(f"TR node must be >= 0, got {self.node}")


@dataclass
class PlatformConfig:
    """Complete description of one emulation platform instance."""

    topology: Union[str, Topology] = "paper"
    routing: Union[str, RoutingFunction] = "paper_overlap"
    buffer_depth: int = 4
    arbitration: str = "round_robin"
    switching: Union[str, SwitchingMode] = SwitchingMode.WORMHOLE
    tgs: List[TGSpec] = field(default_factory=list)
    trs: List[TRSpec] = field(default_factory=list)
    f_clk_hz: float = 50e6
    sample_buffers: bool = False
    #: Verify at platform-compilation time that the routing tables
    #: cannot wormhole-deadlock (channel-dependency-graph check); the
    #: initialisation step of the real flow would load a bad table
    #: into hardware and hang the emulation, so we refuse it early.
    check_deadlock: bool = True
    name: str = "platform"

    def __post_init__(self) -> None:
        if self.buffer_depth < 1:
            raise ConfigError("buffer depth must be >= 1 flit")
        if self.f_clk_hz <= 0:
            raise ConfigError("clock frequency must be positive")
        if isinstance(self.switching, str):
            try:
                self.switching = SwitchingMode(self.switching)
            except ValueError:
                raise ConfigError(
                    f"unknown switching mode {self.switching!r}"
                ) from None

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def resolve_topology(self) -> Topology:
        """Materialise the topology (string specs name factories)."""
        return resolve_topology_spec(self.topology)

    def resolve_routing(self, topology: Topology) -> RoutingFunction:
        """Materialise the routing function for ``topology``."""
        if isinstance(self.routing, RoutingFunction):
            return self.routing
        spec = self.routing
        if spec.startswith("paper_"):
            if topology.name != "paper6":
                raise ConfigError(
                    f"routing {spec!r} only applies to the paper"
                    f" topology, not {topology.name!r}"
                )
            return paper_routing(topology, case=spec[len("paper_"):])
        if spec == "shortest":
            return build_shortest_path_tables(topology)
        if spec == "updown":
            return build_updown_tables(topology)
        if spec.startswith("multipath"):
            max_paths = 2
            if ":" in spec:
                try:
                    max_paths = int(spec.split(":", 1)[1])
                except ValueError:
                    raise ConfigError(
                        f"malformed routing spec {spec!r}"
                    ) from None
            return build_multipath_tables(topology, max_paths=max_paths)
        raise ConfigError(f"unknown routing spec {spec!r}")

    # ------------------------------------------------------------------
    # Flow support: what forces hardware re-synthesis?
    # ------------------------------------------------------------------
    def hardware_signature(self) -> Tuple:
        """Everything that is baked into the FPGA bitstream.

        Topology, switch parameters and the device mix require
        re-synthesis when changed; traffic parameters, seeds, packet
        budgets and routing tables are software settings written over
        the bus and do not.
        """
        topo = self.resolve_topology()
        switching = (
            self.switching.value
            if isinstance(self.switching, SwitchingMode)
            else self.switching
        )
        return (
            topo.name,
            topo.n_switches,
            topo.n_nodes,
            tuple(sorted(topo.switch_edges())),
            tuple(topo.node_switch),
            self.buffer_depth,
            self.arbitration,
            switching,
            tuple(sorted((tg.node, tg.model) for tg in self.tgs)),
            tuple(sorted((tr.node, tr.kind) for tr in self.trs)),
        )

    def software_signature(self) -> Tuple:
        """Everything the initialisation step writes over the bus."""
        routing = (
            self.routing
            if isinstance(self.routing, str)
            else type(self.routing).__name__
        )
        return (
            routing,
            tuple(
                (
                    tg.node,
                    tg.model,
                    tuple(sorted(_normalise(tg.params).items())),
                    tg.max_packets,
                    tg.seed,
                    tg.queue_limit,
                )
                for tg in self.tgs
            ),
            tuple(
                (
                    tr.node,
                    tr.kind,
                    tuple(sorted(_normalise(tr.params).items())),
                )
                for tr in self.trs
            ),
        )

    def with_software(self, **changes) -> "PlatformConfig":
        """A copy with software-level fields replaced (flow convenience)."""
        return replace(self, **changes)


def _normalise(params: Dict[str, Any]) -> Dict[str, Any]:
    """Make parameter dicts hashable for signatures."""
    out: Dict[str, Any] = {}
    for key, value in params.items():
        if isinstance(value, Trace):
            out[key] = f"trace:{value.name}:{len(value)}"
        elif isinstance(value, (list, tuple)):
            out[key] = tuple(value)
        else:
            out[key] = value
    return out


#: Topology spec grammar: ``family:dim[:dim][:nodes_per_switch]``.
#: Every factory of ``repro.noc.topology`` is reachable, so the whole
#: fabric family space — not just the paper's 6-switch platform — is a
#: sweepable string parameter.
TOPOLOGY_SPECS = (
    "paper",
    "mesh:W:H[:N]",
    "torus:W:H[:N]",
    "ring:S[:N]",
    "star:L",
    "spidergon:S",
    "tree:A:D",
    "full:S[:N]",
)


def resolve_topology_spec(spec: Union[str, Topology]) -> Topology:
    """Materialise a topology spec string via the factory it names."""
    if isinstance(spec, Topology):
        return spec
    if spec == "paper":
        return paper_topology()
    parts = spec.split(":")
    kind, dims = parts[0], parts[1:]
    try:
        sizes = [int(d) for d in dims]
        if kind == "mesh" and len(sizes) in (2, 3):
            return mesh(*sizes)
        if kind == "torus" and len(sizes) in (2, 3):
            return torus(*sizes)
        if kind == "ring" and len(sizes) in (1, 2):
            return ring(*sizes)
        if kind == "star" and len(sizes) == 1:
            return star(sizes[0])
        if kind == "spidergon" and len(sizes) == 1:
            return spidergon(sizes[0])
        if kind == "tree" and len(sizes) == 2:
            return tree(*sizes)
        if kind == "full" and len(sizes) in (1, 2):
            return fully_connected(*sizes)
    except ValueError as exc:
        raise ConfigError(
            f"malformed topology spec {spec!r}: {exc}"
        ) from None
    if kind in ("mesh", "torus", "ring", "star", "spidergon", "tree", "full"):
        raise ConfigError(
            f"malformed topology spec {spec!r}; expected one of"
            f" {TOPOLOGY_SPECS}"
        )
    raise ConfigError(
        f"unknown topology spec {spec!r}; expected one of"
        f" {TOPOLOGY_SPECS}"
    )


# ----------------------------------------------------------------------
# Traffic model factory
# ----------------------------------------------------------------------
def _destination_from(params: Dict[str, Any]) -> DestinationChooser:
    dst = params.get("dst")
    if dst is None:
        raise ConfigError("traffic params must include 'dst'")
    if isinstance(dst, DestinationChooser):
        return dst
    if isinstance(dst, int):
        return FixedDestination(dst)
    return UniformRandomDestination(tuple(dst))


def make_traffic_model(spec: TGSpec) -> TrafficModel:
    """Instantiate the traffic process of one TG spec.

    Parameter conventions per model (all dicts also take ``dst``):

    * ``uniform``: ``length`` plus either ``interval`` or ``load``.
    * ``burst``: ``length`` plus either (``p_on``, ``p_off``) or
      (``load``, ``mean_burst_packets``).
    * ``poisson``: ``length`` plus either ``rate`` or ``load``.
    * ``onoff``: ``length``, ``packets_per_burst`` plus either ``gap``
      or ``load``.
    * ``trace``: either a ``trace`` object or the synthetic-burst
      parameters (``n_bursts``, ``packets_per_burst``,
      ``flits_per_packet``, ``gap``).
    """
    p = dict(spec.params)
    if spec.model == "trace":
        trace = p.get("trace")
        if trace is None:
            try:
                trace = synthetic_burst_trace(
                    n_bursts=p["n_bursts"],
                    packets_per_burst=p["packets_per_burst"],
                    flits_per_packet=p["flits_per_packet"],
                    gap=p.get("gap", 0),
                    dst=p["dst"],
                    seed=spec.seed,
                )
            except KeyError as missing:
                raise ConfigError(
                    f"trace TG needs 'trace' or synthetic parameters;"
                    f" missing {missing}"
                ) from None
        return TraceTraffic(trace, seed=spec.seed)

    destination = _destination_from(p)
    try:
        if spec.model == "uniform":
            length = p["length"]
            if "interval" in p:
                interval = p["interval"]
            else:
                interval = interval_for_load(
                    length if isinstance(length, int) else length[1],
                    p["load"],
                )
            return UniformTraffic(
                length, interval, destination, seed=spec.seed
            )
        if spec.model == "burst":
            if "p_on" in p or "p_off" in p:
                return BurstTraffic(
                    p["p_on"],
                    p["p_off"],
                    p["length"],
                    destination,
                    seed=spec.seed,
                )
            return BurstTraffic.for_load(
                p["load"],
                p.get("mean_burst_packets", 8.0),
                p["length"],
                destination,
                seed=spec.seed,
            )
        if spec.model == "poisson":
            if "rate" in p:
                return PoissonTraffic(
                    p["rate"], p["length"], destination, seed=spec.seed
                )
            return PoissonTraffic.for_load(
                p["load"], p["length"], destination, seed=spec.seed
            )
        if spec.model == "onoff":
            if "gap" in p:
                return OnOffTraffic(
                    p["packets_per_burst"],
                    p["gap"],
                    p["length"],
                    destination,
                    seed=spec.seed,
                )
            return OnOffTraffic.for_load(
                p["load"],
                p["packets_per_burst"],
                p["length"],
                destination,
                seed=spec.seed,
            )
    except KeyError as missing:
        raise ConfigError(
            f"traffic model {spec.model!r} is missing parameter"
            f" {missing}"
        ) from None
    raise ConfigError(f"unknown traffic model {spec.model!r}")


# ----------------------------------------------------------------------
# The paper's canonical setup (Slide 19) and the generic fabric sweep
# ----------------------------------------------------------------------
def _tg_params_for(
    traffic: str,
    load: float,
    length: int,
    dst: Any,
    overrides: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Per-model default TG parameters shared by the config builders."""
    params: Dict[str, Any] = {"dst": dst, "length": length}
    if traffic in ("uniform", "poisson"):
        params["load"] = load
    elif traffic == "burst":
        params["load"] = load
        params["mean_burst_packets"] = 8.0
    elif traffic == "onoff":
        params["load"] = load
        params["packets_per_burst"] = 8
    elif traffic == "trace":
        params.update(
            n_bursts=256,
            packets_per_burst=8,
            flits_per_packet=length,
            gap=round(8 * length * (1.0 - load) / load),
        )
        params.pop("length")
    else:
        raise ConfigError(f"unknown traffic family {traffic!r}")
    if overrides:
        params.update(overrides)
    return params


def paper_platform_config(
    traffic: str = "uniform",
    load: float = PAPER_TG_LOAD,
    length: int = 8,
    max_packets: Optional[int] = 10_000,
    routing_case: str = "overlap",
    receptor_kind: str = "tracedriven",
    buffer_depth: int = 4,
    seed: int = 1,
    traffic_params: Optional[Dict[str, Any]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> PlatformConfig:
    """The 6-switch / 4-TG / 4-TR experimental platform.

    Each generator drives its diagonal receptor at ``load`` (the paper
    uses 45%); ``routing_case`` selects the overlapping (90% hot links)
    or disjoint route case; ``traffic`` picks the model family;
    ``traffic_params`` overrides/extends the per-model defaults.
    ``max_packets`` is the budget *per generator*.  ``seeds`` replaces
    the default per-TG seed registers ``seed + i`` with explicit
    values — the experiment runner passes independently derived stream
    seeds here (see :func:`repro.traffic.rng.derive_stream_seed`).
    """
    flows = paper_flow_pairs()
    if seeds is not None and len(seeds) != len(flows):
        raise ConfigError(
            f"expected {len(flows)} TG seeds, got {len(seeds)}"
        )
    tgs: List[TGSpec] = []
    for i, (src, dst) in enumerate(flows):
        params = _tg_params_for(traffic, load, length, dst, traffic_params)
        tgs.append(
            TGSpec(
                node=src,
                model=traffic,
                params=params,
                max_packets=max_packets,
                seed=seeds[i] if seeds is not None else seed + i,
            )
        )
    trs = [
        TRSpec(node=4 + i, kind=receptor_kind)
        for i in range(len(flows))
    ]
    return PlatformConfig(
        topology="paper",
        routing=f"paper_{routing_case}",
        buffer_depth=buffer_depth,
        tgs=tgs,
        trs=trs,
        name=f"paper6_{traffic}_{routing_case}",
    )


def generic_platform_config(
    topology: Union[str, Topology] = "mesh:3:3",
    traffic: str = "uniform",
    load: float = 0.2,
    length: int = 8,
    max_packets: Optional[int] = 1000,
    routing: str = "auto",
    receptor_kind: str = "tracedriven",
    buffer_depth: int = 4,
    arbitration: str = "round_robin",
    switching: Union[str, SwitchingMode] = SwitchingMode.WORMHOLE,
    seed: int = 1,
    traffic_params: Optional[Dict[str, Any]] = None,
    seeds: Optional[Sequence[int]] = None,
    name: Optional[str] = None,
) -> PlatformConfig:
    """Uniform-random traffic on any factory topology.

    The paper evaluates one hand-built 6-switch platform; the platform
    compiler itself accepts arbitrary switch graphs ("switch topology",
    Slide 6).  This builder opens that axis: every node of the resolved
    topology hosts one traffic generator driving uniformly random
    destinations (all other nodes) *and* one receptor, the standard
    synthetic-workload setup for fabric comparisons.

    ``routing="auto"`` picks a deadlock-free default per family: the
    cyclic fabrics (ring, spidergon, torus) take up*/down* tables —
    plain BFS shortest paths close a channel-dependency cycle there
    (for the torus the wrap-around channels do it: shortest-path
    tables pass the dependency check only on the smallest grids, and
    e.g. ``torus:4:5`` or ``torus:5:5`` cycle) — and everything else
    takes shortest paths.  Explicit ``routing`` specs (``shortest``,
    ``updown``, ``multipath[:k]``) override the choice; the
    platform's channel-dependency check still vets the result.

    Per-TG seed registers come from ``seeds`` when given, else from
    :func:`repro.traffic.rng.derive_stream_seed` so generators never
    share an LFSR stream (the additive ``seed + i`` convention of the
    paper builder makes neighbouring seeds overlap).
    """
    from repro.traffic.rng import derive_stream_seed

    topo = resolve_topology_spec(topology)
    n_nodes = topo.n_nodes
    if n_nodes < 2:
        raise ConfigError(
            f"topology {topo.name!r} has {n_nodes} node(s); uniform"
            f" traffic needs at least 2"
        )
    if routing == "auto":
        family = topo.name.rstrip("0123456789x")
        routing = (
            "updown"
            if family in ("ring", "spidergon", "torus")
            else "shortest"
        )
    if seeds is not None and len(seeds) != n_nodes:
        raise ConfigError(
            f"expected {n_nodes} TG seeds, got {len(seeds)}"
        )
    tgs: List[TGSpec] = []
    trs: List[TRSpec] = []
    # Each TG's all-other-nodes set is one tuple cut from this one,
    # which the destination chooser then keeps without copying.
    nodes = tuple(range(n_nodes))
    for node in range(n_nodes):
        others = nodes[:node] + nodes[node + 1:]
        params = _tg_params_for(
            traffic, load, length, others, traffic_params
        )
        tgs.append(
            TGSpec(
                node=node,
                model=traffic,
                params=params,
                max_packets=max_packets,
                seed=(
                    seeds[node]
                    if seeds is not None
                    else derive_stream_seed(seed, node)
                ),
            )
        )
        trs.append(TRSpec(node=node, kind=receptor_kind))
    return PlatformConfig(
        topology=topo,
        routing=routing,
        buffer_depth=buffer_depth,
        arbitration=arbitration,
        switching=switching,
        tgs=tgs,
        trs=trs,
        name=name or f"{topo.name}_{traffic}",
    )
