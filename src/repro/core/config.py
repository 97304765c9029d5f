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
from functools import lru_cache
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.core.errors import ConfigError
from repro.noc.routing import (
    PAPER_CASES,
    TableRouting,
    build_multipath_tables,
    build_shortest_path_tables,
    build_updown_tables,
    paper_routing,
)
from repro.noc.switch import SwitchConfig, SwitchingMode
from repro.noc.topology import (
    Topology,
    fully_connected,
    mesh,
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
)
from repro.traffic.burst import BurstTraffic
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.poisson import PoissonTraffic
from repro.traffic.trace import TraceTraffic
from repro.traffic.uniform import UniformTraffic
from repro.util import Param, check_declared, declared

#: Traffic-model type tags accepted in :class:`TGSpec`, each naming
#: the model class whose ``PARAMS``/``FORMS`` declare its params.
TRAFFIC_MODELS = {
    "uniform": UniformTraffic,
    "burst": BurstTraffic,
    "poisson": PoissonTraffic,
    "onoff": OnOffTraffic,
    "trace": TraceTraffic,
}
TG_MODELS = tuple(TRAFFIC_MODELS)

#: Receptor type tags accepted in :class:`TRSpec`.
TR_KINDS = ("stochastic", "tracedriven")

#: Declarations scenario specs share with the platform records.
TRAFFIC_MODEL = Param(str, choices=TG_MODELS, label="traffic model")
RECEPTOR_KIND = Param(str, choices=TR_KINDS, label="receptor kind")
BUFFER_DEPTH = Param(int, 1, label="buffer depth")
#: Packet length in flits of a scenario or platform that names none.
PACKET_LENGTH = 8
#: The platform clock: the FPGA platform runs at 50 MHz (Slide 18).
F_CLK_HZ = 50e6

#: The routing spec grammar, in help order: the paper platform's route
#: cases, then the table routings any topology takes.
ROUTINGS = PAPER_CASES + ("auto", "shortest", "updown", "multipath[:k]")


def parse_routing(spec: Any) -> Tuple[str, Any]:
    """The one reader of a routing spec (grammar: :data:`ROUTINGS`).

    Returns ``("paper", case)``, ``("multipath", k)`` (``k`` = 2 if
    omitted), or ``(spec, None)`` for the other routings.
    """
    if isinstance(spec, str):
        if spec in PAPER_CASES:
            return "paper", spec
        family, colon, k = spec.partition(":")
        if not colon and spec in ROUTINGS:
            return spec, None
        if family == "multipath" and (
            not colon or k.isascii() and k.isdigit() and k[0] != "0"
        ):
            return family, int(k) if colon else 2
    raise ConfigError(
        f"unknown routing spec {spec!r}; expected one of {ROUTINGS}"
    )


def auto_routing(topology: Topology) -> str:
    """The deadlock-free table family ``auto`` picks for a fabric:
    up*/down* on the cyclic ones (ring, spidergon, torus), where BFS
    shortest paths close a channel-dependency cycle (on the torus all
    but the smallest grids, e.g. ``torus:4:5``), else shortest paths.
    """
    family = topology.name.rstrip("0123456789x")
    if family in ("ring", "spidergon", "torus"):
        return "updown"
    return "shortest"


@dataclass
class TGSpec:
    """One traffic generator of the platform.

    ``model`` picks the traffic process; ``params`` holds its keyword
    parameters (see :func:`make_traffic_model`); ``max_packets`` bounds
    the run ("number of sent packets" experiments); ``seed`` loads the
    random-initialisation register.
    """

    node: int = declared(Param(int, 0, label="TG node"))
    model: str = declared(TRAFFIC_MODEL, "uniform")
    params: Dict[str, Any] = field(default_factory=dict)
    max_packets: Optional[int] = None
    seed: int = 1
    queue_limit: int = 64

    def __post_init__(self) -> None:
        check_declared(self)

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

    node: int = declared(Param(int, 0, label="TR node"))
    kind: str = declared(RECEPTOR_KIND, "tracedriven")
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_declared(self)


@dataclass
class PlatformConfig:
    """Complete description of one emulation platform instance."""

    topology: Union[str, Topology] = "paper"
    routing: Union[str, TableRouting] = "paper_overlap"
    buffer_depth: int = declared(BUFFER_DEPTH, SwitchConfig.buffer_depth)
    arbitration: str = SwitchConfig.arbitration
    switching: Union[str, SwitchingMode] = SwitchingMode.WORMHOLE
    tgs: List[TGSpec] = field(default_factory=list)
    trs: List[TRSpec] = field(default_factory=list)
    sample_buffers: bool = False
    name: str = "platform"

    def __post_init__(self) -> None:
        check_declared(self)
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

    def resolve_routing(
        self,
        topology: Topology,
        avoid_links: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> TableRouting:
        """Materialise the routing tables for ``topology``, built
        around the down ``avoid_links`` (directed switch pairs) if any;
        paper tables and routing objects then repair to shortest paths
        (the paper's own repair story).  A platform stores a paper case
        as ``paper_<case>`` and never ``auto``, which
        :meth:`~repro.experiments.spec.ScenarioSpec.to_platform_config`
        resolves first."""
        if isinstance(self.routing, TableRouting):
            if not avoid_links:
                return self.routing
            family, arg = "shortest", None
        else:
            spec = self.routing
            prefixed = spec.startswith("paper_")
            family, arg = parse_routing(
                spec[len("paper_"):] if prefixed else spec
            )
            if family == "auto" or prefixed != (family == "paper"):
                raise ConfigError(
                    f"unknown platform routing {spec!r}; expected"
                    f" 'paper_<case>' or a table routing"
                )
        if family == "paper":
            if topology.name != "paper6":
                raise ConfigError(
                    f"routing {self.routing!r} only applies to the paper"
                    f" topology, not {topology.name!r}"
                )
            if not avoid_links:
                return paper_routing(topology, case=arg)
        if family == "updown":
            return build_updown_tables(topology, avoid_links=avoid_links)
        if family == "multipath":
            return build_multipath_tables(
                topology, max_paths=arg, avoid_links=avoid_links
            )
        return build_shortest_path_tables(topology, avoid_links=avoid_links)

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

    def with_software(self, **changes) -> "PlatformConfig":
        """A copy with software-level fields replaced (flow convenience)."""
        return replace(self, **changes)


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


@dataclass(frozen=True)
class TopologyShape:
    """What a scenario spec checks against: sizes and switch links."""

    n_nodes: int
    n_switches: int
    #: Every directed switch-to-switch pair ``(a, b)`` with a link.
    links: FrozenSet[Tuple[int, int]]


@lru_cache(maxsize=None)
def check_topology_spec(spec: str) -> TopologyShape:
    """Validate a topology spec string once per process; its shape.

    Scenario specs call this instead of building a :class:`Topology`
    they would throw away.  Only the shape is memoised: every platform
    still resolves its own fresh graph, and a malformed spec raises
    its :class:`ConfigError` on every call (exceptions are not cached).
    """
    topo = resolve_topology_spec(spec)
    return TopologyShape(
        topo.n_nodes,
        topo.n_switches,
        frozenset((a, b) for a, b, _delay in topo.switch_edges()),
    )


# ----------------------------------------------------------------------
# Traffic model factory
# ----------------------------------------------------------------------
def _destination_from(dst: Any) -> DestinationChooser:
    if isinstance(dst, DestinationChooser):
        return dst
    if isinstance(dst, int):
        return FixedDestination(dst)
    return UniformRandomDestination(tuple(dst))


def _traffic_model(name: str) -> Any:
    try:
        return TRAFFIC_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown traffic model {name!r}; expected one of {TG_MODELS}"
        ) from None


def make_traffic_model(
    spec: TGSpec, check_only: bool = False
) -> Optional[TrafficModel]:
    """Instantiate the traffic process of one TG spec, or with
    ``check_only`` only check that it would build: the declared pass
    below, then the model class's :meth:`~repro.traffic.base.
    TrafficModel.check_form`.

    The model class declares its params (``PARAMS``) and constructors
    (``FORMS``), see :class:`repro.traffic.base.TrafficModel`.
    ``spec.params`` may name only those params and ``dst``; a param
    the selected form takes and they omit gets its constant default.
    """
    model = _traffic_model(spec.model)
    params = spec.params
    declared = model.PARAMS
    for key, value in params.items():
        if key == "dst":
            continue
        if key not in declared:
            import difflib

            known = sorted([*declared, "dst"])
            raise ConfigError(
                f"unknown traffic_params key {key!r} for {spec.model}"
                f" traffic; did you mean"
                f" {difflib.get_close_matches(key, known, n=1) or known}?"
            )
        problem = declared[key].problem(value)
        if problem is not None:
            raise ConfigError(
                f"traffic_params {key!r} of {spec.model} traffic {problem}"
            )
    factory, args = model.form_for(params)
    kwargs = {}
    missing = []
    for arg in args:
        key = "dst" if arg == "destination" else arg
        if key in params:
            kwargs[arg] = params[key]
        elif key != "dst" and not callable(declared[key].default):
            kwargs[arg] = declared[key].default
        if kwargs.get(arg) is None:
            missing.append(key)
    if missing:
        raise ConfigError(
            f"traffic model {spec.model!r} is missing parameter(s)"
            f" {', '.join(map(repr, missing))}"
        )
    try:
        if check_only:
            return model.check_form(factory, kwargs)
        if "destination" in kwargs:
            kwargs["destination"] = _destination_from(kwargs["destination"])
        return factory(**kwargs, seed=spec.seed)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{spec.model} traffic: {exc}") from None


def tg_params(
    traffic: str,
    load: float,
    length: int,
    dst: Any,
    overrides: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """One TG's params: the declared defaults of its model's default
    form for this ``load`` and ``length``, then the overrides."""
    model = _traffic_model(traffic)
    params: Dict[str, Any] = {"dst": dst}
    for arg in model.form_for(())[1]:
        if arg != "destination":
            default = model.PARAMS[arg].default
            params[arg] = (
                default(length, load) if callable(default) else default
            )
    if overrides:
        params.update(overrides)
    return params
