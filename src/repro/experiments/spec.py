"""Declarative scenario specifications and sweep expanders.

The paper's argument is *throughput of experiments*: the FPGA platform
exists so that a designer can push many NoC configurations through the
flow quickly (the Table 2 speedups are measured so that the Slide 19-22
sweeps become cheap).  A :class:`ScenarioSpec` makes one such
experiment a first-class value: a frozen, validated, hashable record of
everything that determines an emulation's outcome — platform hardware
(topology family and size, switching, arbitration, buffer depth),
routing, traffic software (model, load, packet length, budget) and the
seed registers.

Because the spec is the *complete* cause of a run, its content hash
doubles as the identity of the result: the sweep runner caches on it,
the report module groups by its fields, and parallel workers re-derive
per-generator RNG streams from it (hash-keyed spawning, see
:func:`repro.traffic.rng.derive_stream_seed`) so a scenario's numbers
never depend on which process — or which sweep — executed it.

:class:`Sweep` expands axis definitions into spec lists: ``grid``
takes the cartesian product, ``zip`` pairs axes element-wise, and
``from_file`` loads the JSON sweep documents the ``repro batch`` CLI
consumes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.config import (
    BUFFER_DEPTH,
    PACKET_LENGTH,
    RECEPTOR_KIND,
    TRAFFIC_MODEL,
    PlatformConfig,
    TGSpec,
    TRSpec,
    auto_routing,
    check_topology_spec,
    make_traffic_model,
    parse_routing,
    resolve_topology_spec,
    tg_params,
)
from repro.core.errors import ConfigError
from repro.noc.arbiter import ARBITERS
from repro.noc.switch import SwitchConfig, SwitchingMode
from repro.noc.topology import PAPER_TG_LOAD, paper_flow_pairs
from repro.traffic.base import LENGTH, LOAD
from repro.traffic.rng import derive_stream_seed
from repro.util import (
    Param,
    canonical_json,
    canonical_json_bytes,
    check_declared,
    declared,
    from_fields,
)

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule

#: Bump when the spec schema or its semantics change incompatibly;
#: part of the content hash, so stale cache entries never resurface.
SPEC_SCHEMA = 1


def _frozen_params(
    params: Optional[Mapping[str, Any]],
) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a traffic-params mapping into a hashable tuple."""
    items = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        items.append((str(key), value))
    return tuple(items)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete emulation scenario, hashable and validated.

    Fields mirror the two halves of :class:`~repro.core.config.
    PlatformConfig`: hardware (``topology``, ``switching``,
    ``arbitration``, ``buffer_depth``) and software (``routing``,
    ``traffic``, ``load``, ``length``, ``packets``, ``receptors``,
    ``seed``, ``traffic_params``).  ``packets`` is the budget *per
    generator*; ``traffic_params`` overrides the defaults the traffic
    model declares (accepts a dict, stored as a sorted tuple so the
    spec stays hashable).  A field's :class:`~repro.util.Param`
    declares its type and range.

    ``routing="auto"`` resolves per topology: the paper platform takes
    its overlapping route case, every other fabric the deadlock-free
    family of :func:`~repro.core.config.auto_routing`.

    Construction checks each field and traffic param against its
    declaration, then the fields against each other: fault targets
    and ``dst`` nodes must exist in the topology, and store-and-forward
    buffers must hold the longest packet.
    """

    topology: str = declared(Param(str, label="topology spec string"), "paper")
    routing: str = "auto"
    switching: str = declared(
        Param(str, choices=tuple(m.value for m in SwitchingMode)), "wormhole"
    )
    arbitration: str = declared(
        Param(str, choices=tuple(ARBITERS)), SwitchConfig.arbitration
    )
    buffer_depth: int = declared(BUFFER_DEPTH, SwitchConfig.buffer_depth)
    traffic: str = declared(TRAFFIC_MODEL, "uniform")
    load: float = declared(LOAD, PAPER_TG_LOAD)
    length: int = declared(LENGTH, PACKET_LENGTH)
    packets: Optional[int] = declared(
        Param(int, 1, optional=True, label="packet budget"), 1000
    )
    receptors: str = declared(RECEPTOR_KIND, "tracedriven")
    seed: int = declared(Param(int, 0), 1)
    traffic_params: Tuple[Tuple[str, Any], ...] = field(
        default_factory=tuple
    )
    #: Optional fault schedule applied during the run (accepts a
    #: FaultSchedule or its dict form; None = healthy run).  A
    #: first-class spec field, so sweeps, cache keys and aggregation
    #: cover faulted scenarios exactly like healthy ones.
    faults: Optional[FaultSchedule] = None
    #: Optional windowed-telemetry window length in cycles.  When set,
    #: the runner attaches a :class:`~repro.telemetry.windows.
    #: WindowedMetrics` collector and the scenario record embeds the
    #: (deterministic) window series as ``window_series``.  None keeps
    #: the run — and the spec's canonical form / cache key —
    #: byte-identical to pre-telemetry specs.
    telemetry_windows: Optional[int] = declared(
        Param(int, 1, optional=True), None
    )

    def __post_init__(self) -> None:
        if self.faults is not None:
            # Imported here: a healthy run never loads the fault code.
            from repro.faults.schedule import FaultSchedule

            if isinstance(self.faults, Mapping):
                object.__setattr__(
                    self, "faults", FaultSchedule.from_dict(self.faults)
                )
            elif not isinstance(self.faults, FaultSchedule):
                raise ConfigError(
                    "ScenarioSpec.faults must be a FaultSchedule, its"
                    " dict form, or None; got"
                    f" {type(self.faults).__name__}"
                )
            if not self.faults.events:
                # An empty schedule is a healthy run: normalise so the
                # content hash (and hence the cache key) is identical.
                object.__setattr__(self, "faults", None)
        object.__setattr__(
            self, "traffic_params", _frozen_params(dict(self.traffic_params))
        )
        check_declared(self)
        shape = check_topology_spec(self.topology)
        if shape.n_nodes < 2:
            raise ConfigError(
                f"topology {self.topology!r} has {shape.n_nodes} node(s);"
                f" uniform traffic needs at least 2"
            )
        if parse_routing(self.routing)[0] == "paper" and (
            self.topology != "paper"
        ):
            raise ConfigError(
                f"routing {self.routing!r} is a paper-platform route"
                f" case; topology {self.topology!r} needs table routing"
            )
        if self.faults is not None:
            self.faults.check_targets(shape.links, shape.n_switches)
        self._check_traffic(shape.n_nodes)

    def _check_traffic(self, n_nodes: int) -> None:
        """Run one generator's traffic-model checks here, not at
        platform build, without building a trace model's trace."""
        try:
            canonical_json(self.traffic_params)
        except TypeError:
            raise ConfigError(
                "traffic_params must be JSON-serialisable (scenario"
                " specs are hashed and shipped to worker processes);"
                " pass plain numbers/strings/lists, not live objects"
            ) from None
        try:
            params = tg_params(
                self.traffic, self.load, self.length, 1,
                dict(self.traffic_params),
            )
        except ArithmeticError as exc:  # a gap too long for a float
            raise ConfigError(f"{self.traffic} traffic: {exc}") from None
        dst = params["dst"]
        node = Param(int, 0, n_nodes - 1)
        for d in dst if isinstance(dst, tuple) and dst else (dst,):
            problem = node.problem(d)
            if problem:
                raise ConfigError(
                    f"traffic_params 'dst' node {problem}: the topology"
                    f" has {n_nodes} nodes"
                )
        make_traffic_model(TGSpec(0, self.traffic, params), check_only=True)
        longest = params.get("flits_per_packet", params.get("length"))
        if isinstance(longest, tuple):
            longest = longest[1]  # an inclusive (min, max) range
        if (
            self.switching == SwitchingMode.STORE_AND_FORWARD.value
            and longest > self.buffer_depth
        ):
            # A store-and-forward switch buffers whole packets, so its
            # buffers must hold the longest packet the traffic emits.
            raise ConfigError(
                f"store-and-forward switches buffer whole packets:"
                f" {self.buffer_depth}-flit buffers cannot hold the"
                f" {longest}-flit packets of this traffic"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable form (round-trips via from_dict).

        ``faults`` and ``telemetry_windows`` are omitted while None, so
        every spec from before those fields existed — and every cache
        entry keyed on one — keeps its byte-identical canonical form.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["traffic_params"] = dict(self.traffic_params)
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        for name in ("faults", "telemetry_windows"):
            if payload[name] is None:
                del payload[name]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        return from_fields(cls, payload, "ScenarioSpec")

    @property
    def key(self) -> str:
        """Stable content hash: the identity of this scenario's result.

        A 16-hex-digit SHA-256 prefix over the canonical JSON form plus
        the schema version.  Two specs share a key iff they describe
        the same emulation, which is the contract the result cache and
        the RNG stream derivation both build on.
        """
        payload = {"schema": SPEC_SCHEMA, "spec": self.to_dict()}
        blob = canonical_json_bytes(payload)
        return hashlib.sha256(blob).hexdigest()[:16]

    def label(self) -> str:
        """Short human-readable tag for tables and progress lines."""
        return (
            f"{self.topology}/{self.traffic}"
            f"@{self.load:g}x{self.length}"
            f" d{self.buffer_depth} {self.routing} s{self.seed}"
        )

    # ------------------------------------------------------------------
    # RNG stream derivation (parallel-safe)
    # ------------------------------------------------------------------
    def stream_seed(self, index: int) -> int:
        """Seed register of generator ``index``: an independent stream.

        Spawned from ``(seed, content hash, index)`` so no two
        generators — within a scenario or across scenarios of a sweep —
        share an LFSR sequence, regardless of which worker process runs
        them or in what order.
        """
        return self._stream_seeds([index])[0]

    def _stream_seeds(self, indices: Iterable[int]) -> List[int]:
        """:meth:`stream_seed` of each index, hashing the spec once."""
        key = int(self.key, 16)
        return [derive_stream_seed(self.seed, key, i) for i in indices]

    # ------------------------------------------------------------------
    # Elaboration
    # ------------------------------------------------------------------
    def to_platform_config(self) -> PlatformConfig:
        """Elaborate into a :class:`~repro.core.config.PlatformConfig`.

        The paper platform under its own route cases (``auto`` picks
        ``overlap``) hosts the four paper flows, each generator driving
        its diagonal receptor on nodes 4-7.  Every other scenario,
        table routing on the paper switch graph included, puts one
        generator and one receptor on each node, each generator
        driving uniformly random destinations among all other nodes.
        Generator ``i`` loads :meth:`stream_seed` ``(i)``.
        """
        family, case = parse_routing(self.routing)
        if self.topology == "paper" and family in ("auto", "paper"):
            topology = self.topology
            case = case or "overlap"
            flows = paper_flow_pairs()
            receptors = sorted(dst for _src, dst in flows)
            routing = f"paper_{case}"
            name = f"paper6_{self.traffic}_{case}"
        else:
            topology = resolve_topology_spec(self.topology)
            # Each TG's all-other-nodes set is one tuple cut from this
            # one, which the destination chooser then keeps unchanged.
            nodes = tuple(range(topology.n_nodes))
            flows = [(n, nodes[:n] + nodes[n + 1:]) for n in nodes]
            receptors = nodes
            routing = (
                auto_routing(topology) if family == "auto" else self.routing
            )
            name = f"{topology.name}_{self.traffic}"
        overrides = dict(self.traffic_params)
        seeds = self._stream_seeds(range(len(flows)))
        return PlatformConfig(
            topology=topology,
            routing=routing,
            buffer_depth=self.buffer_depth,
            arbitration=self.arbitration,
            switching=self.switching,
            tgs=[
                TGSpec(
                    node=src,
                    model=self.traffic,
                    params=tg_params(
                        self.traffic, self.load, self.length, dst, overrides
                    ),
                    max_packets=self.packets,
                    seed=seed,
                )
                for (src, dst), seed in zip(flows, seeds)
            ],
            trs=[TRSpec(node=n, kind=self.receptors) for n in receptors],
            name=name,
        )


# ----------------------------------------------------------------------
# Sweep expansion
# ----------------------------------------------------------------------
def _as_base(base: Any) -> ScenarioSpec:
    if isinstance(base, ScenarioSpec):
        return base
    if isinstance(base, Mapping):
        return ScenarioSpec.from_dict(base)
    raise ConfigError(
        f"sweep base must be a ScenarioSpec or mapping, got"
        f" {type(base).__name__}"
    )


def _expand(
    base: Any, axes: Mapping[str, Any], combos: Iterable[Tuple[Any, ...]]
) -> List[ScenarioSpec]:
    """One spec per combination of axis values over ``base``, made (and
    checked) once with all of them; ``traffic_params.<name>`` axes
    reach into the traffic params."""
    spec = _as_base(base if base is not None else ScenarioSpec())
    known = {f.name for f in fields(ScenarioSpec)}
    dotted = "traffic_params."
    for name in axes:
        if name not in known and not (
            name.startswith(dotted) and name != dotted
        ):
            raise ConfigError(
                f"unknown sweep axis {name!r}; expected a ScenarioSpec"
                f" field or 'traffic_params.<name>'"
            )
    specs = []
    for combo in combos if axes else [()]:
        changes: Dict[str, Any] = {}
        for name, value in zip(axes, combo):
            field_name, _, sub = name.partition(".")
            if sub:
                params = dict(changes.get(field_name, spec.traffic_params))
                params[sub] = value
                value = params
            changes[field_name] = value
        specs.append(replace(spec, **changes) if changes else spec)
    return specs


class Sweep:
    """Expanders turning axis definitions into scenario lists."""

    @staticmethod
    def grid(base: Any = None, **axes: Iterable[Any]) -> List[ScenarioSpec]:
        """Cartesian product of the axes over a base spec.

        Axis order follows the keyword order; the last axis varies
        fastest, so the expansion order — and therefore result order
        and cache layout — is deterministic.
        """
        value_lists = {name: list(values) for name, values in axes.items()}
        for name, values in value_lists.items():
            if not values:
                raise ConfigError(f"sweep axis {name!r} is empty")
        return _expand(
            base, value_lists, itertools.product(*value_lists.values())
        )

    @staticmethod
    def zip(base: Any = None, **axes: Iterable[Any]) -> List[ScenarioSpec]:
        """Element-wise pairing of equal-length axes over a base spec."""
        value_lists = {name: list(values) for name, values in axes.items()}
        lengths = {len(v) for v in value_lists.values()}
        if len(lengths) > 1:
            raise ConfigError(
                f"zip axes must have equal lengths, got"
                f" { {n: len(v) for n, v in value_lists.items()} }"
            )
        if 0 in lengths:
            raise ConfigError("zip axes are empty")
        return _expand(base, value_lists, zip(*value_lists.values()))

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> List[ScenarioSpec]:
        """Expand a sweep document (the ``repro batch`` file format).

        ::

            {
              "base": {"topology": "paper", "traffic": "burst", ...},
              "grid": {"load": [0.15, 0.45], "buffer_depth": [2, 4]}
            }

        ``base`` holds ScenarioSpec fields (all optional); exactly one
        of ``grid`` / ``zip`` (or neither, for a single scenario) gives
        the axes.  Axis names may reach into traffic parameters as
        ``traffic_params.<name>``.
        """
        known = {"name", "base", "grid", "zip"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown sweep file key(s) {sorted(unknown)};"
                f" expected a subset of {sorted(known)}"
            )
        base = ScenarioSpec.from_dict(payload.get("base", {}))
        grid_axes = payload.get("grid")
        zip_axes = payload.get("zip")
        if grid_axes and zip_axes:
            raise ConfigError(
                "sweep file must use 'grid' or 'zip', not both"
            )
        if grid_axes:
            return Sweep.grid(base, **dict(grid_axes))
        if zip_axes:
            return Sweep.zip(base, **dict(zip_axes))
        return [base]

    @staticmethod
    def from_file(path: str) -> List[ScenarioSpec]:
        """Load and expand a JSON sweep document from disk."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"sweep file {path!r} is not valid JSON: {exc}"
                ) from None
        if not isinstance(payload, dict):
            raise ConfigError(
                f"sweep file {path!r} must hold a JSON object"
            )
        return Sweep.from_dict(payload)
