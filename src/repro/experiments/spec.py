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
import re
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
    PlatformConfig,
    TG_MODELS,
    TR_KINDS,
    check_topology_spec,
    generic_platform_config,
    paper_platform_config,
    resolve_topology_spec,
)
from repro.core.errors import ConfigError
from repro.noc.switch import SwitchingMode
from repro.traffic.rng import derive_stream_seed
from repro.util import canonical_json, canonical_json_bytes

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule

#: Bump when the spec schema or its semantics change incompatibly;
#: part of the content hash, so stale cache entries never resurface.
SPEC_SCHEMA = 1

#: Routing specs a scenario accepts.  The paper route cases apply to
#: the 6-switch platform only; the table builders apply everywhere.
_PAPER_CASES = ("overlap", "disjoint", "split")
_GENERIC_ROUTINGS = ("shortest", "updown")
#: "multipath" (2 paths) or "multipath:<k>"; anything else — e.g. the
#: typo "multipath4" — must be rejected, not silently run as k=2.
_MULTIPATH_RE = re.compile(r"multipath(:[1-9][0-9]*)?")

_ARBITRATIONS = ("round_robin", "fixed_priority", "matrix")


def _is_int(value: Any) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` is an int to Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _frozen_params(
    params: Optional[Mapping[str, Any]],
) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a traffic-params mapping into a hashable tuple."""
    if not params:
        return ()
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
    generator*; ``traffic_params`` overrides the per-model defaults
    (accepts a dict, stored as a sorted tuple so the spec stays
    hashable).

    ``routing="auto"`` resolves per topology: the paper platform takes
    its overlapping route case, cyclic fabrics (ring, spidergon,
    torus — the torus wrap-around channels cycle under BFS shortest
    paths) take deadlock-free up*/down* tables, everything else
    shortest paths.
    """

    topology: str = "paper"
    routing: str = "auto"
    switching: str = "wormhole"
    arbitration: str = "round_robin"
    buffer_depth: int = 4
    traffic: str = "uniform"
    load: float = 0.45
    length: int = 8
    packets: Optional[int] = 1000
    receptors: str = "tracedriven"
    seed: int = 1
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
    telemetry_windows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.telemetry_windows is not None and (
            not _is_int(self.telemetry_windows)
            or self.telemetry_windows < 1
        ):
            raise ConfigError(
                f"telemetry_windows must be an int >= 1 or None, got"
                f" {self.telemetry_windows!r}"
            )
        if self.faults is not None:
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
        if isinstance(self.traffic_params, Mapping):
            object.__setattr__(
                self, "traffic_params", _frozen_params(self.traffic_params)
            )
        else:
            object.__setattr__(
                self,
                "traffic_params",
                _frozen_params(dict(self.traffic_params)),
            )
        if not isinstance(self.topology, str):
            raise ConfigError(
                "ScenarioSpec.topology must be a spec string (specs"
                " must stay serialisable); got"
                f" {type(self.topology).__name__}"
            )
        n_nodes = check_topology_spec(self.topology)
        if n_nodes < 2:
            raise ConfigError(
                f"topology {self.topology!r} has {n_nodes} node(s);"
                f" uniform traffic needs at least 2"
            )
        if self.traffic not in TG_MODELS:
            raise ConfigError(
                f"unknown traffic model {self.traffic!r}; expected one"
                f" of {TG_MODELS}"
            )
        if self.receptors not in TR_KINDS:
            raise ConfigError(
                f"unknown receptor kind {self.receptors!r}; expected"
                f" one of {TR_KINDS}"
            )
        try:
            SwitchingMode(self.switching)
        except ValueError:
            raise ConfigError(
                f"unknown switching mode {self.switching!r}"
            ) from None
        if self.arbitration not in _ARBITRATIONS:
            raise ConfigError(
                f"unknown arbitration {self.arbitration!r}; expected"
                f" one of {_ARBITRATIONS}"
            )
        if not _is_int(self.buffer_depth) or self.buffer_depth < 1:
            raise ConfigError(
                f"buffer depth must be an int >= 1 flit, got"
                f" {self.buffer_depth!r}"
            )
        if (
            isinstance(self.load, bool)
            or not isinstance(self.load, (int, float))
            or not 0.0 < self.load <= 1.0
        ):
            raise ConfigError(
                f"load must be a number in (0, 1], got {self.load!r}"
            )
        if not _is_int(self.length) or self.length < 1:
            raise ConfigError(
                f"packet length must be an int >= 1 flit, got"
                f" {self.length!r}"
            )
        if self.switching == SwitchingMode.STORE_AND_FORWARD.value:
            # A store-and-forward switch buffers whole packets, so its
            # buffers must hold the longest packet the traffic emits.
            key = "flits_per_packet" if self.traffic == "trace" else "length"
            longest = dict(self.traffic_params).get(key, self.length)
            if isinstance(longest, tuple) and len(longest) == 2:
                longest = longest[1]  # an inclusive (min, max) range
            if isinstance(longest, int) and longest > self.buffer_depth:
                raise ConfigError(
                    f"store-and-forward switches buffer whole packets:"
                    f" {self.buffer_depth}-flit buffers cannot hold the"
                    f" {longest}-flit packets of this traffic"
                )
        if self.packets is not None and (
            not _is_int(self.packets) or self.packets < 1
        ):
            raise ConfigError(
                f"packet budget must be an int >= 1 or None, got"
                f" {self.packets!r}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(
                f"seed must be an int >= 0, got {self.seed!r}"
            )
        try:
            canonical_json(self.traffic_params)
        except TypeError:
            raise ConfigError(
                "traffic_params must be JSON-serialisable (scenario"
                " specs are hashed and shipped to worker processes);"
                " pass plain numbers/strings/lists, not live objects"
            ) from None
        valid_routing = isinstance(self.routing, str) and (
            self.routing == "auto"
            or self.routing in _PAPER_CASES
            or self.routing in _GENERIC_ROUTINGS
            or _MULTIPATH_RE.fullmatch(self.routing) is not None
        )
        if not valid_routing:
            raise ConfigError(
                f"unknown routing spec {self.routing!r}; expected"
                f" 'auto', a paper case {_PAPER_CASES}, one of"
                f" {_GENERIC_ROUTINGS} or 'multipath[:k]'"
            )
        if self.topology != "paper" and self.routing in _PAPER_CASES:
            raise ConfigError(
                f"routing {self.routing!r} is a paper-platform route"
                f" case; topology {self.topology!r} needs 'auto',"
                f" 'shortest', 'updown' or 'multipath[:k]'"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable form (round-trips via from_dict).

        The ``faults`` key is omitted for healthy runs so every
        pre-existing spec — and every cache entry keyed on one — keeps
        its byte-identical canonical form.
        """
        payload = {
            "topology": self.topology,
            "routing": self.routing,
            "switching": self.switching,
            "arbitration": self.arbitration,
            "buffer_depth": self.buffer_depth,
            "traffic": self.traffic,
            "load": self.load,
            "length": self.length,
            "packets": self.packets,
            "receptors": self.receptors,
            "seed": self.seed,
            "traffic_params": {k: v for k, v in self.traffic_params},
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.telemetry_windows is not None:
            payload["telemetry_windows"] = self.telemetry_windows
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown ScenarioSpec field(s) {sorted(unknown)};"
                f" expected a subset of {sorted(known)}"
            )
        kwargs = dict(payload)
        params = kwargs.get("traffic_params")
        if params is not None and not isinstance(params, Mapping):
            kwargs["traffic_params"] = dict(params)
        return cls(**kwargs)

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
        """Elaborate into a :class:`~repro.core.config.PlatformConfig`."""
        params = {k: v for k, v in self.traffic_params} or None
        if self.topology == "paper":
            routing = self.routing
            if routing == "auto":
                routing = "overlap"
            if routing in _PAPER_CASES:
                config = paper_platform_config(
                    traffic=self.traffic,
                    load=self.load,
                    length=self.length,
                    max_packets=self.packets,
                    routing_case=routing,
                    receptor_kind=self.receptors,
                    buffer_depth=self.buffer_depth,
                    seed=self.seed,
                    traffic_params=params,
                    seeds=self._stream_seeds(range(4)),
                )
                config.arbitration = self.arbitration
                config.switching = SwitchingMode(self.switching)
                return config
            # Paper topology with generic table routing: fall through
            # to the all-node builder on the paper switch graph.
        topo = resolve_topology_spec(self.topology)
        return generic_platform_config(
            topology=topo,
            traffic=self.traffic,
            load=self.load,
            length=self.length,
            max_packets=self.packets,
            routing=self.routing,
            receptor_kind=self.receptors,
            buffer_depth=self.buffer_depth,
            arbitration=self.arbitration,
            switching=SwitchingMode(self.switching),
            seed=self.seed,
            traffic_params=params,
            seeds=self._stream_seeds(range(topo.n_nodes)),
        )


# ----------------------------------------------------------------------
# Sweep expansion
# ----------------------------------------------------------------------
def _with_axis(spec: ScenarioSpec, key: str, value: Any) -> ScenarioSpec:
    """One axis assignment; dotted keys reach into traffic_params."""
    if key.startswith("traffic_params."):
        sub = key[len("traffic_params."):]
        if not sub:
            raise ConfigError(f"malformed axis name {key!r}")
        params = {k: v for k, v in spec.traffic_params}
        params[sub] = value
        return replace(spec, traffic_params=params)
    known = {f.name for f in fields(ScenarioSpec)}
    if key not in known:
        raise ConfigError(
            f"unknown sweep axis {key!r}; expected a ScenarioSpec"
            f" field or 'traffic_params.<name>'"
        )
    return replace(spec, **{key: value})


def _as_base(base: Any) -> ScenarioSpec:
    if isinstance(base, ScenarioSpec):
        return base
    if isinstance(base, Mapping):
        return ScenarioSpec.from_dict(base)
    raise ConfigError(
        f"sweep base must be a ScenarioSpec or mapping, got"
        f" {type(base).__name__}"
    )


class Sweep:
    """Expanders turning axis definitions into scenario lists."""

    @staticmethod
    def grid(base: Any = None, **axes: Iterable[Any]) -> List[ScenarioSpec]:
        """Cartesian product of the axes over a base spec.

        Axis order follows the keyword order; the last axis varies
        fastest, so the expansion order — and therefore result order
        and cache layout — is deterministic.
        """
        spec = _as_base(base if base is not None else ScenarioSpec())
        if not axes:
            return [spec]
        names = list(axes)
        value_lists = []
        for name in names:
            values = list(axes[name])
            if not values:
                raise ConfigError(f"sweep axis {name!r} is empty")
            value_lists.append(values)
        specs = []
        for combo in itertools.product(*value_lists):
            out = spec
            for name, value in zip(names, combo):
                out = _with_axis(out, name, value)
            specs.append(out)
        return specs

    @staticmethod
    def zip(base: Any = None, **axes: Iterable[Any]) -> List[ScenarioSpec]:
        """Element-wise pairing of equal-length axes over a base spec."""
        spec = _as_base(base if base is not None else ScenarioSpec())
        if not axes:
            return [spec]
        names = list(axes)
        value_lists = [list(axes[name]) for name in names]
        lengths = {len(v) for v in value_lists}
        if len(lengths) != 1:
            raise ConfigError(
                f"zip axes must have equal lengths, got"
                f" { {n: len(v) for n, v in zip(names, value_lists)} }"
            )
        if 0 in lengths:
            raise ConfigError("zip axes are empty")
        specs = []
        for combo in zip(*value_lists):
            out = spec
            for name, value in zip(names, combo):
                out = _with_axis(out, name, value)
            specs.append(out)
        return specs

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
