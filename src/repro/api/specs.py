"""Declarative, serializable run specifications.

A :class:`RunSpec` is the single front door of the library: it names a
topology, a collective, an algorithm, and simulation options, all as plain
JSON-compatible data.  Every spec round-trips losslessly through
``to_dict``/``from_dict`` (and ``to_json``/``from_json``), so the same
document can be stored in a file, sent over the wire, or used as a cache key
(:meth:`RunSpec.spec_hash`).

Values inside ``params`` are canonicalized on construction (tuples become
lists, mapping keys become strings) so that equality and hashing are stable
across a JSON round-trip::

    >>> spec = TopologySpec(name="mesh", params={"dims": (3, 3)})
    >>> TopologySpec.from_dict(spec.to_dict()) == spec
    True
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import SpecError
from repro.topology.topology import Topology

__all__ = [
    "TopologySpec",
    "CollectiveSpec",
    "AlgorithmSpec",
    "SimulationSpec",
    "RunSpec",
    "topology_to_spec",
    "parse_size",
]


def _canonical(value: Any) -> Any:
    """Normalize ``value`` into the exact shape a JSON round-trip produces."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise SpecError(
        f"spec parameter value {value!r} of type {type(value).__name__} is not JSON-serializable"
    )


#: The one encoder behind :meth:`_SpecBase.canonical_json` (built once, not per call).
#: ``_canonical`` rebuilds every ``params`` value as fresh lists and dicts, so a
#: spec document holds no cycle and the encoder's cycle check is skipped.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
)


@functools.lru_cache(maxsize=None)
def _nested_fields(cls: type) -> Tuple[str, ...]:
    """The fields of spec class ``cls`` declared to hold a nested spec.

    Computed once per class from the field annotations; ``RunSpec`` checks
    on construction that each of them holds an instance of its type.
    """
    hints = typing.get_type_hints(cls)
    return tuple(
        item.name
        for item in dataclasses.fields(cls)
        if isinstance(hints[item.name], type) and issubclass(hints[item.name], _SpecBase)
    )


def _spec_dunder_hash(self) -> int:
    return hash(self.canonical_json())


class _SpecBase:
    """Shared (de)serialization behaviour for every spec dataclass."""

    def to_dict(self) -> Dict[str, Any]:
        """Convert the spec (including nested specs) into plain dictionaries."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_SpecBase":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys ignored)."""
        known = {item.name for item in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialize the spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "_SpecBase":
        """Parse a spec from a JSON document produced by :meth:`to_json`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise SpecError(f"expected a JSON object for {cls.__name__}, got {type(data).__name__}")
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free JSON used for hashing and cache keys."""
        return _CANONICAL_ENCODER.encode(self._plain())

    def _plain(self) -> Dict[str, Any]:
        """The fields as plain dictionaries, sharing (not copying) the values.

        Serializes byte-for-byte like :meth:`to_dict`: ``params`` are already
        canonical from ``__post_init__``, so only nested specs need
        converting, and the deep copy :func:`dataclasses.asdict` makes is
        wasted on a document that is only hashed.  A frozen spec's instance
        ``__dict__`` holds exactly its fields, so one dict copy takes them
        all; the nested ones come from the per-class :func:`_nested_fields`.
        """
        plain = self.__dict__.copy()
        for name in _nested_fields(type(self)):
            plain[name] = plain[name]._plain()
        return plain

    def spec_hash(self) -> str:
        """Stable content hash of the spec (hex digest)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def _canonicalize_params(self) -> None:
        object.__setattr__(self, "params", _canonical(self.params))


@dataclass(frozen=True)
class TopologySpec(_SpecBase):
    """A named topology plus its builder parameters.

    ``name`` refers to an entry in :data:`repro.api.registry.TOPOLOGIES`
    (e.g. ``"ring"``, ``"mesh"``, ``"custom"``); ``params`` are the keyword
    arguments for that builder (e.g. ``{"num_npus": 8}``).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    __hash__ = _spec_dunder_hash

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("topology spec needs a non-empty name")
        self._canonicalize_params()


@dataclass(frozen=True)
class CollectiveSpec(_SpecBase):
    """A collective pattern plus its payload description.

    Attributes
    ----------
    name:
        Entry in :data:`repro.api.registry.COLLECTIVES` (e.g. ``"all_gather"``).
    collective_size:
        Per-NPU collective size in bytes.
    chunks_per_npu:
        Number of sub-chunks each NPU's buffer is split into.
    params:
        Extra pattern arguments (e.g. ``{"root": 0}`` for rooted collectives).
    """

    name: str
    collective_size: float = 4e6
    chunks_per_npu: int = 1
    params: Mapping[str, Any] = field(default_factory=dict)

    __hash__ = _spec_dunder_hash

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("collective spec needs a non-empty name")
        if self.collective_size <= 0:
            raise SpecError(f"collective size must be positive, got {self.collective_size}")
        if self.chunks_per_npu < 1:
            raise SpecError(f"chunks_per_npu must be at least 1, got {self.chunks_per_npu}")
        self._canonicalize_params()


@dataclass(frozen=True)
class AlgorithmSpec(_SpecBase):
    """An algorithm or synthesizer plus its configuration.

    ``name`` refers to an entry in :data:`repro.api.registry.ALGORITHMS`
    (e.g. ``"tacos"``, ``"ring"``, ``"taccl_like"``, ``"ideal"``); ``params``
    configure it (e.g. ``{"trials": 5, "seed": 1}`` for TACOS).
    """

    name: str = "tacos"
    params: Mapping[str, Any] = field(default_factory=dict)

    __hash__ = _spec_dunder_hash

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("algorithm spec needs a non-empty name")
        self._canonicalize_params()


@dataclass(frozen=True)
class SimulationSpec(_SpecBase):
    """Options for timing the produced algorithm.

    Attributes
    ----------
    simulate:
        When True (default) the algorithm is timed by the congestion-aware
        simulator.  When False, physically-routed algorithms report their
        synthesized completion time instead (logical schedules always need
        the simulator).
    routing_message_size:
        Message size used when the simulator must route a send over a
        multi-hop path; defaults to the actual message size.
    """

    simulate: bool = True
    routing_message_size: Optional[float] = None

    __hash__ = _spec_dunder_hash


@dataclass(frozen=True)
class RunSpec(_SpecBase):
    """One fully-described run: topology x collective x algorithm x simulation."""

    topology: TopologySpec
    collective: CollectiveSpec
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    label: str = ""

    __hash__ = _spec_dunder_hash

    def __post_init__(self) -> None:
        for attribute, expected in (
            ("topology", TopologySpec),
            ("collective", CollectiveSpec),
            ("algorithm", AlgorithmSpec),
            ("simulation", SimulationSpec),
        ):
            if not isinstance(getattr(self, attribute), expected):
                raise SpecError(f"RunSpec.{attribute} must be a {expected.__name__}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        try:
            topology = TopologySpec.from_dict(data["topology"])
            collective = CollectiveSpec.from_dict(data["collective"])
        except KeyError as exc:
            raise SpecError(f"RunSpec document is missing the {exc.args[0]!r} section") from None
        return cls(
            topology=topology,
            collective=collective,
            algorithm=AlgorithmSpec.from_dict(data.get("algorithm", {})),
            simulation=SimulationSpec.from_dict(data.get("simulation", {})),
            label=str(data.get("label", "")),
        )


def topology_to_spec(topology: Topology) -> TopologySpec:
    """Express an arbitrary in-memory :class:`Topology` as a ``"custom"`` spec.

    Links keep their exact alpha/beta values and insertion order, so the
    rebuilt topology is indistinguishable from the original (including the
    deterministic tie-breaking order seen by the synthesizer).
    """
    return TopologySpec(
        name="custom",
        params={
            "num_npus": topology.num_npus,
            "topology_name": topology.name,
            "links": [
                [link.source, link.dest, link.alpha, link.beta] for link in topology.links()
            ],
        },
    )


#: Decimal size-unit multipliers accepted by :func:`parse_size`.
_SIZE_UNITS = {"B": 1.0, "KB": 1e3, "MB": 1e6, "GB": 1e9, "TB": 1e12}


def parse_size(text: str) -> float:
    """Parse a human-friendly byte size (``"4MB"``, ``"1.5GB"``, ``"4e6"``)."""
    cleaned = str(text).strip().upper()
    for unit in sorted(_SIZE_UNITS, key=len, reverse=True):
        if cleaned.endswith(unit):
            number = cleaned[: -len(unit)].strip()
            try:
                return float(number) * _SIZE_UNITS[unit]
            except ValueError:
                raise SpecError(f"cannot parse size {text!r}") from None
    try:
        return float(cleaned)
    except ValueError:
        raise SpecError(f"cannot parse size {text!r}") from None
