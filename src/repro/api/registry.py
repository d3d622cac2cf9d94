"""Name-based registries for topologies, collectives and algorithms.

Every pluggable piece of the library is reachable through a string name so
that declarative :class:`~repro.api.specs.RunSpec` documents (and the CLI)
can drive it.  Third-party code extends the system with the decorator hook::

    from repro.api import TOPOLOGIES

    @TOPOLOGIES.register("my_cluster", positional=("num_npus",))
    def build_my_cluster(num_npus: int) -> Topology:
        ...

Names are normalized (case-insensitive, ``-``/space become ``_``) and
entries may declare aliases, so ``"TACCL-like"`` and ``"taccl_like"`` resolve
to the same entry.  Unknown names raise :class:`~repro.errors.RegistryError`
listing every available entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.algorithm import CollectiveAlgorithm
from repro.errors import RegistryError
from repro.simulator.schedule import LogicalSchedule

__all__ = [
    "normalize_name",
    "RegistryEntry",
    "Registry",
    "AlgorithmArtifact",
    "TOPOLOGIES",
    "COLLECTIVES",
    "ALGORITHMS",
]


def normalize_name(name: str) -> str:
    """Canonical registry key: lower-case with ``-`` and spaces as ``_``."""
    return str(name).strip().lower().replace("-", "_").replace(" ", "_")


@dataclass(frozen=True)
class RegistryEntry:
    """One registered object plus its lookup metadata.

    Attributes
    ----------
    name:
        Canonical (normalized) name.
    obj:
        The registered callable or class.
    aliases:
        Alternative normalized names resolving to this entry.
    description:
        One-line human description shown by ``tacos-repro list``.
    metadata:
        Free-form extras; topology builders use ``positional`` (a tuple of
        parameter names) to support ``"ring:8"``-style CLI shorthand.
    """

    name: str
    obj: Any
    aliases: Tuple[str, ...] = ()
    description: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)


class Registry:
    """A mapping from normalized names (and aliases) to registered objects."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        obj: Optional[Any] = None,
        *,
        aliases: Sequence[str] = (),
        description: str = "",
        **metadata: Any,
    ) -> Callable[[Any], Any]:
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        Duplicate names (or aliases colliding with existing names) raise
        :class:`RegistryError` to catch accidental double registration.
        """

        def _register(target: Any) -> Any:
            key = normalize_name(name)
            if key in self._entries or key in self._aliases:
                raise RegistryError(f"{self.kind} {name!r} is already registered")
            normalized_aliases = tuple(normalize_name(alias) for alias in aliases)
            for alias in normalized_aliases:
                if alias in self._entries or alias in self._aliases:
                    raise RegistryError(
                        f"{self.kind} alias {alias!r} collides with an existing entry"
                    )
            doc = (getattr(target, "__doc__", "") or "").strip()
            entry = RegistryEntry(
                name=key,
                obj=target,
                aliases=normalized_aliases,
                description=description or (doc.splitlines()[0] if doc else ""),
                metadata=dict(metadata),
            )
            self._entries[key] = entry
            for alias in normalized_aliases:
                self._aliases[alias] = key
            return target

        if obj is not None:
            return _register(obj)
        return _register

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests and plugin reloads)."""
        key = self._resolve(name)
        entry = self._entries.pop(key)
        for alias in entry.aliases:
            self._aliases.pop(alias, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _resolve(self, name: str) -> str:
        key = normalize_name(name)
        key = self._aliases.get(key, key)
        if key not in self._entries:
            available = ", ".join(self.names())
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {available or '(none registered)'}"
            )
        return key

    def entry(self, name: str) -> RegistryEntry:
        """Full entry (object plus metadata) for ``name``."""
        return self._entries[self._resolve(name)]

    def get(self, name: str) -> Any:
        """The registered object for ``name`` (raises :class:`RegistryError`)."""
        return self.entry(name).obj

    def canonical_name(self, name: str) -> str:
        """The canonical registry name ``name`` resolves to."""
        return self._resolve(name)

    def names(self) -> List[str]:
        """Sorted canonical names (aliases excluded)."""
        return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """All entries in canonical-name order."""
        return [self._entries[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        key = normalize_name(name)
        return key in self._entries or key in self._aliases

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, entries={self.names()})"


@dataclass
class AlgorithmArtifact:
    """Uniform output of every registered algorithm builder.

    Exactly one of the three payload shapes is populated:

    * ``algorithm`` — a physically-routed, timed :class:`CollectiveAlgorithm`
      (TACOS and other synthesizers);
    * ``schedule`` — a topology-unaware :class:`LogicalSchedule` (the basic
      and manually-designed baselines);
    * ``collective_time`` — an analytic bound with no executable form
      (the ideal bound).

    ``trial_stats`` optionally carries the synthesizer's per-trial
    bookkeeping (seed, rounds, collective time, pruned-at-round, wall
    seconds — see :class:`~repro.core.synthesizer.SynthesisResult`) so the
    run layer can surface it without re-synthesizing.
    """

    algorithm: Optional[CollectiveAlgorithm] = None
    schedule: Optional[LogicalSchedule] = None
    collective_time: Optional[float] = None
    synthesis_seconds: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)
    trial_stats: Optional[List[Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        populated = sum(
            value is not None for value in (self.algorithm, self.schedule, self.collective_time)
        )
        if populated != 1:
            raise RegistryError(
                "an AlgorithmArtifact must carry exactly one of algorithm, schedule, "
                f"or collective_time (got {populated})"
            )


#: Topology builders: ``fn(**params) -> Topology``.
TOPOLOGIES = Registry("topology")

#: Collective pattern factories: ``fn(num_npus, chunks_per_npu, **params) -> CollectivePattern``.
COLLECTIVES = Registry("collective")

#: Algorithm builders: ``fn(topology, pattern, collective_size, **params) -> AlgorithmArtifact``.
ALGORITHMS = Registry("algorithm")
