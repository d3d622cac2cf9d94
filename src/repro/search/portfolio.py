"""Seed portfolios mined from previously synthesized artifacts.

Every synthesized algorithm persisted through the artifact store
(:meth:`~repro.api.cache.ResultCache.put_algorithm`) carries its winning
seed in the metadata of the artifact's JSON header.  The portfolio reader
scans the store for runs on the same *topology family* (``Mesh``, ``Ring``,
``DragonFly``, ...) and returns those seeds in a deterministic first-seen
order.  A seed that won once on a family is a good opening move
on a sibling instance: front-loading it establishes a strong incumbent
early, which is what makes incumbent pruning bite (the winner itself is
unaffected — portfolios only reorder the seed list).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports core)
    from repro.api.cache import ArtifactStore

__all__ = ["topology_family", "winning_seeds"]


def topology_family(topology_name: str) -> str:
    """The family prefix of a topology display name.

    Display names are ``Family(dims...)`` — ``Mesh(6x6)``, ``Ring(16)``,
    ``DragonFly(4x4)`` — so the family is everything before the first
    parenthesis.  Names without a parenthesis are their own family.
    """
    return topology_name.partition("(")[0]


def winning_seeds(store: "ArtifactStore", family: str, limit: int = 8) -> List[int]:
    """Winning seeds of stored algorithms on topology family ``family``.

    Scans the store's JSON documents in sorted key order (deterministic for
    a given store state), keeps runs whose resolved topology belongs to
    ``family``, and reads the winning ``seed`` from the metadata in the
    companion algorithm artifact's header (decoded by
    :func:`~repro.api.cache.decode_algorithm_header`, as
    :meth:`~repro.api.cache.ResultCache.load_algorithm` does).  Seeds are
    deduplicated first-seen and truncated to ``limit``.  Corrupt or partial
    entries are skipped — the portfolio is an optimization, never a
    correctness dependency.
    """
    if limit <= 0:
        return []
    from repro.api.cache import ResultCache, decode_algorithm_header

    seeds: List[int] = []
    seen = set()
    for key in store.keys():  # repro-lint: disable=D101 -- ArtifactStore.keys() returns a sorted list, not a dict view
        document = store.read_json(key)
        if not isinstance(document, dict):
            continue
        topology_name = document.get("topology")
        if not isinstance(topology_name, str) or topology_family(topology_name) != family:
            continue
        blob = store.read_blob(key, ResultCache.ALGORITHM_ARTIFACT)
        if blob is None:
            continue
        try:
            header, _ = decode_algorithm_header(blob)
        except ValueError:
            continue
        seed = header["metadata"].get("seed")
        # bool is an int subclass; a JSON true/false is never a seed.
        if not isinstance(seed, int) or isinstance(seed, bool):
            continue
        if seed in seen:
            continue
        seen.add(seed)
        seeds.append(seed)
        if len(seeds) >= limit:
            break
    return seeds
