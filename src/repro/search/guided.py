"""The guided synthesis tier: portfolio-primed, pruned, floor-terminated.

:class:`GuidedSynthesizer` is a drop-in :class:`~repro.core.synthesizer.
TacosSynthesizer` whose search is guided rather than uniform:

* incumbent pruning and floor termination are on by default;
* the seed list is reordered to front-load winning seeds of previously
  synthesized specs on the same topology family (when an artifact store is
  attached).

Everything it does is exact: the trial budget, the seed *set*, and the
strict-``<`` best-of selection are unchanged, so the selected algorithm is
byte-identical to the uniform search over the same (reordered) seed list —
and reordering only matters for ties, which the guided tier resolves by its
own list order, exactly like the uniform tier resolves them by trial index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.config import SynthesisConfig
from repro.core.synthesizer import SynthesisEngine, TacosSynthesizer
from repro.search.portfolio import topology_family, winning_seeds
from repro.topology.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports core)
    from repro.api.cache import ArtifactStore

__all__ = ["GuidedSynthesizer"]


class GuidedSynthesizer(TacosSynthesizer):
    """Guided best-of-N synthesis: same winners, far fewer full trials.

    Parameters
    ----------
    config:
        Search configuration.  Defaults to incumbent pruning with floor
        termination over a single trial (raise ``trials`` for a real
        search).  A provided config is respected as given, so
        ``GuidedSynthesizer(SynthesisConfig(incumbent_pruning=True,
        floor_termination=False, ...))`` behaves exactly as written.
    engine:
        The chunk-state core to drive (same seam as the base class).
    store:
        Optional :class:`~repro.api.cache.ArtifactStore` consulted for the
        seed portfolio.  ``None`` disables portfolios (the seed order is
        then identical to the uniform search).
    portfolio_limit:
        Maximum number of portfolio seeds to front-load.

    Attributes
    ----------
    last_portfolio_seeds:
        The portfolio seeds actually front-loaded by the most recent
        synthesis call (empty when no store/family match).
    """

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        engine: Optional[SynthesisEngine] = None,
        *,
        store: Optional["ArtifactStore"] = None,
        portfolio_limit: int = 8,
    ) -> None:
        if config is None:
            config = SynthesisConfig(incumbent_pruning=True, floor_termination=True)
        super().__init__(config, engine)
        self.store = store
        self.portfolio_limit = portfolio_limit
        self.last_portfolio_seeds: List[int] = []

    def _trial_seeds(self, topology: Topology) -> List[int]:
        """Uniform seed list with portfolio seeds moved to the front.

        The returned list is a permutation of the base list plus (possibly)
        portfolio seeds that replace trailing base seeds — its length always
        equals the trial budget, and front-loaded seeds win ties, mirroring
        the uniform tier's earlier-trial-wins-ties rule.
        """
        base = super()._trial_seeds(topology)
        self.last_portfolio_seeds = []
        if self.store is None:
            return base
        portfolio = winning_seeds(
            self.store, topology_family(topology.name), self.portfolio_limit
        )
        if not portfolio:
            return base
        ordered: List[int] = []
        seen = set()
        for seed in portfolio + base:
            if seed in seen:
                continue
            seen.add(seed)
            ordered.append(seed)
        ordered = ordered[: len(base)]
        self.last_portfolio_seeds = [seed for seed in portfolio if seed in set(ordered)]
        return ordered
