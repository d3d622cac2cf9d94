"""The guided synthesis tier: pruned and floor-terminated.

:class:`GuidedSynthesizer` is a drop-in :class:`~repro.core.synthesizer.
TacosSynthesizer` whose search is guided rather than uniform: incumbent
pruning and floor termination are on by default.

Both are exact: the trial budget, the seed list and the strict-``<``
best-of selection are unchanged, so the selected algorithm is
byte-identical to the uniform search over the same seeds.  The one
exception is a search in which the uniform tier stalls (a trial is left
with undelivered chunks and nothing to schedule, and raises
:class:`~repro.errors.SynthesisError`): there pruning can abort the
stalling trials before they stall, and the guided tier returns the best
trial that completed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SynthesisConfig
from repro.core.synthesizer import SynthesisEngine, TacosSynthesizer

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
    """

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        engine: Optional[SynthesisEngine] = None,
    ) -> None:
        if config is None:
            config = SynthesisConfig(incumbent_pruning=True, floor_termination=True)
        super().__init__(config, engine)
