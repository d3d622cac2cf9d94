"""Guided synthesis search: incumbent pruning, floors, and seed portfolios.

The uniform TACOS search (:class:`~repro.core.synthesizer.TacosSynthesizer`)
runs ``trials`` independent randomized matchings and keeps the best.  This
package layers three exact accelerations on top — the winner is always
byte-identical to the uniform search over the same seed list:

* **Incumbent pruning** (``SynthesisConfig.incumbent_pruning``) — a trial
  aborts the moment a monotone lower bound on its final collective time
  strictly exceeds the best completed trial.
* **Floor termination** (``SynthesisConfig.floor_termination``) — the whole
  search stops once a completed trial meets the round-0 bound, which bounds
  every trial from below.
* **Seed portfolios** (:class:`GuidedSynthesizer`) — winning seeds of
  previously synthesized specs on the same topology family are tried first,
  so a strong incumbent is established early and pruning bites harder.

See docs/determinism.md ("Incumbent pruning is exact") for the exactness
arguments, the ``search`` grid of ``tacos-repro bench`` for the byte-identity
check, and ``perfbench/``'s ``search-gather`` workload for the measured effect.
"""

from repro.search.guided import GuidedSynthesizer
from repro.search.portfolio import topology_family, winning_seeds

__all__ = ["GuidedSynthesizer", "topology_family", "winning_seeds"]
