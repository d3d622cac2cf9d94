"""Guided synthesis search: incumbent pruning and floor termination.

The uniform TACOS search (:class:`~repro.core.synthesizer.TacosSynthesizer`)
runs ``trials`` independent randomized matchings and keeps the best.  This
package layers two exact accelerations on top — the winner is byte-identical
to the uniform search over the same seed list:

* **Incumbent pruning** (``SynthesisConfig.incumbent_pruning``) — a trial
  aborts the moment a monotone lower bound on its final collective time
  strictly exceeds the best completed trial.
* **Floor termination** (``SynthesisConfig.floor_termination``) — the whole
  search stops once a completed trial meets the round-0 bound, which bounds
  every trial from below.

The one exception is a search in which the uniform tier stalls and raises
:class:`~repro.errors.SynthesisError`: pruning can abort the stalling trials
before they stall, so :class:`GuidedSynthesizer` returns the best completed
trial where the uniform search has no winner.

See docs/determinism.md ("Incumbent pruning is exact") for the exactness
arguments, the ``search`` grid of ``tacos-repro bench`` for the byte-identity
check, and ``perfbench/``'s ``search-gather`` workload for the measured effect.
"""

from repro.search.guided import GuidedSynthesizer

__all__ = ["GuidedSynthesizer"]
