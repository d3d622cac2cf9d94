"""Synthesis configuration for the TACOS synthesizer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SynthesisError

__all__ = ["SynthesisConfig"]


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs controlling the randomized TACOS search.

    How many processes run the trials is not a field: the worker count
    comes from the ambient :func:`~repro.api.parallel.execution_scope`,
    and the selected algorithm is byte-identical at any count.  Neither is the
    search tier: uniform best-of-N is
    :class:`~repro.core.synthesizer.TacosSynthesizer` (algorithm ``tacos``)
    and the pruned search is :class:`~repro.core.synthesizer.
    GuidedSynthesizer` (algorithm ``guided``).  The forwarding pass is not a
    field either: it runs exactly when some NPU relays chunks it never
    requests (Gather, Scatter, All-to-All).

    Attributes
    ----------
    seed:
        Base random seed.  Trial ``i`` uses ``seed + i`` so results are
        reproducible while still exploring different random matchings.
    trials:
        Number of independent randomized synthesis runs; the algorithm with
        the smallest collective time is kept (the artifact's randomized
        search behaves the same way).
    prefer_lowest_cost_links:
        When several candidate links can serve a match, restrict the random
        choice to the lowest-cost ones (Sec. IV-F, "Prioritizing Lower-cost
        Links").  Only matters on heterogeneous topologies.
    max_rounds:
        Safety bound on the number of time spans; exceeded only if synthesis
        cannot make progress (e.g. disconnected topology).
    """

    seed: int = 0
    trials: int = 1
    prefer_lowest_cost_links: bool = True
    max_rounds: int = 1_000_000

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SynthesisError(f"trials must be at least 1, got {self.trials}")
        if self.max_rounds < 1:
            raise SynthesisError(f"max_rounds must be at least 1, got {self.max_rounds}")

    def trial_seed(self, trial: int) -> int:
        """Seed used for the ``trial``-th randomized synthesis run."""
        if not 0 <= trial < self.trials:
            raise SynthesisError(f"trial {trial} out of range for {self.trials} trials")
        return self.seed + trial
