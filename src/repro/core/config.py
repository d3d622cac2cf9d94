"""Synthesis configuration for the TACOS synthesizer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SynthesisError

__all__ = ["SynthesisConfig"]


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs controlling the randomized TACOS search.

    How the trials execute (serial or on the process pool) is not a field:
    it comes from the ambient :func:`~repro.api.parallel.execution_scope`,
    and the selected algorithm is byte-identical either way.

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
    enable_forwarding:
        Allow the matching round to additionally push a chunk one hop closer
        to a destination that cannot yet be served directly.  This is a
        superset of Alg. 1 needed for rooted/personalized collectives
        (Gather, Scatter, All-to-All) where intermediate NPUs never request
        the chunk themselves; it never fires for the paper's All-Gather /
        Broadcast style patterns when a direct match exists.
    max_rounds:
        Safety bound on the number of time spans; exceeded only if synthesis
        cannot make progress (e.g. disconnected topology).
    incumbent_pruning:
        Abort a trial the moment a lower bound on its final collective time
        *strictly* exceeds the best completed trial so far (the incumbent).
        Exact: a pruned trial provably cannot win, and ties still resolve by
        seed index, so the selected winner is byte-identical with pruning on
        or off (see docs/determinism.md, "Incumbent pruning is exact").
        The pool backend shares the incumbent across seed waves of twice
        the worker count.
    floor_termination:
        Stop the whole search the moment a completed trial meets the
        round-0 lower bound (the "floor": the :class:`~repro.core.matching.
        TrialBound` value before any transfer is committed, which bounds
        *every* trial's final collective time from below).  No remaining
        trial can be strictly better than an incumbent at the floor, and
        the strict-``<`` best-of selection never replaces the incumbent on
        a tie, so skipping the rest is exact (see docs/determinism.md,
        "Incumbent pruning is exact").  On bandwidth-optimal schedules
        (All-Gather on meshes and rings, where every trial lands exactly on
        the floor) this collapses an N-trial search to a single trial.
        Requires ``incumbent_pruning``.
    """

    seed: int = 0
    trials: int = 1
    prefer_lowest_cost_links: bool = True
    enable_forwarding: bool = True
    max_rounds: int = 1_000_000
    incumbent_pruning: bool = False
    floor_termination: bool = False

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SynthesisError(f"trials must be at least 1, got {self.trials}")
        if self.max_rounds < 1:
            raise SynthesisError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if self.floor_termination and not self.incumbent_pruning:
            raise SynthesisError(
                "floor_termination requires incumbent_pruning (the floor is "
                "the pruning bound evaluated before any transfer commits)"
            )

    def trial_seed(self, trial: int) -> int:
        """Seed used for the ``trial``-th randomized synthesis run."""
        if not 0 <= trial < self.trials:
            raise SynthesisError(f"trial {trial} out of range for {self.trials} trials")
        return self.seed + trial
