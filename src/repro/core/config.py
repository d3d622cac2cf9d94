"""Synthesis configuration for the TACOS synthesizer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SynthesisError

__all__ = ["SynthesisConfig"]


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs controlling the randomized TACOS search.

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
    trial_workers:
        Pool size for dispatching independent randomized trials through the
        shared execution backends (:mod:`repro.api.parallel`).  ``None`` (the
        default) defers to the ambient
        :func:`~repro.api.parallel.execution_scope` policy — serial when none
        is installed; 1 forces serial.  With the default ``execution`` a
        larger value selects the persistent process pool.  Either way the
        selected algorithm is byte-identical because every trial is seeded
        deterministically and the best-of-trials choice is order-independent.
    execution:
        Execution backend for the trial fan-out: ``"serial"``, ``"pool"`` (a
        persistent process pool kept warm across fan-outs), or ``None`` (the
        default) to follow ``trial_workers`` / the ambient scope.
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
    trial_workers: Optional[int] = None
    execution: Optional[str] = None
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
        if self.trial_workers is not None and self.trial_workers < 1:
            raise SynthesisError(
                f"trial_workers must be at least 1 (or None), got {self.trial_workers}"
            )
        if self.execution is not None and self.execution not in ("serial", "pool"):
            raise SynthesisError(
                f"execution must be serial or pool (or None), got {self.execution!r}"
            )

    def trial_seed(self, trial: int) -> int:
        """Seed used for the ``trial``-th randomized synthesis run."""
        if not 0 <= trial < self.trials:
            raise SynthesisError(f"trial {trial} out of range for {self.trials} trials")
        return self.seed + trial
