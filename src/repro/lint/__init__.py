"""``repro.lint`` — AST-based invariant analyzer for the repro codebase.

The platform's contract is *byte-identical determinism across engines and
worker counts*, enforced dynamically by the frozen-reference bench chain and the
backend-equivalence suites.  This package adds the static half: a
stdlib-``ast`` analyzer that machine-checks the invariants those dynamic
gates have historically caught only after the fact (the PR 1 unordered-set
Graham-anomaly test, the PR 5 one-ulp float-association Dijkstra flip).

Four rule families, each a visitor over a shared per-module analysis
context (:class:`~repro.lint.context.ModuleContext`) with import and scope
resolution, plus a project-wide symbol index for cross-module checks:

* **D — determinism**: unordered iteration feeding order-sensitive sinks,
  unseeded module-level RNG, and — in the modules listed in
  :data:`~repro.lint.config.DETERMINISTIC_MODULES` — wall-clock reads and
  float-accumulation-order hazards;
* **P — process-safety**: callables crossing the
  :func:`~repro.api.parallel.map_parallel` seam must be module-level
  (picklable) defs; worker payload classes must avoid unpicklable fields;
  no ad-hoc executors per call;
* **J — artifact hygiene**: ``json.dump(s)`` without an explicit
  ``allow_nan`` decision, any pickle use;
* **R — registry contracts**: ``@register``-decorated plugins must match
  their registry's builder signature contract.

Intentional exemptions are inline ``# repro-lint: disable=RULE -- reason``
directives, which require the trailing reason (the S family checks them).
The gate fails on any finding a directive does not cover.

Run it as ``tacos-repro lint`` or ``python -m repro.lint``.
"""

from repro.lint.config import DETERMINISTIC_MODULES, LintConfig
from repro.lint.findings import Finding
from repro.lint.runner import LintReport, run_lint

__all__ = [
    "DETERMINISTIC_MODULES",
    "Finding",
    "LintConfig",
    "LintReport",
    "run_lint",
]
