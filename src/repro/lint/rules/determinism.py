"""D family — determinism invariants.

The platform's contract is byte-identical outputs for identical specs, on
any engine and at any worker count.  These rules catch the bug classes
that have already broken it once each:

* unordered iteration feeding an order-sensitive sink (the PR 1 seed-test
  Graham anomaly surfaced through unordered candidate handling);
* float-accumulation-order hazards (the PR 5 one-ulp ``dist + alpha +
  beta*size`` vs ``dist + (alpha + beta*size)`` Dijkstra tie-break flip);
* unseeded module-level RNG and wall-clock reads, which make a "pure"
  synthesis function depend on interpreter-global or machine state.

D101 is flow-sensitive (PR 8): set-origin taint from
:class:`~repro.lint.dataflow.SetTaint` follows assignments, set-operator
expressions, comprehensions, and — via the project index's one-level call
summaries — functions that return sets, into order-sensitive sinks.
Reassigning a name to a non-set kills the taint, as does passing it through
``sorted(...)`` (``sorted`` is not a sink), so the dominant safe idiom
``pool = set(items); return sorted(pool)`` stays clean while
``q = p`` aliasing of a set no longer escapes the old syntactic match.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.lint.context import ModuleContext, ProjectIndex
from repro.lint.dataflow import CFG, SetTaint, SinkHit, assigned_names
from repro.lint.findings import Finding

__all__ = ["RULES", "check"]

RULES: Dict[str, str] = {
    "D101": "iteration over a set/frozenset (or .keys()) feeds an order-sensitive sink",
    "D102": "unseeded module-level RNG call (random.* / numpy.random.*)",
    "D103": "wall-clock read inside a module tagged deterministic",
    "D104": "unparenthesized a+b+c float accumulation over cost terms (association hazard)",
}

#: Operand-name fragments treated as cost-model terms by D104.
COST_TERMS = ("alpha", "beta", "cost", "dist", "distance", "latency", "delay")

#: Wall-clock calls that are nondeterministic regardless of arguments.
_WALL_CLOCK_ALWAYS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
#: Wall-clock only when called with no positional argument (defaulting to now).
_WALL_CLOCK_NO_ARGS = {"time.gmtime", "time.localtime", "time.ctime"}

#: ``numpy.random`` members that construct explicit generators/seeds (fine
#: when given a seed; flagged separately when called bare).
_NP_RANDOM_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "BitGenerator",
}


def check(context: ModuleContext, index: ProjectIndex) -> Iterator[Finding]:
    yield from _check_set_iteration(context, index)
    yield from _check_rng(context)
    if context.deterministic:
        yield from _check_wall_clock(context)
        yield from _check_float_association(context)


# ----------------------------------------------------------------------
# D101 — unordered iteration into order-sensitive sinks (flow-sensitive)
# ----------------------------------------------------------------------
def _scope_parameters(scope: ast.AST) -> Set[str]:
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    args = scope.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def _sink_finding(context: ModuleContext, hit: SinkHit) -> Finding:
    return context.finding(
        "D101",
        hit.expr,
        f"iterating {hit.origin} feeds an order-sensitive sink; "
        "wrap it in sorted(...) (or keep an explicitly ordered "
        "structure) so the traversal order is deterministic",
    )


def _check_set_iteration(
    context: ModuleContext, index: ProjectIndex
) -> Iterator[Finding]:
    taint = SetTaint(context.qualified_name, call_origin=index.set_origin)
    # Module scope first; its exit state seeds function scopes so that a
    # module-level `PENDING = set()` tracked into a function still reports.
    cfg, states = taint.analyze(context.tree.body, name=context.module_name)
    for hit in taint.iter_sinks(cfg, states):
        yield _sink_finding(context, hit)
    module_seed = states[CFG.EXIT] or {}

    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shadowed = assigned_names(node.body) | _scope_parameters(node)
        seed = {
            name: origins
            for name, origins in module_seed.items()
            if name not in shadowed
        }
        scope_cfg, scope_states = taint.analyze(node.body, seed=seed, name=node.name)
        for hit in taint.iter_sinks(scope_cfg, scope_states):
            yield _sink_finding(context, hit)


# ----------------------------------------------------------------------
# D102 — unseeded module-level RNG
# ----------------------------------------------------------------------
def _check_rng(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = context.qualified_name(node.func)
        if qualified is None:
            continue
        if qualified.startswith("random."):
            member = qualified[len("random."):]
            if "." in member:
                continue  # methods on an explicit instance path
            if member in ("Random", "SystemRandom"):
                if not node.args and not node.keywords:
                    yield context.finding(
                        "D102",
                        node,
                        f"random.{member}() constructed without a seed draws from "
                        "OS entropy; pass an explicit seed so runs replay",
                    )
                continue
            yield context.finding(
                "D102",
                node,
                f"module-level random.{member}() uses the interpreter-global RNG; "
                "use a seeded random.Random(seed) instance instead",
            )
        elif qualified.startswith("numpy.random."):
            member = qualified[len("numpy.random."):]
            if "." in member:
                continue
            if member in _NP_RANDOM_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield context.finding(
                        "D102",
                        node,
                        f"numpy.random.{member}() without a seed is entropy-seeded; "
                        "pass an explicit seed so runs replay",
                    )
                continue
            yield context.finding(
                "D102",
                node,
                f"module-level numpy.random.{member}() uses the process-global "
                "RNG; use numpy.random.default_rng(seed) instead",
            )


# ----------------------------------------------------------------------
# D103 — wall-clock reads in deterministic modules
# ----------------------------------------------------------------------
def _check_wall_clock(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = context.qualified_name(node.func)
        if qualified is None:
            continue
        flagged = qualified in _WALL_CLOCK_ALWAYS or (
            qualified in _WALL_CLOCK_NO_ARGS and not node.args
        )
        if flagged:
            yield context.finding(
                "D103",
                node,
                f"{qualified}() reads the wall clock inside a module tagged "
                "deterministic; outputs must not depend on machine time "
                "(time.perf_counter() is fine for timing metadata)",
            )


# ----------------------------------------------------------------------
# D104 — float accumulation association hazards
# ----------------------------------------------------------------------
def _add_chain_leaves(node: ast.AST, leaves: List[ast.AST]) -> None:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        _add_chain_leaves(node.left, leaves)
        _add_chain_leaves(node.right, leaves)
    else:
        leaves.append(node)


def _is_cost_term(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return _matches_cost_term(node.id)
    if isinstance(node, ast.Attribute):
        return _matches_cost_term(node.attr)
    if isinstance(node, ast.Subscript):
        return _is_cost_term(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return _is_cost_term(node.left) or _is_cost_term(node.right)
    return False


def _matches_cost_term(identifier: str) -> bool:
    lowered = identifier.lower()
    return any(term in lowered for term in COST_TERMS)


def _check_float_association(context: ModuleContext) -> Iterator[Finding]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(context.tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    for node in ast.walk(context.tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            continue
        # Only the outermost node of a +-chain reports, once.
        parent = parents.get(id(node))
        if isinstance(parent, ast.BinOp) and isinstance(parent.op, ast.Add):
            continue
        leaves: List[ast.AST] = []
        _add_chain_leaves(node, leaves)
        if len(leaves) < 3:
            continue
        cost_leaves = [leaf for leaf in leaves if _is_cost_term(leaf)]
        if len(cost_leaves) < 2:
            continue
        yield context.finding(
            "D104",
            node,
            f"{len(leaves)}-term float addition over cost terms associates "
            "left-to-right; one ulp of difference from a differently "
            "parenthesized twin flips tie-breaks (the PR 5 Dijkstra bug). "
            "Parenthesize explicitly or precompute the combined term once",
        )
