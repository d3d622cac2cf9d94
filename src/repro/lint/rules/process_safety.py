"""P family — process-safety at the execution-backend seam.

The :class:`~repro.api.parallel.PoolBackend` requires the mapped
function and its items to be picklable: module-level defs (or
``functools.partial`` over them) and plain-data payloads.  A lambda, a
closure, or a bound method works fine on the serial backend and then
explodes the moment someone flips ``--execution pool`` — exactly
the kind of latent seam bug CI should catch statically, because the
dynamic suites only exercise the code paths they know about.

P201 classifies the callable argument at every fan-out call site; P202
audits worker payload classes (``*Payload`` by naming convention) for
fields that are structurally unpicklable (locks, open files, generators,
lambda defaults); P203 flags ad-hoc pool/executor construction inside a
loop or inside a ``map``-shaped function outside the backend modules —
every such call pays full process spin-up that the persistent
:class:`~repro.api.parallel.PoolBackend` amortizes across fan-outs.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.context import ModuleContext, ProjectIndex
from repro.lint.findings import Finding

__all__ = ["RULES", "check"]

RULES: Dict[str, str] = {
    "P201": "callable at an ExecutionBackend fan-out seam is not a module-level def",
    "P202": "worker payload class carries a field of a known-unpicklable type",
    "P203": "pool/executor constructed per call (in a loop or map-shaped function) "
    "outside the execution-backend modules",
}

#: Annotation names (bare or qualified tail) that cannot cross a process
#: boundary via pickle.
_UNPICKLABLE_ANNOTATIONS = {
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Thread",
    "Generator",
    "Iterator",
    "IO",
    "TextIO",
    "BinaryIO",
    "TextIOWrapper",
    "BufferedReader",
    "BufferedWriter",
    "socket",
    "Socket",
}


def check(context: ModuleContext, index: ProjectIndex) -> Iterator[Finding]:
    yield from _check_fanout_callables(context, index)
    yield from _check_payload_classes(context)
    yield from _check_executor_construction(context)


# ----------------------------------------------------------------------
# P201 — callables crossing the seam
# ----------------------------------------------------------------------
class _Scope:
    def __init__(self, node: Optional[ast.AST]) -> None:
        self.node = node
        self.params: Set[str] = set()
        self.nested_defs: Set[str] = set()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                self.params.add(arg.arg)
            if args.vararg is not None:
                self.params.add(args.vararg.arg)
            if args.kwarg is not None:
                self.params.add(args.kwarg.arg)


def _is_fanout_call(call: ast.Call, context: ModuleContext) -> bool:
    qualified = context.qualified_name(call.func)
    if qualified is not None and qualified in context.config.fanout_functions:
        return True
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in context.config.fanout_methods:
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id in context.config.fanout_receivers:
            return True
    return False


def _classify_callable(
    node: ast.AST,
    context: ModuleContext,
    index: ProjectIndex,
    scopes: List[_Scope],
) -> Optional[str]:
    """Return a problem description for the mapped callable, or ``None``.

    Conservative: anything not provably unsafe (an argument we cannot
    resolve, a parameter passed through by a seam wrapper) is accepted —
    responsibility then sits with the wrapper's own callers, which are
    checked at their sites.
    """
    if isinstance(node, ast.Lambda):
        return "a lambda cannot be pickled for the pool backend"
    if isinstance(node, ast.Call):
        qualified = context.qualified_name(node.func)
        if qualified in ("functools.partial", "partial"):
            if node.args:
                return _classify_callable(node.args[0], context, index, scopes)
            return None
        return None  # factory call; not statically classifiable
    if isinstance(node, ast.Attribute):
        qualified = context.qualified_name(node)
        if qualified is not None and index.resolve_function(qualified) is not None:
            return None  # module attribute resolving to a real def
        if qualified is not None:
            return None  # resolvable module attribute (imported callable)
        return (
            "a bound method / object attribute is only picklable when its "
            "instance is; pass a module-level def instead"
        )
    if isinstance(node, ast.Name):
        name = node.id
        enclosing = scopes[:-1]  # scopes outside the innermost one
        innermost = scopes[-1] if scopes else None
        if innermost is not None and name in innermost.params:
            return None  # seam pass-through; callers are checked instead
        # A def nested in any enclosing function scope is a closure.
        for scope in reversed(scopes):
            if name in scope.nested_defs:
                return (
                    f"{name!r} is a nested def (closure); the pool backend "
                    "cannot pickle it — hoist it to module level"
                )
            if name in scope.params:
                return None
        if name in context.module_defs or name in context.imports:
            return None
        return None  # unresolvable; stay conservative
    return None


def _check_fanout_callables(
    context: ModuleContext, index: ProjectIndex
) -> Iterator[Finding]:
    def walk(node: ast.AST, scopes: List[_Scope]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if scopes[-1].node is not None:  # a def nested inside a function
                    scopes[-1].nested_defs.add(child.name)
                yield from walk(child, scopes + [_Scope(child)])
                continue
            if isinstance(child, ast.Lambda):
                yield from walk(child, scopes + [_Scope(child)])
                continue
            if isinstance(child, ast.Call) and _is_fanout_call(child, context):
                if child.args:
                    problem = _classify_callable(child.args[0], context, index, scopes)
                    if problem is not None:
                        yield context.finding(
                            "P201",
                            child.args[0],
                            f"fan-out callable is not process-safe: {problem}",
                        )
            yield from walk(child, scopes)

    yield from walk(context.tree, [_Scope(None)])


# ----------------------------------------------------------------------
# P202 — unpicklable payload fields
# ----------------------------------------------------------------------
def _annotation_names(node: ast.AST) -> Iterator[str]:
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            # String annotations: report the trailing identifiers.
            for token in inner.value.replace("[", " ").replace("]", " ").split():
                yield token.split(".")[-1].strip(",")


def _check_payload_classes(context: ModuleContext) -> Iterator[Finding]:
    suffixes = tuple(context.config.payload_suffixes)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ClassDef) or not node.name.endswith(suffixes):
            continue
        for statement in node.body:
            annotation: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            target_name: Optional[str] = None
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                annotation, value, target_name = (
                    statement.annotation,
                    statement.value,
                    statement.target.id,
                )
            elif isinstance(statement, ast.Assign) and len(statement.targets) == 1 and isinstance(
                statement.targets[0], ast.Name
            ):
                value, target_name = statement.value, statement.targets[0].id
            else:
                continue
            bad: Optional[str] = None
            if annotation is not None:
                names = set(_annotation_names(annotation))
                unpicklable = sorted(names & _UNPICKLABLE_ANNOTATIONS)
                if unpicklable:
                    bad = f"annotated {', '.join(unpicklable)}"
            if bad is None and isinstance(value, ast.Lambda):
                bad = "defaulted to a lambda"
            if bad is None and isinstance(value, ast.Call):
                qualified = context.qualified_name(value.func)
                if qualified in (
                    "threading.Lock",
                    "threading.RLock",
                    "threading.Condition",
                    "threading.Event",
                    "threading.Semaphore",
                ):
                    bad = f"initialized from {qualified}()"
            if bad is not None:
                yield context.finding(
                    "P202",
                    statement,
                    f"payload field {target_name!r} is {bad}; worker payloads "
                    "must cross the process boundary via pickle — carry plain "
                    "data (or columnar bytes) instead",
                )


# ----------------------------------------------------------------------
# P203 — per-call executor construction
# ----------------------------------------------------------------------
#: Function-name shapes that mark a fan-out helper: a pool constructed
#: inside one is re-created on *every* mapped batch.
_MAP_SHAPED_NAMES = ("map", "map_*", "*_map")


def _is_map_shaped(name: str) -> bool:
    return any(fnmatchcase(name, pattern) for pattern in _MAP_SHAPED_NAMES)


def _check_executor_construction(context: ModuleContext) -> Iterator[Finding]:
    """P203: an executor born inside a loop or a ``map``-shaped function.

    The execution-backend modules (``executor-modules`` config, default
    ``repro.api.parallel``) are exempt — owning pool construction and
    lifecycle is exactly their job; everywhere else a per-call executor
    silently pays worker spin-up on every fan-out that the persistent
    pool backend amortizes.  Conservative by construction: only
    constructor calls that resolve to a known executor factory
    (``executor-factories`` config) are flagged, and only when they sit
    lexically inside a ``for``/``while`` body or a function whose name
    matches a ``map`` shape.
    """
    if any(
        fnmatchcase(context.module_name, pattern)
        for pattern in context.config.executor_modules
    ):
        return
    factories = set(context.config.executor_factories)

    def walk(node: ast.AST, loop_depth: int, map_function: Optional[str]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_loop = loop_depth
            child_map = map_function
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                child_loop += 1
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def resets the loop context (its body runs per
                # call, not per iteration) but inherits/establishes the
                # map-shaped context.
                child_loop = 0
                child_map = child.name if _is_map_shaped(child.name) else map_function
            elif isinstance(child, ast.Call):
                qualified = context.qualified_name(child.func)
                if qualified in factories and (loop_depth > 0 or map_function is not None):
                    where = (
                        "inside a loop"
                        if loop_depth > 0
                        else f"inside map-shaped function {map_function!r}"
                    )
                    yield context.finding(
                        "P203",
                        child,
                        f"{qualified} constructed {where}: every fan-out pays "
                        "full worker spin-up; construct the pool once outside "
                        "(or route the fan-out through the persistent pool "
                        "backend in repro.api.parallel)",
                    )
            yield from walk(child, child_loop, child_map)

    yield from walk(context.tree, 0, None)
