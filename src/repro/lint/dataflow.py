"""Intra-procedural control-flow graphs and forward dataflow analyses.

This is the flow-sensitive core the rule families build on.  It has three
layers, all over stdlib :mod:`ast` only:

* :func:`build_cfg` — a statement-level CFG for one scope body.  Compound
  statements are decomposed: ``if``/``while`` tests become condition nodes
  (with ``and``/``or`` short-circuit shape preserved, so each operand gets
  its own node and false-edges bypass the rest), loops get an explicit join
  node carrying the back edge, ``try`` bodies get conservative edges from
  every body node into every handler, and ``break``/``continue``/``return``
  terminate their paths.  Nested function/class bodies are *not* traversed
  — each scope is analyzed with its own CFG.
* :func:`run_forward` — a generic forward may-analysis: states are
  ``{name: frozenset(origin descriptions)}``, joined by pointwise union,
  iterated over a worklist to fixpoint.
* :class:`SetTaint` — the concrete analysis the D family uses: set-origin
  taint through assignments, set-operator expressions, comprehensions and
  (one level of) calls into known set-returning functions, killed by
  reassignment and by the ``sorted(...)`` sanitizer, reported at
  order-sensitive sinks.

The module knows nothing about rules or findings: it reports sinks as
plain :class:`SinkHit` records and leaves messages to the callers.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "CFG",
    "CFGNode",
    "SetTaint",
    "SinkHit",
    "assigned_names",
    "build_cfg",
    "node_expressions",
    "run_forward",
    "target_names",
]

#: One dataflow state: variable (or synthetic fact) name -> origin set.
State = Dict[str, FrozenSet[str]]


# ----------------------------------------------------------------------
# Control-flow graph
# ----------------------------------------------------------------------
@dataclass
class CFGNode:
    """One CFG node: a simple statement, a condition, or a join point.

    ``kind`` is one of ``entry`` / ``exit`` / ``stmt`` (a simple statement,
    including ``def``/``class`` headers whose bodies are separate scopes) /
    ``cond`` (one boolean operand of a test) / ``loop`` (a ``while`` join) /
    ``for`` (iterator evaluation + target binding, also the loop join) /
    ``with`` (context-manager entry) / ``except`` (handler entry).
    """

    index: int
    kind: str
    ast_node: Optional[ast.AST] = None
    succs: List[int] = field(default_factory=list)


class CFG:
    """A single scope's control-flow graph; node 0 is entry, node 1 exit."""

    ENTRY = 0
    EXIT = 1

    def __init__(self, name: str = "<scope>") -> None:
        self.name = name
        self.nodes: List[CFGNode] = [CFGNode(0, "entry"), CFGNode(1, "exit")]
        #: indices of explicit ``return`` statement nodes.
        self.return_nodes: List[int] = []
        #: nodes whose *implicit* successor is the exit (falling off the end).
        self.falloff_nodes: List[int] = []

    def add(self, kind: str, ast_node: Optional[ast.AST] = None) -> int:
        node = CFGNode(len(self.nodes), kind, ast_node)
        self.nodes.append(node)
        return node.index

    def edge(self, src: int, dst: int) -> None:
        succs = self.nodes[src].succs
        if dst not in succs:
            succs.append(dst)

    def successors(self, index: int) -> Tuple[int, ...]:
        return tuple(self.nodes[index].succs)


class _LoopFrame:
    __slots__ = ("continue_target", "breaks")

    def __init__(self, continue_target: int) -> None:
        self.continue_target = continue_target
        self.breaks: List[int] = []


class _CFGBuilder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.loops: List[_LoopFrame] = []

    def connect(self, pending: Sequence[int], node: int) -> None:
        for src in dict.fromkeys(pending):
            self.cfg.edge(src, node)

    def block(self, stmts: Sequence[ast.stmt], pending: List[int]) -> List[int]:
        frontier = list(pending)
        for stmt in stmts:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self.statement(stmt, frontier)
        return frontier

    def branch(
        self, test: ast.expr, pending: List[int]
    ) -> Tuple[List[int], List[int]]:
        """Decompose a test into condition nodes; return (true, false) exits."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            true_frontier = pending
            false_exits: List[int] = []
            for value in test.values:
                true_frontier, value_false = self.branch(value, true_frontier)
                false_exits.extend(value_false)
            return true_frontier, false_exits
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            false_frontier = pending
            true_exits: List[int] = []
            for value in test.values:
                value_true, false_frontier = self.branch(value, false_frontier)
                true_exits.extend(value_true)
            return true_exits, false_frontier
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            true_exits, false_exits = self.branch(test.operand, pending)
            return false_exits, true_exits
        node = self.cfg.add("cond", test)
        self.connect(pending, node)
        return [node], [node]

    def statement(self, stmt: ast.stmt, pending: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            true_exits, false_exits = self.branch(stmt.test, pending)
            body_frontier = self.block(stmt.body, true_exits)
            else_frontier = (
                self.block(stmt.orelse, false_exits) if stmt.orelse else false_exits
            )
            return body_frontier + else_frontier

        if isinstance(stmt, ast.While):
            join = self.cfg.add("loop", stmt)
            self.connect(pending, join)
            if isinstance(stmt.test, ast.Constant) and stmt.test.value:
                # `while True:` never exits through the test.
                true_exits, false_exits = [join], []
            else:
                true_exits, false_exits = self.branch(stmt.test, [join])
            frame = _LoopFrame(continue_target=join)
            self.loops.append(frame)
            body_frontier = self.block(stmt.body, true_exits)
            self.loops.pop()
            self.connect(body_frontier, join)
            after = (
                self.block(stmt.orelse, false_exits) if stmt.orelse else false_exits
            )
            return after + frame.breaks

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            # The `for` node evaluates the iterator, binds the target, and is
            # the loop join (back edge target + zero-iteration exit).
            node = self.cfg.add("for", stmt)
            self.connect(pending, node)
            frame = _LoopFrame(continue_target=node)
            self.loops.append(frame)
            body_frontier = self.block(stmt.body, [node])
            self.loops.pop()
            self.connect(body_frontier, node)
            after = self.block(stmt.orelse, [node]) if stmt.orelse else [node]
            return after + frame.breaks

        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, getattr(ast, "TryStar"))
        ):
            watermark = len(self.cfg.nodes)
            body_frontier = self.block(stmt.body, pending)
            body_nodes = list(range(watermark, len(self.cfg.nodes)))
            handler_frontiers: List[int] = []
            for handler in stmt.handlers:
                handler_node = self.cfg.add("except", handler)
                if body_nodes:
                    # An exception may surface after any body statement.
                    for src in body_nodes:
                        self.cfg.edge(src, handler_node)
                else:
                    self.connect(pending, handler_node)
                handler_frontiers.extend(self.block(handler.body, [handler_node]))
            else_frontier = (
                self.block(stmt.orelse, body_frontier)
                if stmt.orelse
                else body_frontier
            )
            merged = else_frontier + handler_frontiers
            if stmt.finalbody:
                return self.block(stmt.finalbody, merged)
            return merged

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = self.cfg.add("with", stmt)
            self.connect(pending, node)
            return self.block(stmt.body, [node])

        if hasattr(ast, "Match") and isinstance(stmt, getattr(ast, "Match")):
            node = self.cfg.add("cond", stmt.subject)
            self.connect(pending, node)
            frontier: List[int] = []
            for case in stmt.cases:
                frontier.extend(self.block(case.body, [node]))
            frontier.append(node)  # no case may match
            return frontier

        if isinstance(stmt, ast.Return):
            node = self.cfg.add("stmt", stmt)
            self.connect(pending, node)
            self.cfg.edge(node, CFG.EXIT)
            self.cfg.return_nodes.append(node)
            return []

        if isinstance(stmt, ast.Raise):
            node = self.cfg.add("stmt", stmt)
            self.connect(pending, node)
            self.cfg.edge(node, CFG.EXIT)
            return []

        if isinstance(stmt, ast.Break):
            node = self.cfg.add("stmt", stmt)
            self.connect(pending, node)
            if self.loops:
                self.loops[-1].breaks.append(node)
            return []

        if isinstance(stmt, ast.Continue):
            node = self.cfg.add("stmt", stmt)
            self.connect(pending, node)
            if self.loops:
                self.cfg.edge(node, self.loops[-1].continue_target)
            return []

        # Simple statement (incl. def/class headers — bodies are own scopes).
        node = self.cfg.add("stmt", stmt)
        self.connect(pending, node)
        return [node]


def build_cfg(body: Sequence[ast.stmt], name: str = "<scope>") -> CFG:
    """Build the CFG for one scope body (module, function, or class body)."""
    cfg = CFG(name)
    builder = _CFGBuilder(cfg)
    frontier = builder.block(list(body), [CFG.ENTRY])
    for index in dict.fromkeys(frontier):
        cfg.edge(index, CFG.EXIT)
    cfg.falloff_nodes = list(dict.fromkeys(frontier))
    return cfg


# ----------------------------------------------------------------------
# Node expression ownership
# ----------------------------------------------------------------------
def node_expressions(node: CFGNode) -> Iterator[ast.expr]:
    """Yield the expressions *owned* by a CFG node (no sub-statements).

    Compound statements were decomposed at build time, so each expression
    in the scope belongs to exactly one node: tests to their ``cond`` node,
    the iterator to its ``for`` node, context managers to the ``with`` node,
    and a simple statement's child expressions to its ``stmt`` node.
    """
    tree = node.ast_node
    if tree is None:
        return
    if node.kind == "cond":
        yield tree  # type: ignore[misc]
    elif node.kind == "for":
        yield tree.iter  # type: ignore[union-attr]
    elif node.kind == "with":
        for item in tree.items:  # type: ignore[union-attr]
            yield item.context_expr
    elif node.kind == "except":
        if tree.type is not None:  # type: ignore[union-attr]
            yield tree.type  # type: ignore[union-attr]
    elif node.kind == "stmt":
        for child in ast.iter_child_nodes(tree):
            if isinstance(child, ast.expr):
                yield child


def target_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment/loop/with target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from target_names(element)
    elif isinstance(target, ast.Starred):
        yield from target_names(target.value)


def assigned_names(body: Sequence[ast.stmt]) -> FrozenSet[str]:
    """Every name bound anywhere in ``body``, nested scopes excluded.

    Used to decide which module-level seeds a function scope shadows: a name
    assigned anywhere in the function is local (reading it before the
    assignment raises ``UnboundLocalError``), so the module-level value never
    flows in.  Comprehension targets and walrus bindings count as bound.
    """
    bound: set = set()
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue  # nested scope: its assignments are not ours
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        stack.extend(ast.iter_child_nodes(node))
    return frozenset(bound)


# ----------------------------------------------------------------------
# Generic forward may-analysis
# ----------------------------------------------------------------------
def _join(current: Optional[State], incoming: State) -> State:
    if current is None:
        return dict(incoming)
    merged = dict(current)
    for name, origins in incoming.items():
        existing = merged.get(name)
        merged[name] = origins if existing is None else existing | origins
    return merged


def run_forward(
    cfg: CFG,
    transfer: Callable[[CFGNode, State], State],
    initial: Optional[State] = None,
) -> List[Optional[State]]:
    """Iterate ``transfer`` over ``cfg`` to fixpoint; return per-node in-states.

    ``transfer(node, state)`` must be monotone and must not mutate ``state``.
    Unreachable nodes keep ``None``.  A safety valve bounds the iteration
    count; the lattice is finite (origin sets drawn from the scope's source
    constructs), so it never triggers on monotone transfers.
    """
    in_states: List[Optional[State]] = [None] * len(cfg.nodes)
    in_states[CFG.ENTRY] = dict(initial) if initial else {}
    worklist = deque([CFG.ENTRY])
    queued = {CFG.ENTRY}
    remaining = 64 * max(1, len(cfg.nodes))
    while worklist:
        remaining -= 1
        if remaining < 0:  # pragma: no cover - monotone transfers terminate
            break
        index = worklist.popleft()
        queued.discard(index)
        node = cfg.nodes[index]
        state = in_states[index]
        assert state is not None
        out = transfer(node, state)
        for succ in node.succs:
            joined = _join(in_states[succ], out)
            if in_states[succ] is None or joined != in_states[succ]:
                in_states[succ] = joined
                if succ not in queued:
                    queued.add(succ)
                    worklist.append(succ)
    return in_states


# ----------------------------------------------------------------------
# Set-origin taint
# ----------------------------------------------------------------------
#: Set methods whose result is itself unordered.
_SET_PRODUCING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}

#: Binary operators that combine sets into sets.
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Calls whose first argument is traversed in argument order (the sinks the
#: D family cares about beyond bare `for` loops and comprehensions).
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate"}


@dataclass(frozen=True)
class SinkHit:
    """One tainted expression reaching an order-sensitive sink."""

    expr: ast.expr
    origin: str


class SetTaint:
    """Set-origin taint over one scope; see the module docstring.

    ``qualified_name`` resolves an expression to a dotted name (the
    module context's resolver); ``call_origin`` maps a qualified callable
    name to an origin description when it is known to return a set (the
    project index's one-level summaries), or ``None`` during the summary
    phase itself.
    """

    def __init__(
        self,
        qualified_name: Callable[[ast.AST], Optional[str]],
        call_origin: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        self.qualified_name = qualified_name
        self.call_origin = call_origin

    # -- expression classification ------------------------------------
    def origin_of(self, expr: ast.AST, state: State) -> Optional[str]:
        """Describe ``expr`` as an unordered iterable, or ``None``."""
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        if isinstance(expr, ast.Name):
            origins = state.get(expr.id)
            if origins:
                return sorted(origins)[0]
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a {func.id}()"
            if isinstance(func, ast.Attribute):
                if func.attr == "keys" and not expr.args and not expr.keywords:
                    return "a .keys() view"
                if func.attr in _SET_PRODUCING_METHODS:
                    receiver = self.origin_of(func.value, state)
                    if receiver is not None:
                        return f"a set (.{func.attr}() result)"
            if self.call_origin is not None:
                qualified = self.qualified_name(func)
                if qualified is not None:
                    summary = self.call_origin(qualified)
                    if summary is not None:
                        return summary
            return None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_BINOPS):
            return self.origin_of(expr.left, state) or self.origin_of(
                expr.right, state
            )
        if isinstance(expr, ast.IfExp):
            return self.origin_of(expr.body, state) or self.origin_of(
                expr.orelse, state
            )
        if isinstance(expr, ast.NamedExpr):
            return self.origin_of(expr.value, state)
        if isinstance(expr, ast.Starred):
            return self.origin_of(expr.value, state)
        if isinstance(expr, ast.Await):
            return self.origin_of(expr.value, state)
        return None

    # -- transfer function --------------------------------------------
    def transfer(self, node: CFGNode, state: State) -> State:
        new = self._bind_walrus(node, state)
        tree = node.ast_node
        if node.kind == "for":
            return self._kill(new, target_names(tree.target))  # type: ignore[union-attr]
        if node.kind == "with":
            for item in tree.items:  # type: ignore[union-attr]
                if item.optional_vars is not None:
                    new = self._kill(new, target_names(item.optional_vars))
            return new
        if node.kind == "except":
            if tree.name:  # type: ignore[union-attr]
                return self._kill(new, [tree.name])  # type: ignore[union-attr]
            return new
        if node.kind != "stmt" or tree is None:
            return new

        if isinstance(tree, ast.Assign):
            origin = self.origin_of(tree.value, new)
            for target in tree.targets:
                if isinstance(target, ast.Name):
                    new = self._bind(new, target.id, origin)
                else:
                    new = self._kill(new, target_names(target))
            return new
        if isinstance(tree, ast.AnnAssign) and isinstance(tree.target, ast.Name):
            if tree.value is not None:
                return self._bind(
                    new, tree.target.id, self.origin_of(tree.value, new)
                )
            return new
        if isinstance(tree, ast.AugAssign):
            # `s |= other` keeps s's classification either way; no kill.
            return new
        if isinstance(tree, ast.Delete):
            for target in tree.targets:
                new = self._kill(new, target_names(target))
            return new
        if isinstance(tree, (ast.Import, ast.ImportFrom)):
            names = [
                (alias.asname or alias.name).split(".")[0] for alias in tree.names
            ]
            return self._kill(new, names)
        if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return self._kill(new, [tree.name])
        return new

    @staticmethod
    def _bind(state: State, name: str, origin: Optional[str]) -> State:
        new = dict(state)
        if origin is None:
            new.pop(name, None)
        else:
            new[name] = frozenset({origin})
        return new

    @staticmethod
    def _kill(state: State, names: Iterator[str]) -> State:
        new = dict(state)
        for name in names:
            new.pop(name, None)
        return new

    def _bind_walrus(self, node: CFGNode, state: State) -> State:
        new = state
        for expr in node_expressions(node):
            for inner in ast.walk(expr):
                if isinstance(inner, ast.NamedExpr) and isinstance(
                    inner.target, ast.Name
                ):
                    new = self._bind(
                        new, inner.target.id, self.origin_of(inner.value, new)
                    )
        return new

    # -- scope analysis ------------------------------------------------
    def analyze(
        self, body: Sequence[ast.stmt], seed: Optional[State] = None, name: str = "<scope>"
    ) -> Tuple[CFG, List[Optional[State]]]:
        cfg = build_cfg(body, name)
        return cfg, run_forward(cfg, self.transfer, seed)

    def returns_set(self, body: Sequence[ast.stmt]) -> bool:
        """True when any return path's value is set-origin (summary phase)."""
        cfg, in_states = self.analyze(body)
        for index in cfg.return_nodes:
            node = cfg.nodes[index]
            state = in_states[index]
            value = node.ast_node.value  # type: ignore[union-attr]
            if state is not None and value is not None:
                if self.origin_of(value, state) is not None:
                    return True
        return False

    # -- sink scanning --------------------------------------------------
    def iter_sinks(
        self, cfg: CFG, in_states: List[Optional[State]]
    ) -> Iterator[SinkHit]:
        for node in cfg.nodes:
            state = in_states[node.index]
            if state is None:
                continue  # unreachable
            if node.kind == "for":
                hit = self._sink_hit(node.ast_node.iter, state)  # type: ignore[union-attr]
                if hit is not None:
                    yield hit
            for expr in node_expressions(node):
                yield from self._scan_expr(expr, state)

    def _sink_hit(self, expr: ast.expr, state: State) -> Optional[SinkHit]:
        origin = self.origin_of(expr, state)
        if origin is None:
            return None
        return SinkHit(expr=expr, origin=origin)

    def _scan_expr(self, expr: ast.expr, state: State) -> Iterator[SinkHit]:
        if isinstance(expr, ast.Lambda):
            return  # separate scope; not analyzed here
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            # Iterating a set *into another set* is order-insensitive, so
            # SetComp generators are not sinks — but they are still scanned
            # for nested constructs, with their targets shadowing taint.
            order_sensitive = not isinstance(expr, ast.SetComp)
            inner = dict(state)
            for generator in expr.generators:
                if order_sensitive:
                    hit = self._sink_hit(generator.iter, inner)
                    if hit is not None:
                        yield hit
                yield from self._scan_expr(generator.iter, inner)
                for name in target_names(generator.target):
                    inner.pop(name, None)
                for condition in generator.ifs:
                    yield from self._scan_expr(condition, inner)
            if isinstance(expr, ast.DictComp):
                yield from self._scan_expr(expr.key, inner)
                yield from self._scan_expr(expr.value, inner)
            else:
                yield from self._scan_expr(expr.elt, inner)
            return
        if isinstance(expr, ast.Call):
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id in _ORDER_SENSITIVE_WRAPPERS
                and expr.args
            ):
                hit = self._sink_hit(expr.args[0], state)
                if hit is not None:
                    yield hit
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                yield from self._scan_expr(child, state)
