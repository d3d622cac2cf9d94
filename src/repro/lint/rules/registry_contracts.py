"""R family — registry builder contracts.

Every pluggable piece of the platform registers through
:class:`repro.api.registry.Registry`; the registries document builder
signatures (``ALGORITHMS``: ``fn(topology, pattern, collective_size,
**params)``, ``TOPOLOGIES``: ``fn(**params)`` with declared ``positional``
shorthand names).  A mismatched plugin signature only explodes when that
entry is first resolved from a spec — at a user's CLI invocation, not at
import.  These rules check the contract at the registration site, resolving
the registered callable through the project-wide symbol index (so builders
registered in ``api/builtins.py`` but defined under ``topology/builders/``
are still checked, through the package re-export chain).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.lint.context import FunctionInfo, ModuleContext, ProjectIndex, function_info
from repro.lint.findings import Finding

__all__ = ["RULES", "check"]

RULES: Dict[str, str] = {
    "R501": "registered algorithm builder does not accept the registry's positional contract",
    "R502": "topology builder lacks a parameter named in its positional=() metadata",
}

#: Builder contracts, keyed by the registry object's qualified name.
#: ``min_positional`` is the number of leading positional parameters the
#: registered callable must accept; ``check_positional_metadata`` checks
#: that ``positional=(...)`` names are parameters of the registered builder.
REGISTRY_CONTRACTS: Dict[str, Dict[str, Any]] = {
    "repro.api.registry.ALGORITHMS": {
        "min_positional": 3,
        "contract": "fn(topology, pattern, collective_size, **params)",
    },
    "repro.api.registry.TOPOLOGIES": {
        "check_positional_metadata": True,
        "contract": "fn(**params) with declared positional names",
    },
}


def check(context: ModuleContext, index: ProjectIndex) -> Iterator[Finding]:
    for site in _registration_sites(context):
        call, registry_qualified, target = site
        contract = REGISTRY_CONTRACTS.get(registry_qualified)
        if contract is None:
            continue
        info = _resolve_target(target, context, index)
        minimum = contract.get("min_positional")
        if minimum is not None and info is not None:
            if not info.accepts_positional(minimum):
                yield context.finding(
                    "R501",
                    call,
                    f"{_registry_label(registry_qualified)} builder "
                    f"{info.qualified_name} accepts "
                    f"{len(info.positional)} positional parameter(s) but the "
                    f"registry contract is {contract['contract']}",
                )
        if contract.get("check_positional_metadata") and info is not None:
            for name, keyword in _positional_metadata(call):
                if not info.accepts_parameter(name):
                    yield context.finding(
                        "R502",
                        keyword,
                        f"positional shorthand name {name!r} is not a parameter "
                        f"of {info.qualified_name}; `{_registry_label(registry_qualified)}"
                        f".register(..., positional=...)` names must match the "
                        "builder's signature",
                    )


def _registry_label(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def _registration_sites(
    context: ModuleContext,
) -> Iterator[Tuple[ast.Call, str, Optional[ast.AST]]]:
    """Yield ``(register_call, registry_qualified_name, registered_target)``.

    Covers both forms: the decorator (``@ALGORITHMS.register("name")`` on a
    def — the target is the decorated function) and the direct call
    (``TOPOLOGIES.register("name", builder, ...)`` — the target is the
    second positional argument).
    """
    decorated: Dict[int, ast.AST] = {}
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorated[id(decorator)] = node
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "register"):
            continue
        registry_qualified = context.qualified_name(func.value)
        if registry_qualified is None or registry_qualified not in REGISTRY_CONTRACTS:
            continue
        if id(node) in decorated:
            yield node, registry_qualified, decorated[id(node)]
        elif len(node.args) >= 2:
            yield node, registry_qualified, node.args[1]
        else:
            # Decorator factory without a visible target elsewhere: skip.
            continue


def _resolve_target(
    target: Optional[ast.AST], context: ModuleContext, index: ProjectIndex
) -> Optional[FunctionInfo]:
    if target is None:
        return None
    if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return function_info(f"{context.module_name}.{target.name}", target.args)
    if isinstance(target, ast.Lambda):
        return function_info(f"{context.module_name}.<lambda>", target.args)
    qualified = context.qualified_name(target)
    return index.resolve_function(qualified)


def _positional_metadata(call: ast.Call) -> List[Tuple[str, ast.keyword]]:
    names: List[Tuple[str, ast.keyword]] = []
    for keyword in call.keywords:
        if keyword.arg != "positional":
            continue
        if isinstance(keyword.value, (ast.Tuple, ast.List)):
            for element in keyword.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    names.append((element.value, keyword))
    return names
