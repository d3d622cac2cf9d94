"""Shared per-module analysis context and the project-wide symbol index.

Every rule family operates on a :class:`ModuleContext`: the parsed AST plus
import resolution (local alias -> dotted qualified name, including relative
imports), the module-level symbol table, whether the module is
deterministic, and source access for snippet extraction.  Cross-module
checks (the R family resolving a registered builder through package
re-exports) go through :class:`ProjectIndex`, which is built once over all
analyzed modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.dataflow import SetTaint
from repro.lint.findings import Finding

__all__ = [
    "FunctionInfo",
    "ModuleContext",
    "ProjectIndex",
    "function_info",
    "module_name_for",
]


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for ``path``, e.g. ``repro.core.matching``.

    The name is derived from the path relative to ``root``; a leading
    ``src/`` layout component is dropped, and ``__init__.py`` maps to its
    package name.
    """
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        relative = Path(path.name)
    parts = list(relative.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ModuleContext:
    """One module's AST plus everything rules need to reason about it."""

    def __init__(
        self,
        path: Path,
        relative_path: str,
        source: str,
        tree: ast.Module,
        module_name: str,
        config: LintConfig,
    ) -> None:
        self.path = path
        self.relative_path = relative_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.module_name = module_name
        self.deterministic = config.is_deterministic(module_name)
        self.is_package = path.name == "__init__.py"
        #: local alias -> dotted qualified name ("np" -> "numpy",
        #: "map_parallel" -> "repro.api.parallel.map_parallel").
        self.imports: Dict[str, str] = {}
        #: module-level def/class name -> its AST node.
        self.module_defs: Dict[str, ast.AST] = {}
        self._index_top_level()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @property
    def package(self) -> str:
        if self.is_package:
            return self.module_name
        return self.module_name.rpartition(".")[0]

    def _resolve_relative(self, module: Optional[str], level: int) -> str:
        if level == 0:
            return module or ""
        parts = self.package.split(".") if self.package else []
        if level > 1:
            parts = parts[: len(parts) - (level - 1)]
        if module:
            parts.append(module)
        return ".".join(parts)

    def _index_top_level(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_relative(node.module, node.level)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_defs.setdefault(target.id, node)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.module_defs.setdefault(node.target.id, node)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Dotted qualified name of an expression, or ``None``.

        ``Name`` resolves through the import table, then module-level defs;
        ``Attribute`` chains resolve through their base.  ``np.random.seed``
        -> ``numpy.random.seed``; a module-level ``def foo`` -> ``<module>.foo``.
        """
        if isinstance(node, ast.Name):
            if node.id in self.imports:
                return self.imports[node.id]
            if node.id in self.module_defs:
                return f"{self.module_name}.{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            base = self.qualified_name(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=rule,
            path=self.relative_path,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
            module=self.module_name,
        )


@dataclass(frozen=True)
class FunctionInfo:
    """Signature facts about a resolvable callable (def or lambda)."""

    qualified_name: str
    positional: Tuple[str, ...]  # positional-only + positional-or-keyword names
    keyword_only: Tuple[str, ...]
    has_vararg: bool
    has_varkw: bool

    def accepts_positional(self, count: int) -> bool:
        return self.has_vararg or len(self.positional) >= count

    def accepts_parameter(self, name: str) -> bool:
        return self.has_varkw or name in self.positional or name in self.keyword_only


def function_info(qualified_name: str, args: ast.arguments) -> FunctionInfo:
    return FunctionInfo(
        qualified_name=qualified_name,
        positional=tuple(arg.arg for arg in (*args.posonlyargs, *args.args)),
        keyword_only=tuple(arg.arg for arg in args.kwonlyargs),
        has_vararg=args.vararg is not None,
        has_varkw=args.kwarg is not None,
    )


class ProjectIndex:
    """Cross-module symbol table over every analyzed module.

    Resolution follows import re-export chains (``repro.topology.builders``
    re-exporting ``build_ring`` from ``.ring``) up to a small depth bound, so
    registry-contract rules can check builders registered in one module but
    defined in another.
    """

    _MAX_HOPS = 8

    def __init__(self, contexts: Dict[str, ModuleContext]) -> None:
        self._functions: Dict[str, FunctionInfo] = {}
        self._aliases: Dict[str, str] = {}
        self._set_returning: Dict[str, str] = {}
        for context in contexts.values():
            taint = SetTaint(context.qualified_name)
            for name, node in context.module_defs.items():
                qualified = f"{context.module_name}.{name}"
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._functions[qualified] = function_info(qualified, node.args)
                    if taint.returns_set(node.body):
                        self._set_returning[qualified] = (
                            f"a set returned by {name}()"
                        )
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                    self._functions[qualified] = function_info(qualified, node.value.args)
            for local, target in context.imports.items():
                self._aliases[f"{context.module_name}.{local}"] = target

    def _resolve_chain(self, qualified_name: Optional[str]) -> Optional[str]:
        """Follow alias chains to a name present in any fact table."""
        seen = set()
        current = qualified_name
        for _ in range(self._MAX_HOPS):
            if current is None or current in seen:
                return None
            seen.add(current)
            if current in self._functions or current in self._set_returning:
                return current
            if current in self._aliases:
                current = self._aliases[current]
                continue
            return None
        return None

    def resolve_function(self, qualified_name: Optional[str]) -> Optional[FunctionInfo]:
        """Follow alias chains from ``qualified_name`` to a known function."""
        resolved = self._resolve_chain(qualified_name)
        if resolved is None:
            return None
        return self._functions.get(resolved)

    def set_origin(self, qualified_name: Optional[str]) -> Optional[str]:
        """One-level call summary: origin description for set-returning defs."""
        resolved = self._resolve_chain(qualified_name)
        if resolved is None:
            return None
        return self._set_returning.get(resolved)
