"""The :class:`Finding` record every rule emits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``snippet`` is the stripped source line, so a report reads on its own
    without the file open next to it.
    """

    rule: str
    path: str  # repo-relative, POSIX separators
    line: int
    col: int
    message: str
    snippet: str = ""
    module: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "module": self.module,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
