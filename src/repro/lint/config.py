"""What one lint run scans: the checkout root, the scan paths, and which
modules carry the determinism contract.

There is no configuration file.  Every rule keeps its own constants next
to the code that reads them; the one list shared across the package is
:data:`DETERMINISTIC_MODULES`, the modules in which D103 (wall-clock reads)
and D104 (float association) fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Tuple

import repro

__all__ = ["CHECKOUT_ROOT", "DETERMINISTIC_MODULES", "LintConfig"]

#: The checkout holding the imported ``repro`` package (``src/repro`` ->
#: ``src`` -> the checkout), so a report is the same from any directory.
CHECKOUT_ROOT = Path(repro.__file__).resolve().parents[2]

#: Module-name patterns carrying the determinism contract: the whole
#: synthesis (both search tiers), simulation and export stack, and the
#: frozen reference engine the bench compares against.
DETERMINISTIC_MODULES: Tuple[str, ...] = (
    "repro.core.*",
    "repro.collectives.*",
    "repro.baselines.*",
    "repro.topology.*",
    "repro.ten.*",
    "repro.simulator.*",
    "repro.export.*",
    "repro.analysis.*",
    "repro.workloads.*",
    "repro.bench.reference",
)


@dataclass
class LintConfig:
    """Where to scan and which module-name patterns are deterministic."""

    root: Path = CHECKOUT_ROOT
    paths: Tuple[str, ...] = ("src/repro",)
    deterministic: Tuple[str, ...] = DETERMINISTIC_MODULES

    def is_deterministic(self, module_name: str) -> bool:
        return any(fnmatchcase(module_name, pattern) for pattern in self.deterministic)
