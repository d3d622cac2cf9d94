"""Linter configuration: ``[tool.repro-lint]`` in ``pyproject.toml``.

The config controls *what is scanned* (``paths``), *which modules carry
which tags* (``[tool.repro-lint.tags]`` — rules like the hot-path family
only fire in tagged modules), *globally disabled rules* (``disable``), and
*where the baseline lives* (``baseline``).

Parsing uses :mod:`tomllib` when available (Python 3.11+).  On older
interpreters — the CI matrix floor is 3.9 and the project must not grow a
dependency for its own linter — a minimal fallback parser handles the flat
subset this tool actually uses: ``[section]`` headers and ``key = value``
pairs whose values are strings, booleans, integers, or (possibly multi-line)
arrays of strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError

__all__ = ["LintConfig", "LintConfigError", "load_config", "find_pyproject"]


class LintConfigError(ReproError):
    """Raised for unreadable or malformed linter configuration."""


#: Default module tags; a ``[tool.repro-lint.tags]`` table replaces a tag's
#: pattern list wholesale when it names that tag.
DEFAULT_TAGS: Dict[str, Tuple[str, ...]] = {
    "deterministic": (
        "repro.core.*",
        "repro.collectives.*",
        "repro.baselines.*",
        "repro.topology.*",
        "repro.ten.*",
        "repro.simulator.*",
        "repro.export.*",
        "repro.analysis.*",
        "repro.workloads.*",
    ),
    "hot": (
        "repro.core.matching",
        "repro.simulator.engine",
        "repro.core.transfers",
        "repro.core.verification",
        "repro.simulator.adapters",
    ),
}

#: Qualified names whose first positional argument is a mapped callable that
#: may cross a process boundary (the P family's seam set).
DEFAULT_FANOUT_FUNCTIONS: Tuple[str, ...] = (
    "repro.api.parallel.map_parallel",
)

#: ``receiver.method`` attribute-call patterns treated as fan-out seams when
#: the receiver is not statically resolvable (``backend.map(fn, ...)``).
DEFAULT_FANOUT_METHODS: Tuple[str, ...] = ("map",)
DEFAULT_FANOUT_RECEIVERS: Tuple[str, ...] = ("backend",)

#: Class-name suffixes identifying worker payload classes for rule P202.
DEFAULT_PAYLOAD_SUFFIXES: Tuple[str, ...] = ("Payload",)

#: Pool/executor constructor qualified names rule P203 watches for.
DEFAULT_EXECUTOR_FACTORIES: Tuple[str, ...] = (
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.pool.ThreadPool",
    "multiprocessing.dummy.Pool",
)

#: Modules exempt from P203: the execution-backend seam itself *owns* pool
#: construction and lifecycle; everyone else should route fan-outs through
#: it instead of spinning up ad-hoc executors per call.
DEFAULT_EXECUTOR_MODULES: Tuple[str, ...] = ("repro.api.parallel",)

#: Operand names treated as cost-model terms by the float-association rule.
DEFAULT_COST_TERMS: Tuple[str, ...] = (
    "alpha",
    "beta",
    "cost",
    "dist",
    "distance",
    "latency",
    "delay",
)

#: Row-field names whose per-element access inside a hot-module loop marks a
#: scalar (non-columnar) traversal.
DEFAULT_ROW_FIELDS: Tuple[str, ...] = ("start", "end", "chunk", "source", "dest")

#: Attribute names that yield transfer-row sequences when iterated.
DEFAULT_ROW_SOURCES: Tuple[str, ...] = ("transfers", "chunk_transfers", "to_transfers")

#: Registry builder contracts for the R family, keyed by the registry
#: object's qualified name.  ``min_positional`` is the number of leading
#: positional parameters the registered callable must accept;
#: ``check_positional_metadata`` verifies ``positional=(...)`` names exist
#: as parameters of the registered builder.
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


@dataclass
class LintConfig:
    """Resolved linter configuration (defaults merged with pyproject)."""

    root: Path = field(default_factory=Path.cwd)
    paths: Tuple[str, ...] = ("src/repro",)
    baseline: str = "lint-baseline.json"
    disable: Tuple[str, ...] = ()
    tags: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {tag: tuple(patterns) for tag, patterns in DEFAULT_TAGS.items()}
    )
    fanout_functions: Tuple[str, ...] = DEFAULT_FANOUT_FUNCTIONS
    fanout_methods: Tuple[str, ...] = DEFAULT_FANOUT_METHODS
    fanout_receivers: Tuple[str, ...] = DEFAULT_FANOUT_RECEIVERS
    payload_suffixes: Tuple[str, ...] = DEFAULT_PAYLOAD_SUFFIXES
    executor_factories: Tuple[str, ...] = DEFAULT_EXECUTOR_FACTORIES
    executor_modules: Tuple[str, ...] = DEFAULT_EXECUTOR_MODULES
    cost_terms: Tuple[str, ...] = DEFAULT_COST_TERMS
    row_fields: Tuple[str, ...] = DEFAULT_ROW_FIELDS
    row_sources: Tuple[str, ...] = DEFAULT_ROW_SOURCES
    cache: str = ".lint-cache.json"

    def module_tags(self, module_name: str) -> frozenset:
        """Tags whose configured patterns match ``module_name``."""
        matched = [
            tag
            for tag, patterns in self.tags.items()
            if any(fnmatchcase(module_name, pattern) for pattern in patterns)
        ]
        return frozenset(matched)

    def baseline_path(self) -> Path:
        path = Path(self.baseline)
        return path if path.is_absolute() else self.root / path

    def cache_path(self) -> Path:
        path = Path(self.cache)
        return path if path.is_absolute() else self.root / path


# ----------------------------------------------------------------------
# TOML loading
# ----------------------------------------------------------------------
def _parse_toml(text: str) -> Dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11 fallback
        return _parse_minitoml(text)
    return tomllib.loads(text)


def _parse_minitoml(text: str) -> Dict[str, Any]:
    """Parse the flat TOML subset ``[tool.repro-lint]`` actually uses.

    Sections, plus ``key = value`` with string / bool / int / float /
    string-array values; arrays may span lines.  Only the
    ``[tool.repro-lint*]`` tables are parsed strictly — a malformed line
    there raises so the config is never silently half-read; every other
    table in the host ``pyproject.toml`` may use TOML constructs this
    fallback does not understand and is skipped wholesale.
    """
    document: Dict[str, Any] = {}
    table = document
    relevant = False
    pending_key: Optional[str] = None
    pending_items: List[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if pending_key is not None:
            closed = line.endswith("]")
            body = line[:-1] if closed else line
            pending_items.extend(_parse_array_items(body))
            if closed:
                table[pending_key] = list(pending_items)
                pending_key, pending_items = None, []
            continue
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and not line.startswith("[["):
            if not line.endswith("]"):
                raise LintConfigError(f"unsupported TOML construct: {line!r}")
            parts = [part.strip().strip('"') for part in line[1:-1].strip().split(".")]
            relevant = parts[:2] == ["tool", "repro-lint"]
            if not relevant:
                table = {}  # throwaway sink for foreign sections
                continue
            table = document
            for part in parts:
                table = table.setdefault(part, {})
            continue
        if not relevant:
            continue
        key, separator, value = line.partition("=")
        if not separator:
            raise LintConfigError(f"malformed TOML line: {line!r}")
        key = key.strip().strip('"')
        value = value.split("#", 1)[0].strip() if not value.strip().startswith('"') else value.strip()
        if value.startswith("[") and not value.endswith("]"):
            pending_key = key
            pending_items = _parse_array_items(value[1:])
            continue
        table[key] = _parse_scalar_or_array(value, line)
    if pending_key is not None:
        raise LintConfigError(f"unterminated array for key {pending_key!r}")
    return document


def _parse_array_items(body: str) -> List[str]:
    items: List[str] = []
    for token in body.split(","):
        token = token.split("#", 1)[0].strip() if not token.strip().startswith('"') else token.strip()
        if not token:
            continue
        if not (token.startswith('"') and token.endswith('"')):
            raise LintConfigError(f"only string array items are supported, got {token!r}")
        items.append(token[1:-1])
    return items


def _parse_scalar_or_array(value: str, line: str) -> Any:
    if value.startswith("[") and value.endswith("]"):
        return _parse_array_items(value[1:-1])
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    for caster in (int, float):
        try:
            return caster(value)
        except ValueError:
            continue
    raise LintConfigError(f"unsupported TOML value in line {line!r}")


def find_pyproject(start: Optional[Path] = None) -> Optional[Path]:
    """Walk up from ``start`` (default: cwd) to the nearest ``pyproject.toml``."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _string_tuple(value: Any, key: str) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(isinstance(item, str) for item in value):
        return tuple(value)
    raise LintConfigError(f"[tool.repro-lint] {key} must be a string or list of strings")


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Load the effective config from ``pyproject.toml`` (or pure defaults).

    ``pyproject=None`` discovers the nearest ``pyproject.toml`` upward from
    the working directory; a missing file or a pyproject without a
    ``[tool.repro-lint]`` table yields the defaults rooted at that directory.
    """
    if pyproject is None:
        pyproject = find_pyproject()
        if pyproject is None:
            return LintConfig(root=Path.cwd())
    pyproject = Path(pyproject)
    try:
        document = _parse_toml(pyproject.read_text())
    except OSError as exc:
        raise LintConfigError(f"cannot read {pyproject}: {exc}") from exc
    except LintConfigError:
        raise
    except Exception as exc:  # tomllib.TOMLDecodeError, ValueError, ...
        raise LintConfigError(f"cannot parse {pyproject}: {exc}") from exc

    section = document.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, Mapping):
        raise LintConfigError("[tool.repro-lint] must be a table")
    config = LintConfig(root=pyproject.parent)
    known = {
        "paths",
        "baseline",
        "disable",
        "tags",
        "fanout-functions",
        "fanout-methods",
        "fanout-receivers",
        "payload-suffixes",
        "executor-factories",
        "executor-modules",
        "cost-terms",
        "row-fields",
        "row-sources",
        "cache",
    }
    unknown = sorted(set(section) - known)
    if unknown:
        raise LintConfigError(f"unknown [tool.repro-lint] keys: {', '.join(unknown)}")
    if "paths" in section:
        config.paths = _string_tuple(section["paths"], "paths")
    if "baseline" in section:
        if not isinstance(section["baseline"], str):
            raise LintConfigError("[tool.repro-lint] baseline must be a string path")
        config.baseline = section["baseline"]
    if "disable" in section:
        config.disable = _string_tuple(section["disable"], "disable")
    if "tags" in section:
        tags = section["tags"]
        if not isinstance(tags, Mapping):
            raise LintConfigError("[tool.repro-lint.tags] must be a table of pattern lists")
        merged = {name: tuple(patterns) for name, patterns in config.tags.items()}
        for tag, patterns in tags.items():
            merged[str(tag)] = _string_tuple(patterns, f"tags.{tag}")
        config.tags = merged
    simple = {
        "fanout-functions": "fanout_functions",
        "fanout-methods": "fanout_methods",
        "fanout-receivers": "fanout_receivers",
        "payload-suffixes": "payload_suffixes",
        "executor-factories": "executor_factories",
        "executor-modules": "executor_modules",
        "cost-terms": "cost_terms",
        "row-fields": "row_fields",
        "row-sources": "row_sources",
    }
    for key, attribute in simple.items():
        if key in section:
            setattr(config, attribute, _string_tuple(section[key], key))
    if "cache" in section:
        if not isinstance(section["cache"], str):
            raise LintConfigError("[tool.repro-lint] cache must be a string path")
        config.cache = section["cache"]
    return config
