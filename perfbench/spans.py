"""In-memory spans for the traced (``--trace 1``) benchmark run.

The program has no tracing of its own yet, so the spans are recorded here,
around the calls into each layer: :func:`instrument` wraps the layer entry
points named in :data:`LAYER_ENTRY_POINTS` for the duration of a traced run
and restores them afterwards.  An untraced run never installs the wrappers.

Every span carries its parent and the request (one benchmark operation) it
belongs to; a layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional

#: ``(module, attribute path, layer)``: the program's layer entry points.  An
#: entry point missing from the program is skipped, and its layer reads 0.
LAYER_ENTRY_POINTS = (
    ("repro.api.runner", "build_topology", "topology"),
    ("repro.api.runner", "build_collective", "topology"),
    ("repro.api.runner", "build_algorithm_artifact", "synthesis"),
    ("repro.topology.topology", "Topology.hop_distances", "derived"),
    ("repro.topology.topology", "Topology.cheaper_reachability_regions", "derived"),
    ("repro.topology.topology", "Topology.link_arrays", "derived"),
    ("repro.topology.topology", "Topology.reversed", "derived"),
    ("repro.api.runner", "simulate_algorithm", "simulate"),
    ("repro.api.runner", "simulate_schedule", "simulate"),
    ("repro.simulator.adapters", "algorithm_to_flat_workload", "sim_adapt"),
    ("repro.simulator.adapters", "schedule_to_flat_workload", "sim_adapt"),
    ("repro.simulator.engine", "CongestionAwareSimulator.run_flat", "sim_events"),
    ("repro.api.cache", "ResultCache.get", "store_read"),
    ("repro.api.cache", "ResultCache.load_algorithm", "store_read"),
    ("repro.api.cache", "ResultCache.put", "store_write"),
    ("repro.api.cache", "ResultCache.put_algorithm", "store_write"),
)


class Recorder:
    """Spans kept in memory: ``[name, start_ns, end_ns, parent, request]``.

    ``request`` is whatever key the caller set last: every span opened until
    it is set again belongs to that request.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request: Optional[Hashable] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.request])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def self_ms(self) -> Dict[Hashable, Dict[str, float]]:
        """Per request, each layer's self time in milliseconds."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[Hashable, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, request) in enumerate(self.spans):
            if request is not None:
                totals[request][name] += (end - start - covered[index]) / 1e6
        return totals

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"request": request, "parent": parent},
            }
            for name, start, end, parent, request in self.spans
        ]
        path.write_text(json.dumps({"traceEvents": events}))


def _wrap(recorder: Recorder, layer: str, original):
    def traced(*args, **kwargs):
        with recorder.span(layer):
            return original(*args, **kwargs)

    return traced


@contextmanager
def instrument(recorder: Recorder) -> Iterator[None]:
    """Wrap every layer entry point in a span while the context is open."""
    restore = []
    try:
        for module_name, path, layer in LAYER_ENTRY_POINTS:
            *parents, attribute = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for name in parents:
                    owner = getattr(owner, name)
            except (ImportError, AttributeError):
                continue
            # A class attribute is looked up in the class itself, so a method
            # inherited from a base class is not replaced on the base.
            if isinstance(owner, type):
                original = vars(owner).get(attribute)
            else:
                original = getattr(owner, attribute, None)
            if not callable(original):
                continue
            setattr(owner, attribute, _wrap(recorder, layer, original))
            restore.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
