"""The zero-width part of ``sweep_busy_link_counts`` without ``numpy.ma``.

A bare ``np.unique`` imports ``numpy.ma`` on its first call in a process
(about 1 MB of resident memory and a thousand GC-tracked objects), so the
sweep dedupes each link's instant bins with a sort and a neighbour mask.
The sweep runs in a fresh interpreter, which must end with ``numpy.ma``
still unimported, and its counts must equal a per-sample oracle that
dedupes with ``np.unique``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

TIMES = np.linspace(0.0, 4.0, 41)

#: Runs the sweep in a fresh interpreter and reports its counts.
_SCRIPT = """
import json, sys
from repro.simulator.result import sweep_busy_link_counts
from tests.simulator.test_zero_width_sweep import TIMES, columns_for

counts = [sweep_busy_link_counts(TIMES, columns_for(seed)).tolist() for seed in range(5)]
print(json.dumps({"numpy_ma": "numpy.ma" in sys.modules, "counts": counts}))
"""


def columns_for(seed: int):
    """Six links, each with disjoint wide intervals and stacked instants.

    Instants land before the first sample (clamped to it), on samples,
    between samples, inside wide intervals and past the last sample.
    """
    rng = np.random.default_rng(seed)
    columns = {}
    for link in range(6):
        edges = np.sort(rng.choice(np.arange(0, 400, 5), size=8, replace=False)) / 100.0
        instants = rng.choice(np.arange(-20, 420, 7), size=10) / 100.0
        instants = np.concatenate([instants, instants[:4]])
        columns[(link, link + 1)] = (
            np.concatenate([edges[0::2], instants]),
            np.concatenate([edges[1::2], instants]),
        )
    return columns


def _oracle(times: np.ndarray, columns) -> np.ndarray:
    """Per sample, the links covered by a wide interval or holding an instant."""
    counts = np.zeros(len(times))
    for starts, ends in columns.values():
        wide = starts != ends
        busy = np.zeros(len(times), dtype=bool)
        for start, end in zip(starts[wide], ends[wide]):
            busy |= (start <= times) & (times < end)
        bins = np.searchsorted(times, starts[~wide], side="right") - 1
        busy[np.unique(np.clip(bins, 0, len(times) - 1))] = True
        counts += busy
    return counts


def test_zero_width_sweep_leaves_numpy_ma_unimported_and_matches_unique_oracle():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["numpy_ma"] is False
    for seed, counts in enumerate(report["counts"]):
        assert counts == _oracle(TIMES, columns_for(seed)).tolist(), seed
        assert max(counts) > 0
