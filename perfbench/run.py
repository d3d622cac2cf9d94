"""Benchmark of the TACOS reproduction, run from the root of a source checkout.

    python3 perfbench/run.py --workload rfs128-ar --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

* ``rfs128-ar`` — TACOS All-Reduce on the 128-NPU 3D-RFS system of Table V;
* ``search-gather`` — guided, incumbent-pruned 32-trial search for Gather on
  a 6x6 mesh;
* ``sweep-store`` — a 96-spec sweep re-run against the artifact store that
  its first run populated.

The benchmark makes its inputs from ``--seed``, repeats the workload's
operation until ``--seconds`` have passed, checks every output, and prints
one JSON object as its last line.  With ``--trace 0`` the metrics are the
end-to-end ones (median operation latency, peak memory, and the median of
three set-ups, each in a fresh interpreter); with ``--trace 1`` they are
per-layer self times and work counts, from spans recorded around the
program's layer entry points (``perfbench/spans.py``).

Two measures keep the figures steady on a shared host:

* The operations run in ``PARTS`` fresh interpreters, one after another,
  each for an equal share of ``--seconds``.  One interpreter's memory
  layout can make every operation in it a few percent faster or slower;
  the mean of the interpreters' medians evens that out.
* Operation times are scaled to a nominal host speed: a fixed calibration
  loop, independent of the program, is timed before and after each
  operation, and the operation's time is multiplied by
  ``CALIBRATION_NOMINAL_S / mean(calibration before, calibration after)``.
  The host's speed drifts by a quarter within a minute; the scaling
  cancels the drift that both the loop and the program see.

It needs the program's sources under ``src/``; without them it exits with
code 2 and prints no result.  Scratch files go to ``.perfbench-work/`` in
the checkout; stores are removed on exit, the last traces are kept there.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

#: Fresh interpreters the operations are spread over.
PARTS = 3
#: Operation indices of part ``k`` start at ``k * PART_STRIDE``, so every
#: part's inputs differ from every other part's.
PART_STRIDE = 10_000
#: Seconds a child interpreter may take beyond its share of the run.
CHILD_TIMEOUT = 60
WORK_DIR = ".perfbench-work"
#: Seconds the calibration loop takes at the nominal speed (about its
#: median on a 2-core x86-64 container host under CPython 3.11).
CALIBRATION_NOMINAL_S = 0.045

#: Per-layer self times (ms per operation): span names recorded around the
#: program's layer entry points, plus ``request`` (the operation's own time
#: outside every layer).
LAYER_SPANS = {
    "store_read_ms": "store_read",
    "topology_ms": "topology",
    "derived_ms": "derived",
    "synthesis_ms": "synthesis",
    "simulate_ms": "simulate",
    "sim_adapt_ms": "sim_adapt",
    "sim_events_ms": "sim_events",
    "store_write_ms": "store_write",
    "other_ms": "request",
}
#: Per-operation work counts and program-reported times, from the checks.
LAYER_COUNTS = {
    "cache_hits": "count",
    "cache_misses": "count",
    "trials": "count",
    "trials_pruned": "count",
    "matching_rounds": "count",
    "transfers": "count",
    "trial_loop_ms": "ms",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="prepare the workload once, then exit"
    )
    parser.add_argument(
        "--part", type=int, help="measure one part in this interpreter and print its records"
    )
    return parser.parse_args(argv)


def calibrate() -> float:
    """Seconds a fixed loop, independent of the program, takes now.

    It has three parts, each close to one kind of work the workloads do:
    dict stores and integer arithmetic (the matching loops), small documents
    round-tripped through ``json`` (spec hashing and store reads), and an
    in-memory ``.npz`` loaded with numpy (algorithm loads).  Each part alone
    tracks its own kind of work; together they track all three.
    """
    import numpy as np

    buffer = io.BytesIO()
    np.savez(buffer, **{name: np.arange(1000) for name in "abcde"})
    payload = buffer.getvalue()
    started = time.perf_counter()
    table = {}
    total = 0
    for value in range(50_000):
        table[value & 1023] = total
        total += value * value
    documents = []
    for value in range(2_000):
        document = {"name": f"x{value}", "params": {"a": [value, value + 1], "b": str(value)}}
        documents.append(json.loads(json.dumps(document, sort_keys=True)))
    for _ in range(20):
        with np.load(io.BytesIO(payload)) as arrays:
            documents.append([arrays[name] for name in arrays.files])
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibrations to the nominal speed."""
    return CALIBRATION_NOMINAL_S / ((before + after) / 2)


def run_child(args: argparse.Namespace, root: Path, seconds: float, *extra: str) -> str:
    """Run this script in a fresh interpreter; return its standard output."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    return subprocess.run(
        command,
        cwd=root,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=seconds + CHILD_TIMEOUT,
    ).stdout


def setup_seconds(args: argparse.Namespace, root: Path) -> float:
    """Wall time of a fresh interpreter that imports the program and sets up.

    Reported unscaled: it is mostly file reads and imports, which the
    calibration loop does not track (scaling made it noisier).
    """
    started = time.perf_counter()
    run_child(args, root, 0.0, "--setup-only")
    return time.perf_counter() - started


def measure(workload, seconds: float, first_index: int, recorder) -> List[dict]:
    """Repeat the operation until ``seconds`` pass, checking each output.

    Returns one record per operation: ``index``, ``seconds`` (wall),
    ``factor`` (to the nominal speed), ``error`` (or None) and ``counts``.
    The calibration that closes one operation opens the next.  The check
    runs after it, outside the timed window, and the output is dropped once
    checked, so memory does not grow with the number of operations.
    """
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    records: List[dict] = []
    deadline = time.perf_counter() + seconds
    gc.collect()
    calibration = calibrate()
    while True:
        index = first_index + len(records)
        if recorder is not None:
            recorder.request = ("op", index)
        request = recorder.span("request") if recorder is not None else nullcontext()
        started = time.perf_counter()
        try:
            with request:
                output = workload.op(index)
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"raised {exc!r}"
        elapsed = time.perf_counter() - started
        before, calibration = calibration, calibrate()
        counts: Dict[str, float] = {}
        if error is None:
            if recorder is not None:
                recorder.request = ("check", index)
            try:
                error, counts = workload.check(index, output, span)
            except Exception as exc:  # a check that cannot run is a failure
                error = f"check raised {exc!r}"
            del output
        if error is not None:
            print(f"{workload.__class__.__name__} operation {index}: {error}", file=sys.stderr)
        records.append(
            {
                "index": index,
                "seconds": elapsed,
                "factor": scale(before, calibration),
                "error": error,
                "counts": counts,
            }
        )
        if time.perf_counter() >= deadline:
            return records
        gc.collect()


def layer_values(by_request: dict, record: dict) -> Dict[str, float]:
    """One operation's scaled per-layer self times and its work counts."""
    spans = by_request.get(("op", record["index"]), {})
    factor = record["factor"]
    values = {metric: spans.get(name, 0.0) * factor for metric, name in LAYER_SPANS.items()}
    # Verification runs in the check, just after the closing calibration.
    values["verify_ms"] = by_request.get(("check", record["index"]), {}).get("verify", 0.0) * factor
    values["traced_latency_ms"] = 1e3 * record["seconds"] * factor
    for name, unit in LAYER_COUNTS.items():
        value = record["counts"].get(name, 0.0)
        values[name] = value * factor if unit == "ms" else value
    return values


def measure_part(args: argparse.Namespace, root: Path, workloads) -> dict:
    """Set up, measure and check in this interpreter; return its records."""
    from spans import Recorder, instrument

    workdir = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    recorder = Recorder() if args.trace else None
    try:
        workload = workloads[args.workload](args.seed, workdir)
        workload.prepare()
        with instrument(recorder) if recorder is not None else nullcontext():
            records = measure(workload, args.seconds, args.part * PART_STRIDE, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if recorder is not None:
        by_request = recorder.self_ms()
        for record in records:
            record["layers"] = layer_values(by_request, record)
        recorder.write_chrome_trace(
            root / WORK_DIR / f"trace-{args.workload}-seed{args.seed}-part{args.part}.json"
        )
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }


def median_of(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def across_parts(parts: List[dict], value) -> float:
    """Mean over the parts of each part's median ``value(record)``.

    Each interpreter carries its own small offset; averaging the parts'
    medians evens the offsets out better than one median over all records,
    which follows the middle part.
    """
    return statistics.fmean(median_of([value(record) for record in part["records"]]) for part in parts)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no program sources under {source}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workdir = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
        try:
            WORKLOADS[args.workload](args.seed, workdir).prepare()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.part is not None:
        print(json.dumps(measure_part(args, root, WORKLOADS)))
        return 0

    setups: List[float] = []
    parts = []
    for part in range(PARTS):
        if not args.trace:
            setups.append(setup_seconds(args, root))
        output = run_child(args, root, args.seconds / PARTS, "--part", str(part))
        parts.append(json.loads(output.splitlines()[-1]))
    records = [record for part in parts for record in part["records"]]
    failed = sum(1 for record in records if record["error"] is not None)
    if args.trace:
        units = dict.fromkeys(records[0]["layers"], "ms")
        units.update(LAYER_COUNTS)
        metrics = {
            name: {
                "value": across_parts(parts, lambda record: record["layers"][name]),
                "unit": unit,
            }
            for name, unit in units.items()
        }
    else:
        metrics = {
            "latency_ms": {
                "value": across_parts(parts, lambda record: 1e3 * record["seconds"] * record["factor"]),
                "unit": "ms",
            },
            "peak_rss_mb": {"value": max(part["peak_rss_mb"] for part in parts), "unit": "MB"},
            "setup_s": {"value": median_of(setups), "unit": "s"},
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
