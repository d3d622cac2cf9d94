"""End-to-end training scenario: how the collective algorithm changes training time.

ResNet-50 and GNMT are trained data-parallel on a 3D Ring-FC-Switch cluster;
the exposed gradient All-Reduce at the end of each iteration is executed with
the Ring baseline, the TACOS-synthesized algorithm, or the theoretical ideal.
This reproduces the structure of the paper's Fig. 20 at laptop scale.

Run with:  python examples/training_time.py
"""

from __future__ import annotations

from repro import build_3d_rfs
from repro.experiments.fig20_end_to_end import training_breakdowns
from repro.workloads import ParallelismStrategy, get_model


def main() -> None:
    dims = (2, 4, 4)
    topology = build_3d_rfs(*dims)
    strategy = ParallelismStrategy("data", topology.num_npus)
    algorithms = ("Ring", "TACOS", "Ideal")

    models = [get_model(name) for name in ("ResNet-50", "GNMT", "Turing-NLG")]
    cells = [
        (model, strategy, algorithm, topology, dims) for model in models for algorithm in algorithms
    ]
    computed = iter(training_breakdowns(cells, chunks_per_npu=2))

    print(f"Data-parallel training on {topology.name} ({topology.num_npus} NPUs)\n")
    for model in models:
        breakdowns = {algorithm: next(computed) for algorithm in algorithms}
        reference = breakdowns["TACOS"].total
        print(f"{model.name} (gradients: {model.gradient_bytes / 1e6:.0f} MB per iteration)")
        for algorithm in algorithms:
            breakdown = breakdowns[algorithm]
            print(
                f"  {algorithm:<6} iteration {breakdown.total * 1e3:8.2f} ms "
                f"({breakdown.total / reference:5.2f}x TACOS), "
                f"exposed comm {breakdown.communication_fraction:5.1%}"
            )
        print()


if __name__ == "__main__":
    main()
