"""Paper-reproduction experiments: one module per table or figure.

Each module's docstring names the table or figure it reproduces and its
parameters.  Each module describes its data points as
:class:`~repro.api.specs.RunSpec` documents (see :mod:`repro.experiments.common`);
``tacos-repro experiments`` runs them all, and the paper's claims are
asserted at full scale by ``benchmarks/test_bench_*.py``.
"""

from repro.experiments import (
    fig01_heatmap,
    fig02_motivation,
    fig10_topologies,
    fig14_mesh_synthesis,
    fig15_heterogeneous,
    fig16_themis,
    fig17_multitree_ccube,
    fig18_asymmetric_utilization,
    fig19_scalability,
    fig20_end_to_end,
    fig21_breakdown,
    table05_multinode,
)
from repro.experiments.common import (
    Measurement,
    experiment_spec,
    format_table,
    measure,
    resolve_spec,
)

__all__ = [
    "Measurement",
    "experiment_spec",
    "fig01_heatmap",
    "fig02_motivation",
    "fig10_topologies",
    "fig14_mesh_synthesis",
    "fig15_heterogeneous",
    "fig16_themis",
    "fig17_multitree_ccube",
    "fig18_asymmetric_utilization",
    "fig19_scalability",
    "fig20_end_to_end",
    "fig21_breakdown",
    "format_table",
    "measure",
    "resolve_spec",
    "table05_multinode",
]
