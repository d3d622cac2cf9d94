"""Paper-reproduction experiments: one module per table or figure.

Each module's docstring names the table or figure it reproduces and its
parameters; see EXPERIMENTS.md for measured results.
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
    format_table,
    ideal_all_reduce_measurement,
    measure_baseline_all_reduce,
    measure_tacos_all_reduce,
    measure_taccl_like_all_reduce,
)

__all__ = [
    "Measurement",
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
    "ideal_all_reduce_measurement",
    "measure_baseline_all_reduce",
    "measure_tacos_all_reduce",
    "measure_taccl_like_all_reduce",
    "table05_multinode",
]
