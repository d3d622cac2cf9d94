"""Fig. 10 — All-Gather synthesis on 4-NPU topologies of decreasing connectivity.

The four targets (FullyConnected with 12 links, bidirectional Ring with 8,
the asymmetric 6-link topology of Fig. 9, and the unidirectional Ring with 4)
show how TACOS expands the TEN further as connectivity becomes scarcer while
still maximizing link utilization in every time span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import SynthesisConfig
from repro.core.verification import verify_algorithm
from repro.experiments.common import experiment_spec, resolve_spec
from repro.topology.builders.fully_connected import build_fully_connected
from repro.topology.builders.ring import build_ring
from repro.topology.defaults import DEFAULT_ALPHA, DEFAULT_BANDWIDTH_GBPS
from repro.topology.topology import Topology

__all__ = ["Fig10Row", "build_asymmetric_4npu", "run"]


def build_asymmetric_4npu(
    *,
    alpha: float = DEFAULT_ALPHA,
    bandwidth_gbps: float = DEFAULT_BANDWIDTH_GBPS,
) -> Topology:
    """The 6-link asymmetric 4-NPU topology of Fig. 9(a) / Fig. 10(c).

    Links: 1<->2, 1->3, 3->1, 2->4, 4->2 (paper numbering), i.e. a partially
    connected graph where NPUs have different in/out degrees.
    """
    topology = Topology(4, name="Asymmetric4")
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1)]
    for source, dest in pairs:
        topology.add_link(source, dest, alpha=alpha, bandwidth_gbps=bandwidth_gbps)
    return topology


@dataclass
class Fig10Row:
    """Synthesis outcome for one of the 4-NPU target topologies."""

    topology: str
    num_links: int
    num_time_spans: int
    num_transfers: int
    collective_time: float
    verified: bool


def default_topologies() -> List[Topology]:
    """The four 4-NPU targets of Fig. 10, in decreasing connectivity order."""
    return [
        build_fully_connected(4),
        build_ring(4, bidirectional=True),
        build_asymmetric_4npu(),
        build_ring(4, bidirectional=False),
    ]


def run(
    *,
    collective_size: float = 4e6,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> List[Fig10Row]:
    """Reproduce Fig. 10: All-Gather synthesis across the four 4-NPU targets."""
    rows: List[Fig10Row] = []
    for target in default_topologies():
        topology, pattern, artifact, _ = resolve_spec(
            experiment_spec(
                "tacos",
                target,
                collective_size,
                collective="all_gather",
                config=synthesis_config,
                simulate=False,
            )
        )
        algorithm = artifact.algorithm
        span = topology.link(*next(iter(topology.link_keys()))).cost(
            pattern.chunk_size(collective_size)
        )
        num_spans = max(1, round(algorithm.collective_time / span))
        rows.append(
            Fig10Row(
                topology=topology.name,
                num_links=topology.num_links,
                num_time_spans=num_spans,
                num_transfers=algorithm.num_transfers,
                collective_time=algorithm.collective_time,
                verified=verify_algorithm(algorithm, topology, pattern),
            )
        )
    return rows


def main() -> None:  # pragma: no cover - convenience CLI
    for row in run():
        print(
            f"{row.topology:<20} links={row.num_links:<3} spans={row.num_time_spans:<3} "
            f"transfers={row.num_transfers:<3} time={row.collective_time * 1e6:.2f}us verified={row.verified}"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
