"""Heterogeneous cluster scenario: All-Reduce on a 3D Ring-FC-Switch system.

This is the workload the paper's Fig. 15 / Table V evaluate: a multi-node
AI cluster whose three network dimensions have very different bandwidths
(200 / 100 / 50 GB/s).  We compare the All-Reduce bandwidth of the Ring and
Direct basic algorithms (simulated with congestion), the TACOS-synthesized
algorithm, and the theoretical ideal bound.

Run with:  python examples/heterogeneous_cluster.py
"""

from __future__ import annotations

from repro import AllReduce, TacosSynthesizer, build_3d_rfs
from repro.analysis import collective_bandwidth_gbps, ideal_all_reduce_bandwidth
from repro.api import ALGORITHMS
from repro.simulator import simulate_algorithm, simulate_schedule

GB = 1e9


def main() -> None:
    topology = build_3d_rfs(2, 4, 8, bandwidths_gbps=(200.0, 100.0, 50.0))
    collective_size = 1 * GB
    print(f"Topology: {topology.name} with {topology.num_npus} NPUs, {topology.num_links} links")
    print(f"Collective: {collective_size / GB:.0f} GB All-Reduce\n")

    rows = []
    for baseline in ("Ring", "Direct"):
        builder = ALGORITHMS.get(baseline)
        artifact = builder(topology, AllReduce(topology.num_npus), collective_size)
        result = simulate_schedule(topology, artifact.schedule)
        rows.append((baseline, collective_bandwidth_gbps(result), result.average_link_utilization()))

    synthesizer = TacosSynthesizer()
    algorithm = synthesizer.synthesize(
        topology, AllReduce(topology.num_npus, chunks_per_npu=2), collective_size
    )
    tacos_result = simulate_algorithm(topology, algorithm)
    rows.append(("TACOS", collective_bandwidth_gbps(tacos_result), tacos_result.average_link_utilization()))

    ideal = ideal_all_reduce_bandwidth(topology, collective_size) / GB
    print(f"{'algorithm':<10} {'AR bandwidth':>14} {'vs ideal':>10} {'link util':>10}")
    for name, bandwidth, utilization in rows:
        print(f"{name:<10} {bandwidth:>11.1f} GB/s {bandwidth / ideal:>9.1%} {utilization:>9.1%}")
    print(f"{'Ideal':<10} {ideal:>11.1f} GB/s {1.0:>9.1%}")

    ring_bandwidth = rows[0][1]
    print(f"\nTACOS speedup over the default Ring algorithm: {rows[-1][1] / ring_bandwidth:.2f}x")


if __name__ == "__main__":
    main()
