"""Smoke and shape tests for the paper-reproduction experiment modules.

Each experiment is run with deliberately small parameters; the assertions
check the *shape* of the paper's findings (who wins, what saturates, what
scales how), not absolute numbers.
"""

import pytest

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
from repro.api import run
from repro.core import SynthesisConfig
from repro.experiments.common import (
    Measurement,
    experiment_spec,
    format_table,
    measure,
    resolve_spec,
)
from repro.topology import build_ring


class TestCommonHelpers:
    def test_measurement_efficiency(self):
        measurement = Measurement(
            algorithm="X", topology="T", collective_size=1e9,
            collective_time=1e-2, bandwidth_gbps=100.0,
        )
        assert measurement.efficiency_vs(200.0) == pytest.approx(0.5)

    def test_measure_baseline_and_ideal(self):
        topology = build_ring(8)
        baseline, ideal = measure(
            [
                experiment_spec("Ring", topology, 64e6, label="Ring"),
                experiment_spec("ideal", topology, 64e6, label="Ideal"),
            ]
        )
        assert (baseline.algorithm, ideal.algorithm) == ("Ring", "Ideal")
        assert baseline.bandwidth_gbps <= ideal.bandwidth_gbps * 1.01
        assert baseline.extras["avg_link_utilization"] > 0.5

    def test_measure_tacos_reports_synthesis_time(self):
        (row,) = measure([experiment_spec("tacos", build_ring(4), 4e6, label="TACOS")])
        assert row.synthesis_seconds is not None and row.synthesis_seconds > 0

    def test_format_table_contains_rows(self):
        rows = measure([experiment_spec("Ring", build_ring(4), 4e6, label="Ring")])
        text = format_table(rows, title="demo")
        assert "demo" in text and "Ring" in text

    def test_default_config_leaves_the_store_key_alone(self):
        topology = build_ring(4)
        implicit = experiment_spec("tacos", topology, 4e6, config=None)
        explicit = experiment_spec("tacos", topology, 4e6, config=SynthesisConfig())
        assert explicit.spec_hash() == implicit.spec_hash()
        assert explicit.algorithm.params == {}

    def test_config_sends_only_the_fields_that_differ(self):
        spec = experiment_spec("tacos", build_ring(4), 4e6, config=SynthesisConfig(trials=8))
        assert spec.algorithm.params == {"trials": 8}

    @pytest.mark.parametrize("algorithm", ["Ring", "tacos", "ideal"])
    def test_resolve_spec_times_like_run(self, algorithm):
        spec = experiment_spec(algorithm, build_ring(4), 4e6, chunks_per_npu=2)
        resolved = resolve_spec(spec)
        assert resolved.topology.num_npus == resolved.pattern.num_npus == 4
        if resolved.simulation is None:
            assert resolved.artifact.collective_time == run(spec).collective_time
        else:
            assert resolved.simulation.completion_time == run(spec).collective_time


class TestFig01:
    def test_topology_aware_algorithms_are_balanced(self):
        cells = fig01_heatmap.run(num_npus=16, collective_size=64e6)
        by_key = {(cell.topology, cell.algorithm): cell for cell in cells}
        # Ring algorithm on the Ring topology is perfectly balanced ...
        ring_on_ring = by_key[("Ring(16)", "Ring")]
        assert ring_on_ring.statistics["imbalance"] == pytest.approx(1.0, abs=0.05)
        # ... but unbalanced on the fully-connected topology (under-subscription).
        ring_on_fc = by_key[("FullyConnected(16)", "Ring")]
        assert ring_on_fc.statistics["idle_fraction"] > 0.5
        # TACOS balances every topology it synthesizes for.
        tacos_on_mesh = by_key[("Mesh(4x4)", "TACOS")]
        assert tacos_on_mesh.statistics["idle_fraction"] == pytest.approx(0.0, abs=0.01)

    def test_matrix_shape_matches_topology(self):
        cells = fig01_heatmap.run(num_npus=16, collective_size=64e6)
        for cell in cells:
            assert cell.matrix.shape == (16, 16)

    def test_rejects_non_square_npu_count(self):
        with pytest.raises(ValueError):
            fig01_heatmap.default_topologies(num_npus=15)


class TestFig02:
    def test_topology_aware_algorithm_wins_on_its_topology(self):
        results = fig02_motivation.run_topology_sweep(num_npus=16, collective_size=256e6)
        ring_rows = {row.algorithm: row for row in results["Ring(16)"]}
        fc_rows = {row.algorithm: row for row in results["FullyConnected(16)"]}
        assert ring_rows["Ring"].bandwidth_gbps > ring_rows["Direct"].bandwidth_gbps
        assert fc_rows["Direct"].bandwidth_gbps > fc_rows["Ring"].bandwidth_gbps
        # TACOS is measured on the asymmetric topologies and beats Ring there.
        mesh_rows = {row.algorithm: row for row in results["Mesh(4x4)"]}
        assert mesh_rows["TACOS"].bandwidth_gbps > mesh_rows["Ring"].bandwidth_gbps

    def test_direct_wins_for_tiny_collectives_on_a_ring(self):
        results = fig02_motivation.run_size_sweep(num_npus=16, collective_sizes=[1e3, 256e6])
        tiny = {row.algorithm: row for row in results[1e3]}
        large = {row.algorithm: row for row in results[256e6]}
        assert tiny["Direct"].bandwidth_gbps > tiny["Ring"].bandwidth_gbps
        assert large["Ring"].bandwidth_gbps > large["Direct"].bandwidth_gbps


class TestFig10AndFig14:
    def test_sparser_topologies_need_more_time_spans(self):
        rows = fig10_topologies.run()
        spans = [row.num_time_spans for row in rows]
        assert spans[0] == 1  # fully connected finishes in one shot
        assert spans == sorted(spans)
        assert all(row.verified for row in rows)

    def test_mesh_synthesis_is_verified_and_utilized(self):
        result = fig14_mesh_synthesis.run(collective_size=9e6)
        assert result.verified
        assert result.num_time_spans >= 4
        # The first span saturates every mesh link (Fig. 14 shows all links busy).
        assert result.link_utilization_per_span[0] == pytest.approx(1.0)


class TestFig15AndTable5:
    def test_tacos_beats_basic_algorithms_on_heterogeneous_topologies(self):
        results = fig15_heterogeneous.run(collective_size=128e6, taccl_restarts=2)
        for topology_name, rows in results.items():
            by_algorithm = {row.algorithm: row for row in rows}
            assert by_algorithm["TACOS"].bandwidth_gbps > by_algorithm["Ring"].bandwidth_gbps
            assert by_algorithm["TACOS"].bandwidth_gbps > by_algorithm["Direct"].bandwidth_gbps
            assert by_algorithm["TACOS"].bandwidth_gbps <= by_algorithm["Ideal"].bandwidth_gbps * 1.01

    def test_table5_normalizes_over_tacos(self):
        rows = table05_multinode.run(node_counts=(2,), collective_size=64e6, taccl_restarts=2)
        assert len(rows) == 1
        normalized = rows[0].normalized_times()
        assert normalized["TACOS"] == pytest.approx(1.0)
        assert normalized["Ring"] > 1.0
        assert normalized["Direct"] > 1.0
        assert "TACOS" in rows[0].synthesis_times()


class TestFig16AndFig17:
    def test_tacos_beats_themis_and_blueconnect(self):
        sweep = fig16_themis.run_bandwidth_sweep(side=2, collective_sizes=(64e6,), themis_high_chunks=8)
        for topology, per_size in sweep.items():
            rows = {row.algorithm: row for row in per_size[64e6]}
            tacos = rows["TACOS (4 chunks)"]
            assert tacos.bandwidth_gbps >= rows["BlueConnect (4 chunks)"].bandwidth_gbps
            assert tacos.bandwidth_gbps >= rows["Themis (4 chunks)"].bandwidth_gbps * 0.95

    def test_utilization_traces_have_expected_shape(self):
        traces = fig16_themis.run_utilization(side=2, collective_size=64e6, num_samples=20)
        assert {trace.algorithm for trace in traces} == {"TACOS", "Themis"}
        for trace in traces:
            assert len(trace.utilization) == 20
            assert 0.0 <= trace.average_utilization <= 1.0

    def test_multitree_saturates_for_large_collectives(self):
        results = fig17_multitree_ccube.run_multitree_comparison(
            side=3, collective_sizes=(1e6, 16e6), chunks_per_npu=2
        )
        for topology, per_size in results.items():
            small = {row.algorithm: row for row in per_size[1e6]}
            large = {row.algorithm: row for row in per_size[16e6]}
            tacos_gain = large["TACOS"].bandwidth_gbps / small["TACOS"].bandwidth_gbps
            multitree_gain = large["MultiTree"].bandwidth_gbps / small["MultiTree"].bandwidth_gbps
            assert tacos_gain > multitree_gain  # MultiTree cannot overlap chunks
            assert large["TACOS"].bandwidth_gbps > large["MultiTree"].bandwidth_gbps

    def test_tacos_beats_ccube_on_dgx1(self):
        results = fig17_multitree_ccube.run_ccube_comparison(collective_sizes=(256e6,))
        rows = {row.algorithm: row for row in results[256e6]}
        assert rows["TACOS"].bandwidth_gbps > rows["C-Cube"].bandwidth_gbps
        assert rows["Ring"].bandwidth_gbps > rows["C-Cube"].bandwidth_gbps


class TestFig18AndFig19:
    def test_tacos_sustains_higher_utilization_than_ring(self):
        traces = fig18_asymmetric_utilization.run(
            collective_size=128e6,
            chunks_per_npu=1,
            topologies=fig18_asymmetric_utilization.default_topologies(
                torus_side=2, mesh_side=3, hypercube_side=2
            ),
        )
        by_key = {(trace.topology, trace.algorithm): trace for trace in traces}
        for topology in {trace.topology for trace in traces}:
            tacos = by_key[(topology, "TACOS")]
            assert tacos.efficiency_vs_ideal > 0.5

    def test_synthesis_time_grows_polynomially(self):
        results = fig19_scalability.run(
            mesh_sides=(2, 3, 4),
            hypercube_sides=(2,),
            collective_size=16e6,
            include_taccl=True,
            taccl_restarts=1,
        )
        mesh_points = results["2D Mesh"]
        times = [point.synthesis_seconds for point in mesh_points]
        assert times == sorted(times)  # larger systems take longer
        coefficients, r_squared = fig19_scalability.fit_quadratic(mesh_points)
        assert r_squared > 0.8
        assert "2D Mesh (TACCL-like)" in results


class TestEndToEndTraining:
    def test_tacos_training_is_fastest_except_ideal(self):
        rows = fig20_end_to_end.run(
            algorithms=("Ring", "TACOS", "Ideal"), small_nodes=2, large_nodes=2, chunks_per_npu=1
        )
        normalized = fig20_end_to_end.normalized_over_tacos(rows)
        for model, times in normalized.items():
            assert times["Ring"] >= 1.0
            assert times["Ideal"] <= 1.0 + 1e-9
            assert times["TACOS"] == pytest.approx(1.0)

    def test_breakdown_normalized_over_ring(self):
        rows = fig21_breakdown.run(
            torus_dims=(2, 2, 2), algorithms=("Ring", "TACOS"), chunks_per_npu=1
        )
        normalized = fig21_breakdown.normalized_over_ring(rows)
        for model, per_algorithm in normalized.items():
            assert per_algorithm["Ring"].total == pytest.approx(1.0)
            assert per_algorithm["TACOS"].total <= 1.0 + 1e-9
            # Compute time is identical across algorithms; only comm changes.
            assert per_algorithm["TACOS"].compute == pytest.approx(
                per_algorithm["Ring"].compute
            )
