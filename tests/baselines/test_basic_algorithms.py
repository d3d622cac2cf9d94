"""Semantic correctness tests for the basic collective baselines."""

import pytest

from repro.baselines import (
    dbt_all_reduce,
    direct_all_gather,
    direct_all_reduce,
    direct_reduce_scatter,
    rhd_all_gather,
    rhd_all_reduce,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
)
from repro.errors import SimulationError
from tests.baselines.schedule_semantics import (
    check_all_gather_schedule,
    check_all_reduce_schedule,
)

MB = 1e6


class TestRing:
    @pytest.mark.parametrize("num_npus", [2, 3, 4, 7, 8])
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_all_reduce_is_semantically_correct(self, num_npus, bidirectional):
        schedule = ring_all_reduce(num_npus, num_npus * MB, bidirectional=bidirectional)
        assert check_all_reduce_schedule(schedule)

    @pytest.mark.parametrize("chunks_per_npu", [1, 2, 3])
    def test_all_reduce_with_chunking(self, chunks_per_npu):
        schedule = ring_all_reduce(6, 6 * MB, chunks_per_npu=chunks_per_npu)
        assert check_all_reduce_schedule(schedule)

    def test_all_gather_is_semantically_correct(self):
        schedule = ring_all_gather(6, 6 * MB, bidirectional=False)
        assert check_all_gather_schedule(schedule)

    def test_all_reduce_step_count(self):
        schedule = ring_all_reduce(6, 6 * MB, bidirectional=False)
        assert schedule.num_steps == 2 * (6 - 1)

    def test_bidirectional_halves_chunk_size(self):
        uni = ring_all_reduce(4, 4 * MB, bidirectional=False)
        bidi = ring_all_reduce(4, 4 * MB, bidirectional=True)
        assert bidi.chunk_size == pytest.approx(uni.chunk_size / 2)

    def test_reduce_scatter_schedule_shape(self):
        schedule = ring_reduce_scatter(5, 5 * MB, bidirectional=False)
        assert schedule.num_steps == 4
        assert schedule.pattern_name == "ReduceScatter"

    def test_too_small_rejected(self):
        with pytest.raises(SimulationError):
            ring_all_reduce(1, MB)


class TestDirect:
    @pytest.mark.parametrize("num_npus", [2, 3, 5, 8])
    def test_all_reduce_is_semantically_correct(self, num_npus):
        assert check_all_reduce_schedule(direct_all_reduce(num_npus, num_npus * MB))

    def test_all_gather_is_semantically_correct(self):
        assert check_all_gather_schedule(direct_all_gather(5, 5 * MB))

    def test_all_reduce_has_two_steps(self):
        assert direct_all_reduce(6, 6 * MB).num_steps == 2

    def test_reduce_scatter_send_count(self):
        schedule = direct_reduce_scatter(6, 6 * MB)
        assert schedule.num_sends == 6 * 5

    def test_all_reduce_send_count(self):
        schedule = direct_all_reduce(6, 6 * MB)
        assert schedule.num_sends == 2 * 6 * 5


class TestRecursiveHalvingDoubling:
    @pytest.mark.parametrize("num_npus", [2, 4, 8, 16])
    def test_all_reduce_is_semantically_correct(self, num_npus):
        assert check_all_reduce_schedule(rhd_all_reduce(num_npus, num_npus * MB))

    def test_all_gather_is_semantically_correct(self):
        assert check_all_gather_schedule(rhd_all_gather(8, 8 * MB))

    def test_step_count_is_logarithmic(self):
        assert rhd_all_reduce(16, 16 * MB).num_steps == 2 * 4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SimulationError):
            rhd_all_reduce(6, 6 * MB)

    def test_total_traffic_matches_theory(self):
        # RHD moves 2 * (N-1)/N of the buffer per NPU, i.e. 2 * (N-1) * size in total.
        num_npus = 8
        collective_size = num_npus * MB
        schedule = rhd_all_reduce(num_npus, collective_size)
        total = schedule.num_sends * schedule.chunk_size
        assert total == pytest.approx(2 * (num_npus - 1) * collective_size)


class TestDoubleBinaryTree:
    @pytest.mark.parametrize("num_npus", [2, 3, 4, 8, 9])
    def test_all_reduce_is_semantically_correct(self, num_npus):
        assert check_all_reduce_schedule(dbt_all_reduce(num_npus, num_npus * MB))

    def test_uses_two_trees(self):
        schedule = dbt_all_reduce(8, 8 * MB)
        assert schedule.metadata["num_trees"] == 2

    def test_with_chunking(self):
        assert check_all_reduce_schedule(dbt_all_reduce(6, 6 * MB, chunks_per_npu=2))
