"""Binary round-trip of simulation outcomes: delivery schedule, per-link
bytes, and columnar busy intervals must survive ``SimulationResult.to_bytes``
bit-for-bit, and corrupt payloads must fail loudly on load."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import AllGather
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.simulator import simulate_algorithm
from repro.simulator.result import SimulationResult
from repro.topology import build_ring

_settings = settings(max_examples=50, deadline=None)

_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def _assert_identical(left: SimulationResult, right: SimulationResult) -> None:
    assert right.completion_time == left.completion_time
    assert right.message_completion == left.message_completion
    assert right.link_bytes == left.link_bytes
    assert right.num_links == left.num_links
    assert right.collective_size == left.collective_size
    left_columns = left.busy_columns()
    right_columns = right.busy_columns()
    assert set(left_columns) == set(right_columns)
    for key in left_columns:
        assert left_columns[key][0].tobytes() == right_columns[key][0].tobytes()
        assert left_columns[key][1].tobytes() == right_columns[key][1].tobytes()


@st.composite
def _results(draw):
    num_messages = draw(st.integers(min_value=0, max_value=20))
    completion = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=10_000),
            _times,
            max_size=num_messages,
        )
    )
    num_links = draw(st.integers(min_value=0, max_value=6))
    columns = {}
    link_bytes = {}
    for link in range(num_links):
        key = (link, (link + 1) % max(1, num_links))
        if key in columns:
            continue
        count = draw(st.integers(min_value=0, max_value=8))
        starts = sorted(draw(st.lists(_times, min_size=count, max_size=count)))
        widths = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=count,
                max_size=count,
            )
        )
        ends = [start + width for start, width in zip(starts, widths)]
        columns[key] = (starts, ends)
        link_bytes[key] = draw(_times)
    return SimulationResult(
        completion_time=draw(_times),
        message_completion=completion,
        busy_columns=columns,
        link_bytes=link_bytes,
        num_links=draw(st.integers(min_value=0, max_value=32)),
        collective_size=draw(_times),
    )


class TestRoundTrip:
    @_settings
    @given(result=_results())
    def test_round_trip_is_exact(self, result):
        decoded = SimulationResult.from_bytes(result.to_bytes())
        _assert_identical(result, decoded)
        assert decoded.to_bytes() == result.to_bytes()

    def test_real_simulation_round_trips(self):
        topology = build_ring(6)
        algorithm = TacosSynthesizer(SynthesisConfig(seed=7)).synthesize(
            topology, AllGather(6), 4e6
        )
        result = simulate_algorithm(topology, algorithm)
        decoded = SimulationResult.from_bytes(result.to_bytes())
        _assert_identical(result, decoded)
        # Derived metrics agree exactly too (they read the same columns).
        assert decoded.link_busy_time() == result.link_busy_time()
        times, utilization = result.utilization_timeline(50)
        decoded_times, decoded_utilization = decoded.utilization_timeline(50)
        assert np.array_equal(times, decoded_times)
        assert np.array_equal(utilization, decoded_utilization)

    def test_zero_width_intervals_survive(self):
        result = SimulationResult(
            completion_time=1.0,
            message_completion={0: 1.0},
            busy_columns={(0, 1): ([0.5, 0.7], [0.5, 0.9])},
            num_links=2,
        )
        decoded = SimulationResult.from_bytes(result.to_bytes())
        _assert_identical(result, decoded)
        assert decoded.busy_link_count_at(0.5) == result.busy_link_count_at(0.5) == 1


class TestValidation:
    def test_bad_magic_rejected(self):
        payload = SimulationResult(1.0, {0: 1.0}).to_bytes()
        with pytest.raises(ValueError, match="magic"):
            SimulationResult.from_bytes(b"XXXXXXXX" + payload[8:])

    def test_truncated_payload_rejected(self):
        payload = SimulationResult(1.0, {0: 1.0}).to_bytes()
        with pytest.raises(ValueError, match="bytes"):
            SimulationResult.from_bytes(payload[:-4])

    def test_corrupt_interval_index_rejected(self):
        result = SimulationResult(
            completion_time=1.0,
            message_completion={},
            busy_columns={(0, 1): ([0.1], [0.2])},
        )
        payload = bytearray(result.to_bytes())
        # The busy indptr sits after the header, message columns (none), and
        # the link source/dest columns: flip its final entry to a lie.
        header = 8 + 8 * 2 + 8 + 8 * 4  # magic + header struct
        offset = header + 0 + 8 + 8  # sources + dests (one link each)
        payload[offset + 8 : offset + 16] = (99).to_bytes(8, "little")
        with pytest.raises(ValueError):
            SimulationResult.from_bytes(bytes(payload))
