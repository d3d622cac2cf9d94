"""Binary round-trip of the columnar IR: ``TransferTable.to_bytes`` must be
exact (bit-for-bit on every column) and ``from_bytes`` must reject corrupt
payloads instead of building a silently wrong table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transfers import TransferTable

_settings = settings(max_examples=100, deadline=None)

_finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def _tables(draw):
    count = draw(st.integers(min_value=0, max_value=64))
    starts = draw(
        st.lists(_finite_floats, min_size=count, max_size=count)
    )
    durations = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    ints = st.integers(min_value=0, max_value=2**40)
    chunks = draw(st.lists(ints, min_size=count, max_size=count))
    sources = draw(st.lists(ints, min_size=count, max_size=count))
    dests = draw(st.lists(ints, min_size=count, max_size=count))
    ends = [start + duration for start, duration in zip(starts, durations)]
    return TransferTable.from_columns(starts, ends, chunks, sources, dests)


class TestRoundTrip:
    @_settings
    @given(table=_tables())
    def test_round_trip_is_exact(self, table):
        decoded = TransferTable.from_bytes(table.to_bytes())
        for column in ("starts", "ends", "chunks", "sources", "dests"):
            original = getattr(table, column)
            restored = getattr(decoded, column)
            assert original.dtype == restored.dtype
            assert original.tobytes() == restored.tobytes()  # bit-exact
        assert decoded.to_bytes() == table.to_bytes()

    def test_empty_table(self):
        empty = TransferTable.empty()
        assert TransferTable.from_bytes(empty.to_bytes()).to_bytes() == empty.to_bytes()
        assert len(TransferTable.from_bytes(empty.to_bytes())) == 0

    def test_extreme_floats_survive(self):
        starts = [0.0, 5e-324, 1.7976931348626e308 / 2, -0.0]
        ends = [0.0, 5e-324, 1.7976931348626e308, 0.0]
        table = TransferTable.from_columns(starts, ends, [0] * 4, [0] * 4, [1] * 4)
        decoded = TransferTable.from_bytes(table.to_bytes())
        assert decoded.starts.tobytes() == table.starts.tobytes()
        assert decoded.ends.tobytes() == table.ends.tobytes()


class TestValidation:
    def test_bad_magic_rejected(self):
        payload = TransferTable.from_columns([0.0], [1.0], [0], [0], [1]).to_bytes()
        with pytest.raises(ValueError, match="magic"):
            TransferTable.from_bytes(b"XXXXXXXX" + payload[8:])

    def test_truncated_payload_rejected(self):
        payload = TransferTable.from_columns([0.0], [1.0], [0], [0], [1]).to_bytes()
        with pytest.raises(ValueError, match="bytes"):
            TransferTable.from_bytes(payload[:-1])

    def test_oversized_payload_rejected(self):
        payload = TransferTable.from_columns([0.0], [1.0], [0], [0], [1]).to_bytes()
        with pytest.raises(ValueError, match="bytes"):
            TransferTable.from_bytes(payload + b"\x00")

    def test_tiny_buffer_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            TransferTable.from_bytes(b"short")

    def test_invariant_violations_rejected_on_load(self):
        # Craft a payload whose ends precede its starts: build a valid table,
        # then swap the starts/ends column bytes.
        table = TransferTable.from_columns([1.0], [3.0], [0], [0], [1])
        payload = bytearray(table.to_bytes())
        header = 16
        starts = payload[header : header + 8]
        ends = payload[header + 8 : header + 16]
        payload[header : header + 8] = ends
        payload[header + 8 : header + 16] = starts
        with pytest.raises(ValueError, match="ends before it starts"):
            TransferTable.from_bytes(bytes(payload))

    def test_decoded_columns_are_writable_copies(self):
        table = TransferTable.from_columns([0.0], [1.0], [0], [0], [1])
        decoded = TransferTable.from_bytes(table.to_bytes())
        decoded.starts[0] = 42.0  # must not raise (no read-only frombuffer view)
        assert decoded.starts[0] == 42.0


def _sample_table():
    return TransferTable.from_columns(
        [0.0, 1.5, 2.0], [1.5, 3.0, 2.5], [0, 1, 2], [3, 4, 5], [6, 7, 8]
    )


class TestBufferSlices:
    """``decode_algorithm`` hands ``from_bytes`` a ``memoryview`` slice of its blob."""

    PREFIX = b"header bytes before the table"

    def _slice(self, payload):
        return memoryview(self.PREFIX + payload)[len(self.PREFIX):]

    def test_columns_equal_the_source_and_own_writable_memory(self):
        table = _sample_table()
        view = self._slice(table.to_bytes())
        decoded = TransferTable.from_bytes(view)
        for column in ("starts", "ends", "chunks", "sources", "dests"):
            original = getattr(table, column)
            restored = getattr(decoded, column)
            assert restored.dtype == original.dtype
            assert restored.tobytes() == original.tobytes()
            assert restored.flags.owndata and restored.flags.writeable
            assert not np.shares_memory(restored, np.frombuffer(view.obj, dtype=np.uint8))
        decoded.starts[0] = 42.0
        assert table.starts[0] == 0.0

    def test_bytearray_source_can_change_after_decoding(self):
        table = _sample_table()
        buffer = bytearray(self.PREFIX + table.to_bytes())
        decoded = TransferTable.from_bytes(memoryview(buffer)[len(self.PREFIX):])
        buffer[len(self.PREFIX):] = bytes(len(buffer) - len(self.PREFIX))
        assert decoded.to_bytes() == table.to_bytes()

    def test_truncated_slice_rejected(self):
        with pytest.raises(ValueError, match="bytes"):
            TransferTable.from_bytes(self._slice(_sample_table().to_bytes()[:-1]))

    def test_oversized_slice_rejected(self):
        with pytest.raises(ValueError, match="bytes"):
            TransferTable.from_bytes(self._slice(_sample_table().to_bytes() + b"\x00" * 8))

    def test_bad_magic_slice_rejected(self):
        payload = _sample_table().to_bytes()
        with pytest.raises(ValueError, match="magic"):
            TransferTable.from_bytes(self._slice(b"XXXXXXXX" + payload[8:]))
