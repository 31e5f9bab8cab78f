"""Tests for the codec's storage->computation format conversion (Fig. 9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import block_nnz
from repro.core.patterns import Direction
from repro.formats.conversion import (
    StorageElement,
    batch_conversion_cycles,
    block_storage_stream,
    convert_block,
)


def _col_block_2_4():
    """The Fig. 9(b) shape: a 4x4 block, 2:4 sparse in the independent
    dimension (each column keeps 2)."""
    block = np.zeros((4, 4))
    # column j keeps rows (j % 4) and ((j + 1) % 4), values distinct.
    labels = iter(range(1, 9))
    for j in range(4):
        block[j % 4, j] = next(labels)
        block[(j + 1) % 4, j] = next(labels)
    return block


class TestStorageStream:
    def test_row_block_row_major(self):
        block = np.array([[1.0, 0.0], [0.0, 2.0]])
        stream = block_storage_stream(block, Direction.ROW)
        assert [e.value for e in stream] == [1.0, 2.0]
        assert [(e.iid, e.rid) for e in stream] == [(0, 0), (1, 1)]

    def test_col_block_column_major(self):
        block = np.array([[1.0, 3.0], [2.0, 0.0]])
        stream = block_storage_stream(block, Direction.COL)
        assert [e.value for e in stream] == [1.0, 2.0, 3.0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            block_storage_stream(np.ones((2, 3)), Direction.ROW)

    def test_empty_block(self):
        assert block_storage_stream(np.zeros((4, 4)), Direction.COL) == []


class TestConvertBlock:
    def test_all_elements_preserved(self):
        stream = block_storage_stream(_col_block_2_4(), Direction.COL)
        schedule = convert_block(stream, n_queues=4)
        out = [e for beat in schedule.outputs for e in beat]
        assert sorted(e.value for e in out) == sorted(e.value for e in stream)

    def test_output_beats_bounded_by_width(self):
        stream = block_storage_stream(_col_block_2_4(), Direction.COL)
        schedule = convert_block(stream, n_queues=4, out_width=2)
        assert all(len(beat) <= 2 for beat in schedule.outputs)

    def test_row_grouping_in_outputs(self):
        """Non-flush beats contain elements of a single output row --
        the queue-per-Iid structure guarantees it."""
        stream = block_storage_stream(_col_block_2_4(), Direction.COL)
        schedule = convert_block(stream, n_queues=4, threshold=2)
        regular = schedule.outputs[: len(schedule.outputs) - schedule.flush_cycles]
        for beat in regular:
            assert len({e.iid for e in beat}) == 1

    def test_cycle_count_near_optimal(self):
        """Conversion throughput ~ nnz / in_width, plus a short flush --
        this is why Fig. 14 shows only ~3.57% codec overhead."""
        stream = block_storage_stream(_col_block_2_4(), Direction.COL)
        schedule = convert_block(stream, n_queues=4)
        assert schedule.input_cycles == 4  # 8 elements / width 2
        assert schedule.cycles <= 6

    def test_empty_stream(self):
        schedule = convert_block([])
        assert schedule.cycles == 0
        assert schedule.outputs == []

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            convert_block([], in_width=0)

    def test_queue_depth_tracked(self):
        stream = [StorageElement(float(i), rid=i % 4, iid=0) for i in range(8)]
        schedule = convert_block(stream, n_queues=4, threshold=2)
        assert schedule.max_queue_depth >= 2

    def test_single_element(self):
        schedule = convert_block([StorageElement(1.0, 0, 0)])
        assert sum(len(beat) for beat in schedule.outputs) == 1
        assert schedule.flush_cycles == 1  # below threshold -> flushed

    @given(
        seed=st.integers(0, 100),
        m=st.sampled_from([4, 8]),
        n=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservation_property(self, seed, m, n):
        """Every stored element leaves the codec exactly once."""
        rng = np.random.default_rng(seed)
        block = np.zeros((m, m))
        for j in range(m):
            rows = rng.choice(m, size=n, replace=False)
            block[rows, j] = rng.normal() + 10.0
        stream = block_storage_stream(block, Direction.COL)
        schedule = convert_block(stream, n_queues=m)
        out_vals = sorted(e.value for beat in schedule.outputs for e in beat)
        assert out_vals == sorted(e.value for e in stream)
        assert sum(len(beat) for beat in schedule.outputs) == m * n


# Every (in_width, out_width, threshold) in 1..4 the closed form covers.
_WIDTHS = [
    (i, o, t)
    for i in range(1, 5)
    for o in range(1, 5)
    for t in range(1, 5)
    if t >= o
]


def _random_blocks(rng, m, fills):
    """One (m, m) block per fill fraction, that share of cells non-zero."""
    blocks = np.zeros((len(fills), m, m))
    for b, fill in enumerate(fills):
        k = int(round(fill * m * m))
        cells = rng.permutation(m * m)[:k]
        blocks[b].flat[cells] = rng.normal(size=k) + 10.0
    return blocks


def _oracle_cycles(streams, n_queues, in_width, out_width, threshold):
    return [
        convert_block(
            stream,
            n_queues=n_queues,
            in_width=in_width,
            out_width=out_width,
            threshold=threshold,
        ).cycles
        for stream in streams
    ]


def _streams(blocks):
    return [block_storage_stream(block, Direction.COL) for block in blocks]


def _nnz(blocks):
    """The per-block non-zero counts the engine passes for ``blocks``."""
    return np.count_nonzero(blocks, axis=(1, 2))


class TestBatchConversionCycles:
    """The closed-form batch count against the queue-group emulation."""

    @given(
        m=st.sampled_from([2, 4, 8, 16, 32]),
        queues_per_m=st.sampled_from([0.25, 0.5, 1.0]),
        fills=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_convert_block(self, m, queues_per_m, fills, seed):
        """Block by block, at every width and threshold, whatever the
        number of queues convert_block emulates (the closed form never
        reads it)."""
        blocks = _random_blocks(np.random.default_rng(seed), m, fills)
        streams = _streams(blocks)
        n_queues = max(1, int(m * queues_per_m))
        for in_width, out_width, threshold in _WIDTHS:
            batch = batch_conversion_cycles(
                _nnz(blocks), in_width=in_width, out_width=out_width, threshold=threshold
            )
            ref = _oracle_cycles(streams, n_queues, in_width, out_width, threshold)
            assert batch.tolist() == ref, (in_width, out_width, threshold)

    def test_empty_and_full_blocks(self):
        for m in (2, 4, 8, 16, 32):
            blocks = np.stack([np.zeros((m, m)), np.ones((m, m))])
            streams = _streams(blocks)
            for in_width, out_width, threshold in _WIDTHS:
                batch = batch_conversion_cycles(
                    _nnz(blocks), in_width=in_width, out_width=out_width, threshold=threshold
                )
                ref = _oracle_cycles(streams, m, in_width, out_width, threshold)
                assert batch.tolist() == ref, (m, in_width, out_width, threshold)
                assert batch[0] == 0

    def test_boolean_occupancy_counts_like_values(self):
        """The engine counts the boolean occupancy of a matrix of blocks
        (``core.blocks.block_nnz``), not the values."""
        blocks = _random_blocks(np.random.default_rng(0), 8, [0.3, 0.7, 1.0])
        occupancy = np.hstack(list(blocks)) != 0
        assert (
            batch_conversion_cycles(block_nnz(occupancy, 8).reshape(-1)).tolist()
            == batch_conversion_cycles(_nnz(blocks)).tolist()
        )

    def test_no_blocks(self):
        out = batch_conversion_cycles(_nnz(np.zeros((0, 8, 8))))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_threshold_below_out_width_rejected(self):
        for in_width in range(1, 5):
            for out_width in range(2, 5):
                for threshold in range(1, out_width):
                    with pytest.raises(ValueError, match="threshold"):
                        batch_conversion_cycles(
                            _nnz(np.ones((1, 4, 4))),
                            in_width=in_width,
                            out_width=out_width,
                            threshold=threshold,
                        )

    def test_partial_beats_break_the_closed_form(self):
        """Why the guard exists: at threshold 1 a queue is ready with one
        element, so beats leave half-full and the emulation needs more
        cycles than max(ceil(nnz / in), ceil(nnz / out))."""
        stream = [StorageElement(1.0, rid=0, iid=0), StorageElement(2.0, rid=0, iid=1)]
        schedule = convert_block(stream, n_queues=2, in_width=2, out_width=2, threshold=1)
        assert schedule.cycles == 2  # closed form: max(1, 1) = 1

    def test_rejects_bad_shapes_and_widths(self):
        """One count per block: blocks themselves are not counts."""
        with pytest.raises(ValueError):
            batch_conversion_cycles(np.ones((4, 4)))
        with pytest.raises(ValueError):
            batch_conversion_cycles(np.ones((1, 4, 2)))
        with pytest.raises(ValueError):
            batch_conversion_cycles(_nnz(np.ones((1, 4, 4))), in_width=0)
        with pytest.raises(ValueError):
            batch_conversion_cycles(np.array([3, -1]))
