"""Tests for intra-block mapping and the DVPE cycle model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import Direction
from repro.core.sparsify import tbs_sparsify
from repro.hw.dvpe import DVPE
from repro.hw.mapping import (
    BlockWork,
    block_work_from_mask,
    map_balanced,
    map_naive,
    mapping_cycles,
)


class TestBlockWork:
    def test_from_mask_row_counts(self):
        mask = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 0]], dtype=bool)
        work = block_work_from_mask(mask, Direction.COL, m=4)
        assert work.segments == (2, 1, 0, 3)
        assert work.nnz == 6

    def test_rejects_negative_segments(self):
        with pytest.raises(ValueError):
            BlockWork((-1, 2), m=4)

    def test_rejects_non_2d_mask(self):
        with pytest.raises(ValueError):
            block_work_from_mask(np.ones(4, dtype=bool), Direction.ROW, m=4)


class TestNaiveMapping:
    def test_fig11c_example(self):
        """Fig. 11(c): segments (3,1,2,2) on a 4-lane PE -> 4 naive cycles."""
        work = BlockWork((3, 1, 2, 2), m=4)
        sched = map_naive(work, lanes=4)
        assert sched.num_cycles == 4
        assert sched.utilization(4) == pytest.approx(0.5)

    def test_empty_segments_skipped(self):
        work = BlockWork((0, 2, 0), m=4)
        assert map_naive(work, lanes=4).num_cycles == 1

    def test_long_segment_splits(self):
        work = BlockWork((10,), m=8)
        sched = map_naive(work, lanes=4)
        assert sched.num_cycles == 3  # 4 + 4 + 2

    def test_macs_conserved(self):
        work = BlockWork((3, 1, 2, 2), m=4)
        assert map_naive(work, lanes=4).macs == 8


class TestBalancedMapping:
    def test_fig11c_example(self):
        """Fig. 11(c): intra-block mapping packs (3,1,2,2) into 2 cycles."""
        work = BlockWork((3, 1, 2, 2), m=4)
        sched = map_balanced(work, lanes=4)
        assert sched.num_cycles == 2
        assert sched.utilization(4) == pytest.approx(1.0)

    def test_perfect_packing_from_balance_property(self):
        """nnz is a multiple of M for TBS blocks -> zero wasted lanes."""
        res = tbs_sparsify(np.random.default_rng(0).normal(size=(64, 64)), m=8, sparsity=0.75)
        for br in range(8):
            for bc in range(8):
                block = res.mask[br * 8 : (br + 1) * 8, bc * 8 : (bc + 1) * 8]
                direction = Direction(int(res.block_direction[br, bc]))
                work = block_work_from_mask(block, direction, m=8)
                sched = map_balanced(work, lanes=8)
                if work.nnz:
                    assert sched.utilization(8) == pytest.approx(1.0)

    def test_outputs_per_cycle_sums_to_nonempty_segments(self):
        work = BlockWork((3, 1, 2, 2), m=4)
        sched = map_balanced(work, lanes=4)
        assert sum(sched.outputs_per_cycle) == 4

    def test_never_slower_than_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            segs = tuple(int(x) for x in rng.integers(0, 9, size=8))
            work = BlockWork(segs, m=8)
            assert mapping_cycles(work, 8, balanced=True) <= mapping_cycles(work, 8, balanced=False)

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=16), st.sampled_from([4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_macs_conserved_property(self, segs, lanes):
        work = BlockWork(tuple(segs), m=8)
        assert map_balanced(work, lanes).macs == work.nnz
        assert map_naive(work, lanes).macs == work.nnz

    def test_fast_path_matches_schedule(self):
        work = BlockWork((5, 0, 3, 8), m=8)
        assert mapping_cycles(work, 8, True) == map_balanced(work, 8).num_cycles
        assert mapping_cycles(work, 8, False) == map_naive(work, 8).num_cycles


class TestDVPE:
    def test_balanced_beats_naive(self):
        work = BlockWork((3, 1, 2, 2), m=4)
        fast = DVPE(lanes=4).execute(work)
        slow = DVPE(lanes=4, intra_block_mapping=False).execute(work)
        assert fast.total_cycles < slow.total_cycles

    def test_alternate_unit_absorbs_bursts(self):
        """Many short segments complete simultaneously when packed; the
        alternate unit buffers them while the port drains."""
        work = BlockWork((1,) * 8, m=8)  # 8 results in one packed cycle
        with_alt = DVPE(lanes=8, output_port_width=2, alternate_unit=True).execute(work)
        without = DVPE(lanes=8, output_port_width=2, alternate_unit=False).execute(work)
        assert with_alt.total_cycles <= without.total_cycles
        assert without.stall_cycles > 0

    def test_row_uniform_block_no_stalls(self):
        work = BlockWork((2,) * 8, m=8)
        result = DVPE(lanes=8).execute(work)
        assert result.stall_cycles == 0

    def test_utilization_bounds(self):
        work = BlockWork((3, 1, 2, 2, 0, 0, 4, 4), m=8)
        result = DVPE(lanes=8).execute(work)
        assert 0 < result.macs / (result.total_cycles * 8) <= 1.0

    def test_empty_block(self):
        result = DVPE().execute(BlockWork((0,) * 8, m=8))
        assert result.total_cycles == 0 and result.macs == 0

    def test_block_cost_is_total_cycles(self):
        work = BlockWork((4,) * 8, m=8)
        pe = DVPE()
        assert pe.block_cost(work) == pe.execute(work).total_cycles

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DVPE(lanes=0)
