"""Tests for the codec unit, MBD unit and DRAM model."""

import numpy as np
import pytest

from repro.core.patterns import Direction
from repro.formats import CSRFormat, DDCFormat, EncodeSpec, traffic_report
from repro.core.sparsify import tbs_sparsify
from repro.hw.codec import CodecStats, CodecUnit
from repro.hw.dram import DRAMModel
from repro.hw.mbd import MBDUnit


def _col_block(seed=0, m=8, n=2):
    rng = np.random.default_rng(seed)
    block = np.zeros((m, m))
    for j in range(m):
        rows = rng.choice(m, size=n, replace=False)
        block[rows, j] = rng.normal() + 5.0
    return block


class TestCodecUnit:
    def test_row_block_passthrough(self):
        stats = CodecUnit().process_block(_col_block(), Direction.ROW, pe_cycles=4)
        assert stats.passthrough_blocks == 1
        assert stats.conversion_cycles == 0

    def test_col_block_converted(self):
        stats = CodecUnit().process_block(_col_block(), Direction.COL, pe_cycles=4)
        assert stats.converted_blocks == 1
        assert stats.conversion_cycles > 0

    def test_conversion_mostly_hidden(self):
        """Fig. 14: visible codec overhead ~3.57% of execution."""
        block = _col_block(n=2)
        pe_cycles = 16  # the PE processes the block against many B columns
        stats = CodecUnit().process_block(block, Direction.COL, pe_cycles=pe_cycles)
        assert stats.visible_cycles < 0.25 * pe_cycles

    def test_empty_block(self):
        stats = CodecUnit().process_block(np.zeros((8, 8)), Direction.COL, pe_cycles=0)
        assert stats.elements == 0
        assert stats.passthrough_blocks == 1

    def test_workload_aggregation(self):
        blocks = [_col_block(seed=s) for s in range(4)]
        dirs = [Direction.COL, Direction.ROW, Direction.COL, Direction.ROW]
        stats = CodecUnit().process_workload(blocks, dirs, [8, 8, 8, 8])
        assert stats.converted_blocks == 2
        assert stats.passthrough_blocks == 2
        assert stats.elements == sum(np.count_nonzero(b) for b in blocks)

    def test_workload_length_mismatch(self):
        with pytest.raises(ValueError):
            CodecUnit().process_workload([np.zeros((8, 8))], [], [])

    def test_merge(self):
        a = CodecStats(converted_blocks=1, elements=10, conversion_cycles=5)
        b = CodecStats(passthrough_blocks=2, elements=4)
        a.merge(b)
        assert a.converted_blocks == 1 and a.passthrough_blocks == 2
        assert a.elements == 14


class TestMBDUnit:
    def test_gather_selects_rows(self):
        b_tile = np.arange(32).reshape(8, 4).astype(float)
        gathered, stats = MBDUnit().gather(b_tile, [1, 3, 1], Direction.ROW)
        np.testing.assert_array_equal(gathered, b_tile[[1, 3, 1]])
        assert stats.mux_selections == 3
        assert stats.transposed_tiles == 0

    def test_col_direction_uses_transpose_array(self):
        b_tile = np.ones((8, 4))
        _, stats = MBDUnit().gather(b_tile, [0], Direction.COL)
        assert stats.transposed_tiles == 1

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            MBDUnit().gather(np.ones((4, 4)), [7], Direction.ROW)

    def test_empty_indices(self):
        gathered, stats = MBDUnit().gather(np.ones((4, 4)), [], Direction.ROW)
        assert gathered.shape == (0, 4)
        assert stats.mux_selections == 0


class TestDRAMModel:
    def test_streaming_cycles(self):
        dram = DRAMModel(bandwidth_gbs=64.0, frequency_ghz=1.0, first_access_latency=0)
        result = dram.transfer(6400, num_bursts=1, contiguous=True)
        assert result.cycles == 100

    def test_scattered_slower_than_contiguous(self):
        dram = DRAMModel()
        stream = dram.transfer(32_768, num_bursts=1, contiguous=True)
        scattered = dram.transfer(32_768, num_bursts=1024, contiguous=False)
        assert scattered.cycles > stream.cycles

    def test_zero_bytes(self):
        result = DRAMModel().transfer(0)
        assert result.cycles == 0 and result.energy_pj == 0.0

    def test_energy_scales_with_bytes(self):
        dram = DRAMModel()
        small = dram.transfer(1000, 10, True)
        big = dram.transfer(10_000, 10, True)
        assert big.energy_pj > small.energy_pj

    def test_bandwidth_sweep_monotone(self):
        cycles = [
            DRAMModel(bandwidth_gbs=bw).transfer(1_000_000, 100, True).cycles
            for bw in (32, 64, 128, 256)
        ]
        assert cycles == sorted(cycles, reverse=True)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            DRAMModel(bandwidth_gbs=-1)

    def test_transfer_report_integration(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(64, 64))
        res = tbs_sparsify(w, m=8, sparsity=0.75)
        ddc_rep = traffic_report(DDCFormat().encode(w * res.mask, EncodeSpec(tbs=res)))
        csr_rep = traffic_report(CSRFormat().encode(w * res.mask))
        dram = DRAMModel()
        ddc = dram.transfer_report(ddc_rep)
        csr = dram.transfer_report(csr_rep)
        assert ddc.cycles < csr.cycles  # DDC moves less and streams better
