"""Tests for the banked DRAM trace simulator."""

import numpy as np
import pytest

from repro.core.sparsify import tbs_sparsify
from repro.formats import CSRFormat, DDCFormat, EncodeSpec, Segment
from repro.hw.dram_trace import BankedDRAM


def _tbs_encodings(seed=0, shape=(128, 128), sparsity=0.75):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape)
    res = tbs_sparsify(w, m=8, sparsity=sparsity)
    sparse = w * res.mask
    return DDCFormat().encode(sparse, EncodeSpec(tbs=res)), CSRFormat().encode(sparse)


class TestGeometry:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BankedDRAM(num_banks=0)
        with pytest.raises(ValueError):
            BankedDRAM(row_bytes=16, burst_bytes=32)

    def test_locate_interleaves_rows(self):
        dram = BankedDRAM(num_banks=4, row_bytes=1024)
        banks = [dram._locate(row * 1024)[0] for row in range(8)]
        assert banks == [0, 1, 2, 3, 0, 1, 2, 3]


class TestReplay:
    def test_empty_trace(self):
        res = BankedDRAM().replay([])
        assert res.cycles == 0 and res.accesses == 0
        assert res.row_hit_rate == 1.0

    def test_sequential_stream_mostly_hits(self):
        dram = BankedDRAM(row_bytes=1024, burst_bytes=32)
        res = dram.replay([Segment(0, 8192)])
        # 8 KB sequential -> 8 row activations, 248 hits.
        assert res.accesses == 256
        assert res.row_misses == 8
        assert res.row_hit_rate > 0.9

    def test_random_scatter_mostly_misses(self):
        rng = np.random.default_rng(0)
        segments = [Segment(int(a) * 4096, 8) for a in rng.integers(0, 4096, size=128)]
        res = BankedDRAM().replay(segments)
        assert res.row_hit_rate < 0.3

    def test_scatter_slower_than_stream(self):
        nbytes = 8192
        stream = BankedDRAM().replay([Segment(0, nbytes)])
        rng = np.random.default_rng(1)
        scattered = BankedDRAM().replay(
            [Segment(int(a) * 4096, 32) for a in rng.integers(0, 1 << 16, size=nbytes // 32)]
        )
        assert scattered.cycles > stream.cycles

    def test_energy_counts_activations(self):
        dram = BankedDRAM()
        one_row = dram.replay([Segment(0, 64)])
        many_rows = dram.replay([Segment(i * 8192, 64) for i in range(8)])
        assert many_rows.energy_pj > one_row.energy_pj

    def test_zero_length_segments_ignored(self):
        res = BankedDRAM().replay([Segment(0, 0), Segment(64, 32)])
        assert res.accesses == 1


class TestFormatContrast:
    """The trace model validates the analytical model's format ratios.

    At these matrix sizes CSR's scattered fragments still enjoy row
    locality (a weight matrix spans few DRAM rows), so its penalty is
    burst *overfetch* -- roughly 4x the accesses for the same payload --
    rather than row thrash; DDC wins decisively on cycles either way.
    """

    def test_ddc_streams_with_high_hit_rate(self):
        ddc, _ = _tbs_encodings()
        assert BankedDRAM().replay_encoded(ddc).row_hit_rate > 0.9

    def test_csr_overfetches(self):
        ddc, csr = _tbs_encodings()
        dram = BankedDRAM()
        assert dram.replay_encoded(csr).accesses > 2 * dram.replay_encoded(ddc).accesses

    def test_ddc_cycles_beat_csr(self):
        ddc, csr = _tbs_encodings(seed=1)
        dram = BankedDRAM()
        assert dram.replay_encoded(ddc).cycles < dram.replay_encoded(csr).cycles

    def test_trend_stable_across_sparsity(self):
        for sparsity in (0.5, 0.875):
            ddc, csr = _tbs_encodings(seed=2, sparsity=sparsity)
            dram = BankedDRAM()
            assert dram.replay_encoded(ddc).cycles < dram.replay_encoded(csr).cycles


class TestReplayOrientation:
    def test_replay_encoded_follows_the_encoded_orientation(self):
        """A transposed encoding replays its transposed walk, the same
        trace ``traffic_report`` analyses, not the forward one."""
        rng = np.random.default_rng(4)
        w = rng.normal(size=(64, 64))
        res = tbs_sparsify(w, m=8, sparsity=0.5)
        enc = CSRFormat().encode(w * res.mask, EncodeSpec(orientation="transposed"))
        dram = BankedDRAM()
        replayed = dram.replay_encoded(enc)
        assert replayed == dram.replay(enc.trace("transposed"))
        assert replayed.accesses > dram.replay(enc.trace("forward")).accesses
