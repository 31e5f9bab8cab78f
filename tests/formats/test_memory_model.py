"""Tests for the bandwidth-utilization model (Fig. 7 / the 1.47x claim)."""

import numpy as np
import pytest

from repro.core import tbs_sparsify
from repro.formats import (
    CSRFormat,
    EncodeSpec,
    DDCFormat,
    DenseFormat,
    SDCFormat,
    Segment,
    compare_formats,
    merge_contiguous,
    traffic_report,
    useful_bytes_floor,
)


def _tbs_case(shape=(128, 128), sparsity=0.75, seed=0, row_scale=0.8):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape) * np.exp(rng.normal(0, row_scale, size=(shape[0], 1)))
    res = tbs_sparsify(w, m=8, sparsity=sparsity)
    return w * res.mask, res


class TestMergeContiguous:
    def test_adjacent_merge(self):
        segs = [Segment(0, 8), Segment(8, 8), Segment(32, 4)]
        merged = merge_contiguous(segs)
        assert merged == [Segment(0, 16), Segment(32, 4)]

    def test_non_adjacent_kept(self):
        segs = [Segment(0, 4), Segment(8, 4)]
        assert merge_contiguous(segs) == segs

    def test_empty(self):
        assert merge_contiguous([]) == []


class TestTrafficReport:
    def test_burst_roundup(self):
        enc = DenseFormat().encode(np.ones((4, 4)))
        rep = traffic_report(enc, burst_bytes=32)
        assert rep.fetched_bytes == 32  # 32 useful bytes, 1 burst

    def test_unaligned_segment_costs_extra_burst(self):
        enc = DenseFormat().encode(np.ones((4, 4)))
        enc.segments = [Segment(16, 32)]  # straddles two 32B bursts
        rep = traffic_report(enc, burst_bytes=32)
        assert rep.fetched_bytes == 64

    def test_rejects_bad_burst(self):
        enc = DenseFormat().encode(np.ones((4, 4)))
        with pytest.raises(ValueError):
            traffic_report(enc, burst_bytes=0)

    def test_utilization_bounds(self):
        sparse, res = _tbs_case(seed=1)
        for fmt in (DenseFormat(), CSRFormat(), SDCFormat(), DDCFormat()):
            enc = fmt.encode(sparse, EncodeSpec(tbs=res if fmt.name == "ddc" else None))
            rep = traffic_report(enc)
            assert 0.0 <= rep.bandwidth_utilization <= 1.0

    def test_empty_matrix_full_utilization(self):
        enc = CSRFormat().encode(np.zeros((8, 8)))
        assert traffic_report(enc).bandwidth_utilization == 1.0


class TestUsefulFloor:
    def test_dense_floor_is_values_only(self):
        enc = DenseFormat().encode(np.ones((8, 8)))
        assert useful_bytes_floor(enc) == 64 * 2

    def test_sparse_floor_includes_indices_and_info(self):
        sparse, res = _tbs_case(shape=(8, 8), seed=2)
        enc = DDCFormat().encode(sparse, EncodeSpec(tbs=res))
        floor = useful_bytes_floor(enc, m=8)
        assert floor >= enc.nnz * 2
        assert floor <= enc.nnz * 2 + enc.nnz + 2  # 3-bit idx + one info entry


class TestChallengeTwoClaims:
    """The paper's Fig. 7 narrative, measured on our model."""

    def test_ddc_beats_all_baselines(self):
        sparse, res = _tbs_case(seed=3)
        reports = compare_formats(sparse, tbs=res)
        ddc = reports["ddc"].bandwidth_utilization
        for name in ("dense", "csr", "sdc"):
            assert ddc > reports[name].bandwidth_utilization

    def test_gain_at_least_paper_level(self):
        """Paper: 1.47x average bandwidth-utilization improvement."""
        gains = []
        for seed, sparsity in [(4, 0.5), (5, 0.75), (6, 0.875)]:
            sparse, res = _tbs_case(seed=seed, sparsity=sparsity)
            reports = compare_formats(sparse, tbs=res)
            best_other = max(
                reports["sdc"].bandwidth_utilization, reports["csr"].bandwidth_utilization
            )
            gains.append(reports["ddc"].bandwidth_utilization / best_other)
        assert np.mean(gains) > 1.47

    def test_csr_fragmentation_hurts_at_any_sparsity(self):
        for sparsity in (0.5, 0.75):
            sparse, res = _tbs_case(seed=7, sparsity=sparsity)
            reports = compare_formats(sparse, tbs=res)
            assert reports["csr"].bandwidth_utilization < 0.5

    def test_sdc_degrades_with_row_variance(self):
        """More per-row occupancy variance -> more SDC padding traffic."""
        low_var, res_lo = _tbs_case(seed=8, row_scale=0.1)
        high_var, res_hi = _tbs_case(seed=8, row_scale=1.5)
        lo = compare_formats(low_var, tbs=res_lo)["sdc"].bandwidth_utilization
        hi = compare_formats(high_var, tbs=res_hi)["sdc"].bandwidth_utilization
        assert hi < lo

    def test_dense_utilization_tracks_density(self):
        sparse, res = _tbs_case(seed=9, sparsity=0.75)
        rep = compare_formats(sparse, tbs=res)["dense"]
        density = np.count_nonzero(sparse) / sparse.size
        assert rep.bandwidth_utilization == pytest.approx(density, abs=0.02)
