"""Tests for the BCSR-COO hybrid format and its single-encode contract."""

import numpy as np

from repro.core import tbs_sparsify
from repro.formats import BCSRCOOFormat, CSRFormat, EncodeSpec
from repro.formats.bcsrcoo import BCSRCOO_BLOCK_META_BYTES


def _tbs_case(shape=(64, 64), sparsity=0.75, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape)
    w[w == 0] = 1.0
    res = tbs_sparsify(w, m=8, sparsity=sparsity)
    return np.where(res.mask, w, 0.0), res


class TestLayout:
    def test_meta_bytes_formula(self):
        sparse, res = _tbs_case()
        enc = BCSRCOOFormat().encode(sparse, EncodeSpec(tbs=res))
        n_block_rows = 64 // 8
        n_blocks = len(enc.arrays["row_idx"])
        assert enc.meta_bytes == (n_block_rows + 1) * 4 + n_blocks * BCSRCOO_BLOCK_META_BYTES

    def test_t_order_is_col_major_permutation(self):
        sparse, res = _tbs_case(seed=1)
        enc = BCSRCOOFormat().encode(sparse, EncodeSpec(tbs=res))
        t_order = enc.arrays["t_order"]
        n_blocks = len(enc.arrays["row_idx"])
        assert sorted(t_order.tolist()) == list(range(n_blocks))
        keys = [
            (int(enc.arrays["col_idx"][i]), int(enc.arrays["row_idx"][i]))
            for i in t_order
        ]
        assert keys == sorted(keys)

    def test_row_ptr_is_block_csr(self):
        sparse, res = _tbs_case(seed=2)
        enc = BCSRCOOFormat().encode(sparse, EncodeSpec(tbs=res))
        row_ptr = enc.arrays["row_ptr"]
        assert (np.diff(row_ptr) >= 0).all()
        assert int(row_ptr[-1]) == len(enc.arrays["row_idx"])

    def test_empty_blocks_are_not_stored(self):
        sparse = np.zeros((32, 32))
        sparse[0, 0] = 1.0  # exactly one non-empty tile
        enc = BCSRCOOFormat().encode(sparse)
        assert len(enc.arrays["row_idx"]) == 1
        assert enc.nnz == 1


class TestSingleEncodeBothOrientations:
    def test_transposed_path_never_re_encodes(self, monkeypatch):
        """The tentpole contract: one encode serves both passes."""
        sparse, res = _tbs_case()
        fmt = BCSRCOOFormat()
        enc = fmt.encode(sparse, EncodeSpec(tbs=res))
        expected_t = fmt.decode(enc).T

        def boom(self, *args):
            raise AssertionError("transposed path re-encoded the matrix")

        monkeypatch.setattr(BCSRCOOFormat, "_layout", boom)
        monkeypatch.setattr(BCSRCOOFormat, "_gather", boom)
        assert enc.trace("transposed")  # derived, not re-encoded
        assert enc.traced_bytes_for("transposed") > 0
        assert np.array_equal(fmt.decode_transposed(enc), expected_t)

    def test_transposed_trace_is_cached(self):
        sparse, res = _tbs_case(seed=3)
        enc = BCSRCOOFormat().encode(sparse, EncodeSpec(tbs=res))
        first = enc.trace("transposed")
        assert enc.trace("transposed") is first

    def test_same_bytes_both_orientations(self):
        """BCSR-COO walks the same blocks either way: equal traffic."""
        sparse, res = _tbs_case(seed=4)
        enc = BCSRCOOFormat().encode(sparse, EncodeSpec(tbs=res))
        assert enc.traced_bytes_for("transposed") == enc.traced_bytes_for("forward")

    def test_beats_csr_on_the_backward_pass(self):
        """Fig. 7 backward-pass analogue at the paper's 75% sparsity."""
        sparse, res = _tbs_case(sparsity=0.75)
        bcsrcoo = BCSRCOOFormat().encode(sparse, EncodeSpec(tbs=res))
        csr = CSRFormat().encode(sparse)
        assert (
            bcsrcoo.traced_bytes_for("transposed")
            < csr.traced_bytes_for("transposed")
        )


class TestDecode:
    def test_ragged_shape(self):
        sparse, res = _tbs_case(shape=(30, 44), seed=5)
        fmt = BCSRCOOFormat()
        enc = fmt.encode(sparse, EncodeSpec(tbs=res))
        np.testing.assert_array_equal(fmt.decode(enc), sparse)
        np.testing.assert_array_equal(fmt.decode_transposed(enc), sparse.T)

    def test_without_tbs_metadata(self):
        """TBS metadata is optional: tiling falls back to block_size."""
        rng = np.random.default_rng(6)
        sparse = rng.normal(size=(16, 16)) * (rng.random((16, 16)) < 0.4)
        fmt = BCSRCOOFormat()
        enc = fmt.encode(sparse)
        np.testing.assert_array_equal(fmt.decode(enc), sparse)

    def test_compression_beats_dense_on_sparse(self):
        sparse, res = _tbs_case(sparsity=0.75, seed=7)
        enc = BCSRCOOFormat().encode(sparse, EncodeSpec(tbs=res))
        assert enc.total_bytes < sparse.size * 2
