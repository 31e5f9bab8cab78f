"""Property suite: every registered format, both consumption orientations.

These are the orientation axis's structural guarantees, checked across
the whole registry so a new format cannot ship without them:

* encode -> decode is bit-exact;
* ``decode_transposed`` equals ``decode(...).T`` (however the format
  implements its transposed path natively);
* each orientation's trace moves at least the payload bytes (no format
  can claim to consume the matrix while fetching less than its values);
* both traces stay within the declared footprint and never partially
  overlap (:mod:`repro.formats.validate`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tbs_sparsify
from repro.formats import (
    ORIENTATIONS,
    VALUE_BYTES,
    EncodeSpec,
    available_formats,
    get_format,
    validate_trace,
)

#: Formats whose encoder consumes the TBS metadata directly.
_TBS_AWARE = ("ddc", "bcsrcoo")


def _tbs_case(seed, shape=(32, 40), sparsity=0.75):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape)
    w[w == 0] = 1.0
    res = tbs_sparsify(w, m=8, sparsity=sparsity)
    return np.where(res.mask, w, 0.0), res


def _encode(name, sparse, res):
    fmt = get_format(name)
    return fmt, fmt.encode(sparse, EncodeSpec(tbs=res if name in _TBS_AWARE else None))


@pytest.mark.parametrize("name", available_formats())
class TestFormatProperties:
    @given(seed=st.integers(0, 100), sparsity=st.sampled_from([0.5, 0.75, 0.875]))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_exact(self, name, seed, sparsity):
        sparse, res = _tbs_case(seed, sparsity=sparsity)
        fmt, enc = _encode(name, sparse, res)
        assert np.array_equal(fmt.decode(enc), sparse)

    @given(seed=st.integers(0, 100), sparsity=st.sampled_from([0.5, 0.75, 0.875]))
    @settings(max_examples=15, deadline=None)
    def test_transposed_decode_matches_decode_T(self, name, seed, sparsity):
        sparse, res = _tbs_case(seed, sparsity=sparsity)
        fmt, enc = _encode(name, sparse, res)
        assert np.array_equal(fmt.decode_transposed(enc), fmt.decode(enc).T)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_traced_bytes_cover_payload(self, name, seed):
        sparse, res = _tbs_case(seed)
        _, enc = _encode(name, sparse, res)
        for orientation in ORIENTATIONS:
            assert enc.traced_bytes_for(orientation) >= enc.nnz * VALUE_BYTES, orientation

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_both_traces_validate(self, name, seed):
        sparse, res = _tbs_case(seed)
        _, enc = _encode(name, sparse, res)
        validate_trace(enc)  # checks both orientations

    def test_empty_matrix_serves_both_orientations(self, name):
        fmt = get_format(name)
        enc = fmt.encode(np.zeros((16, 16)))
        for orientation in ORIENTATIONS:
            assert enc.traced_bytes_for(orientation) >= 0
        assert np.array_equal(fmt.decode_transposed(enc), np.zeros((16, 16)))

    def test_ragged_shape_transposed(self, name):
        """Shapes that divide the block size in neither dimension."""
        sparse, res = _tbs_case(seed=3, shape=(30, 44))
        fmt, enc = _encode(name, sparse, res)
        assert np.array_equal(fmt.decode_transposed(enc), sparse.T)
        validate_trace(enc)
