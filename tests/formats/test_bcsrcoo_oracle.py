"""The vectorized BCSR-COO encode agrees with the per-block loop.

``BCSRCOOFormat._encode`` derives its block tables from one block view
of the matrix.  Over random shapes (zero-size and ragged edges
included), both block sizes, densities from empty to full, whole blocks
forced empty or full, and a few signed zeros and NaNs, every array, byte
count and both traces must equal those of the loop it replaced
(:mod:`tests.formats.bcsrcoo_oracle`).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import block_grid_shape
from repro.formats import BCSRCOOFormat, EncodeSpec

from .bcsrcoo_oracle import encode_loop, transposed_trace_loop

_ARRAYS = ("row_ptr", "row_idx", "col_idx", "block_ptr", "t_order", "bitmaps", "values", "m")


def _matrix(seed, rows, cols, m, density, signed_zeros, nans):
    rng = np.random.default_rng(seed)
    keep = rng.random((rows, cols)) < density
    # Force whole blocks empty (kind 1) or full (kind 2) at any density.
    kind = rng.integers(0, 3, size=block_grid_shape(rows, cols, m))
    kind = np.repeat(np.repeat(kind, m, axis=0), m, axis=1)[:rows, :cols]
    keep = np.where(kind == 0, keep, kind == 2)
    dense = np.where(keep, rng.normal(size=(rows, cols)) + 3.0, 0.0)
    # -0.0 is not a stored non-zero; NaN is.
    if dense.size:
        for value, count in ((-0.0, signed_zeros), (np.nan, nans)):
            dense[rng.integers(rows, size=count), rng.integers(cols, size=count)] = value
    return dense


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(0, 37),
    cols=st.integers(0, 37),
    m=st.sampled_from([4, 8]),
    density=st.floats(0.0, 1.0),
    signed_zeros=st.integers(0, 3),
    nans=st.integers(0, 3),
)
def test_encode_matches_per_block_loop(seed, rows, cols, m, density, signed_zeros, nans):
    dense = _matrix(seed, rows, cols, m, density, signed_zeros, nans)
    enc = BCSRCOOFormat().encode(dense, EncodeSpec(block_size=m))
    ref = encode_loop(dense, m)
    assert sorted(enc.arrays) == sorted(_ARRAYS)
    for key in _ARRAYS:
        assert enc.arrays[key].dtype == ref.arrays[key].dtype, key
        assert enc.arrays[key].shape == ref.arrays[key].shape, key
        np.testing.assert_array_equal(enc.arrays[key], ref.arrays[key], err_msg=key)
    assert (enc.nnz, enc.value_bytes, enc.index_bytes, enc.meta_bytes) == (
        ref.nnz,
        ref.value_bytes,
        ref.index_bytes,
        ref.meta_bytes,
    )
    assert enc.trace("forward") == ref.segments
    assert enc.trace("transposed") == transposed_trace_loop(ref)
