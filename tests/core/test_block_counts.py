"""Block counts from the packed mask equal sums over strided block views.

``repro.core.blocks`` counts every block row segment as machine words
of the packed bool mask (``count_trailing``, ``block_row_counts``,
``block_nnz``).  Over every block size from 1 to 32 (word-divisible or
not), ragged and empty shapes, C, Fortran and transposed-view layouts,
bool and numeric masks, and empty, random and full fills, the counts
must equal the int64 split-and-sum they replaced, which
``tests/sim/engine_oracle.block_segments_sum`` keeps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import block_nnz, block_row_counts, count_trailing, split_into_blocks

_LAYOUTS = {
    "c": lambda a: a,
    "fortran": np.asfortranarray,
    "transposed_view": lambda a: a.T.copy().T,
}


def _mask(rng, shape, fill, dtype, layout):
    mask = rng.random(shape) < fill
    if dtype is not bool:
        # Any non-zero counts, as np.asarray(mask, dtype=bool) reads it.
        mask = np.where(mask, rng.choice([-2.0, 1.0, 0.5, np.nan], size=shape), 0.0).astype(dtype)
    return _LAYOUTS[layout](mask)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 16, 32]),
    rows=st.integers(0, 70),
    cols=st.integers(0, 70),
    fill=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    dtype=st.sampled_from([bool, np.int64, np.float64]),
    layout=st.sampled_from(sorted(_LAYOUTS)),
)
def test_block_counts_match_split_and_sum(seed, m, rows, cols, fill, dtype, layout):
    mask = _mask(np.random.default_rng(seed), (rows, cols), fill, dtype, layout)
    ref = split_into_blocks(np.asarray(mask, dtype=bool).astype(np.int64), m).sum(axis=3)
    got = block_row_counts(mask, m)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert got.dtype == np.min_scalar_type(m)
    nnz = block_nnz(mask, m)
    assert nnz.dtype == np.int64
    assert np.array_equal(nnz, ref.sum(axis=2))
    # Column segments are the row segments of the transpose.
    cols_ref = split_into_blocks(np.asarray(mask, dtype=bool).astype(np.int64), m).sum(axis=2)
    assert np.array_equal(block_row_counts(mask.T, m).swapaxes(0, 1), cols_ref)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    ndim=st.integers(1, 4),
    fill=st.sampled_from([0.0, 0.5, 1.0]),
    strided=st.booleans(),
)
def test_count_trailing_matches_count_nonzero(seed, shape, ndim, fill, strided):
    """Any run length (word-divisible or not), any layout."""
    ndim = min(ndim, len(shape))
    rng = np.random.default_rng(seed)
    flags = rng.random(shape) < fill
    if strided and shape[-1]:
        flags = np.repeat(flags, 2, axis=-1)[..., ::2]
    axes = tuple(range(len(shape) - ndim, len(shape)))
    got = count_trailing(flags, ndim)
    assert got.shape == flags.shape[: len(shape) - ndim]
    assert np.array_equal(got, np.count_nonzero(flags, axis=axes))


def test_full_blocks_fit_the_count_dtype():
    """A full 32 x 32 block holds 1024: wider than a byte."""
    ones = np.ones((64, 96), dtype=bool)
    counts = count_trailing(np.ascontiguousarray(split_into_blocks(ones, 32)), 2)
    assert counts.dtype == np.uint16 and (counts == 1024).all()
    assert (block_nnz(ones, 32) == 1024).all()
    assert (block_row_counts(ones, 32) == 32).all()

