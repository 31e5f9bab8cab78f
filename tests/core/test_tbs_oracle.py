"""Algorithm 1 with popcounts and tied-only mass equals the strided-view body.

``tbs_sparsify`` counts each block's density and L1 distances from
packed masks, and sums the direction tie-break's score mass only for
blocks whose two distances tie.  Its mask, per-block N and per-block
direction must equal :func:`tests.core.sparsify_oracle.tbs_sparsify_full`
(``np.count_nonzero`` over strided views, the mass of every block),
and the masses it sums must carry the very bits the full-matrix sums
give those blocks (through ``float.hex``), not only the same
directions.  Cases cover M in {2, 4, 8, 16, 32}, ragged shapes, C,
Fortran and transposed-view scores, integer-valued scores (which tie
the masses as well as the distances), NaN, +-inf and +-0.0 scores, and
empty, full and random caller-supplied unstructured masks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import split_into_blocks
from repro.core.sparsify import _directional_masks, _tied_mass, tbs_sparsify

from .sparsify_oracle import direction_terms, tbs_sparsify_full

_LAYOUTS = {
    "c": lambda w: w,
    "fortran": np.asfortranarray,
    "transposed_view": lambda w: w.T.copy().T,
}
_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _scores(rng, shape, kind):
    if kind == "integer":
        return rng.integers(-3, 4, size=shape).astype(np.float64)
    x = rng.normal(size=shape)
    if kind == "special" and x.size:
        flat = x.reshape(-1)
        k = max(1, flat.size // 10)
        flat[rng.integers(flat.size, size=k)] = rng.choice(_SPECIALS, size=k)
    return x


def _us_mask(rng, shape, kind):
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "full":
        return np.ones(shape, dtype=bool)
    if kind == "random":
        return rng.random(shape) < rng.random()
    return None


_CASES = dict(
    seed=st.integers(0, 2**31 - 1),
    m=st.sampled_from([2, 4, 8, 16, 32]),
    block_rows=st.integers(1, 4),
    block_cols=st.integers(1, 4),
    trim_rows=st.integers(0, 31),
    trim_cols=st.integers(0, 31),
    layout=st.sampled_from(sorted(_LAYOUTS)),
    kind=st.sampled_from(["normal", "integer", "special"]),
    sparsity=st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.875, 1.0]),
    us=st.sampled_from(["top_k", "empty", "full", "random"]),
)


def _case(seed, m, block_rows, block_cols, trim_rows, trim_cols, layout, kind, us):
    rng = np.random.default_rng(seed)
    shape = (block_rows * m - trim_rows % m, block_cols * m - trim_cols % m)
    scores = _LAYOUTS[layout](_scores(rng, shape, kind))
    return scores, _us_mask(rng, shape, us)


@settings(max_examples=300, deadline=None)
@given(**_CASES)
def test_tbs_matches_the_strided_view_body(
    seed, m, block_rows, block_cols, trim_rows, trim_cols, layout, kind, sparsity, us
):
    scores, us_mask = _case(seed, m, block_rows, block_cols, trim_rows, trim_cols, layout, kind, us)
    got = tbs_sparsify(scores, m=m, sparsity=sparsity, us_mask=us_mask)
    ref = tbs_sparsify_full(scores, m=m, sparsity=sparsity, us_mask=us_mask)
    for name in ("mask", "block_n", "block_direction"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got.mask.strides == ref.mask.strides


@settings(max_examples=300, deadline=None)
@given(**_CASES)
def test_tied_masses_carry_the_full_sum_bits(
    seed, m, block_rows, block_cols, trim_rows, trim_cols, layout, kind, sparsity, us
):
    scores, us_mask = _case(seed, m, block_rows, block_cols, trim_rows, trim_cols, layout, kind, us)
    dist_row, dist_col, mass_row, mass_col = direction_terms(
        scores, m, sparsity, us_mask=us_mask
    )
    tied = dist_row == dist_col
    magnitudes = np.abs(np.asarray(scores, dtype=np.float64), order="C")
    block_n = tbs_sparsify(scores, m=m, sparsity=sparsity, us_mask=us_mask).block_n
    row_masks, col_masks = _directional_masks(scores, magnitudes, block_n, m)
    got_row, got_col = _tied_mass(split_into_blocks(magnitudes, m), row_masks, col_masks, tied)
    assert [x.hex() for x in got_row.tolist()] == [x.hex() for x in mass_row[tied].tolist()]
    assert [x.hex() for x in got_col.tolist()] == [x.hex() for x in mass_col[tied].tolist()]


def test_integer_scores_tie_masses_and_keep_row():
    """Integer-valued scores tie both the distances and the masses, so
    the ROW fallback is exercised; the result still equals the oracle."""
    rng = np.random.default_rng(3)
    scores = rng.integers(-2, 3, size=(64, 64)).astype(np.float64)
    dist_row, dist_col, mass_row, mass_col = direction_terms(scores, 4, 0.5)
    tied = dist_row == dist_col
    assert (tied & (mass_row == mass_col)).any()
    assert (tied & (mass_row != mass_col)).any()
    got = tbs_sparsify(scores, m=4, sparsity=0.5)
    ref = tbs_sparsify_full(scores, m=4, sparsity=0.5)
    assert np.array_equal(got.block_direction, ref.block_direction)
    assert np.array_equal(got.mask, ref.mask)
