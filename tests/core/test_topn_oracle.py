"""Counted top-N ranks agree with the stable-argsort oracle.

``topn_along_last`` ranks each group by counting instead of sorting.
Over 1-3 leading dims (empty ones included), every group width the repo
uses and a few it does not, scalar and per-group N in the shapes the
TBS, VEGETA and HighLight generators pass, tie-heavy integer grids,
signed zeros, infinities, NaN and non-contiguous views, the mask must
equal :func:`tests.core.topn_oracle.topn_argsort` in value, dtype, shape
and C-contiguity.  Every generator reads its ranks from the one rank
count, ``repro.core.masks._count_ranks``, and must give the same masks
with the sort's ranks (:func:`tests.core.topn_oracle.ranks_argsort`)
swapped in there.  The pairwise count itself must equal the M^2-compare
loop it replaced (:func:`tests.core.topn_oracle.ranks_count_loop`) in
value, dtype and layout, up to M = 300.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.masks as masks_mod
from repro.core.masks import highlight_mask, tile_mask, topn_along_last, vegeta_mask
from repro.core.patterns import NMConfig, nearest_candidates_grid
from repro.core.sparsify import tbs_sparsify

from .topn_oracle import nearest_candidate, ranks_argsort, ranks_count_loop, topn_argsort

_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _values(rng, shape, ties, specials):
    """Normal or tie-heavy integer scores with special values sprinkled in."""
    x = rng.integers(-2, 3, size=shape).astype(np.float64) if ties else rng.normal(size=shape)
    flat = x.reshape(-1)
    if flat.size and specials:
        flat[rng.integers(flat.size, size=specials)] = rng.choice(_SPECIALS, size=specials)
    return x


def _view(rng, shape, layout, ties, specials):
    """Scores of logical ``shape`` laid out C, Fortran, swapped or strided."""
    if layout == "fortran":
        return np.asfortranarray(_values(rng, shape, ties, specials))
    if layout == "swapped" and len(shape) >= 2:
        # The column pass of TBS: the group axis is the second-to-last
        # axis of the underlying array.
        base = _values(rng, shape[:-2] + (shape[-1], shape[-2]), ties, specials)
        return np.swapaxes(base, -1, -2)
    if layout == "strided":
        base = _values(rng, shape[:-1] + (2 * shape[-1],), ties, specials)
        return base[..., ::-2]
    return _values(rng, shape, ties, specials)


def _n(rng, lead, m, kind):
    if kind == "scalar":
        return int(rng.integers(0, m + 1))
    if kind == "numpy_scalar":
        return np.int64(rng.integers(0, m + 1))
    if kind == "per_group":
        return rng.integers(0, m + 1, size=lead)
    # One N per row of groups, broadcast along the last leading axis: the
    # (rows, 1) of VEGETA/HighLight and the (n_br, n_bc, 1) of TBS.
    return rng.integers(0, m + 1, size=lead[:-1] + (1,))


def _assert_same(scores, n):
    got = topn_along_last(scores, n)
    want = topn_argsort(scores, n)
    assert got.dtype == np.bool_
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    lead=st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
    m=st.sampled_from([0, 1, 2, 3, 4, 5, 8, 16, 32]),
    layout=st.sampled_from(["c", "fortran", "swapped", "strided"]),
    ties=st.booleans(),
    specials=st.integers(0, 6),
    n_kind=st.sampled_from(["scalar", "numpy_scalar", "per_group", "per_row"]),
)
def test_counted_ranks_match_argsort(seed, lead, m, layout, ties, specials, n_kind):
    rng = np.random.default_rng(seed)
    scores = _view(rng, lead + (m,), layout, ties, specials)
    _assert_same(scores, _n(rng, lead, m, n_kind))


def _assert_same_ranks(groups):
    got = masks_mod._count_ranks(groups)
    want = ranks_count_loop(groups)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    lead=st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
    m=st.sampled_from([0, 1, 2, 3, 4, 5, 8, 16, 32]),
    layout=st.sampled_from(["c", "fortran", "swapped", "strided"]),
    ties=st.booleans(),
    specials=st.integers(0, 6),
)
def test_pairwise_ranks_match_the_m2_loop(seed, lead, m, layout, ties, specials):
    """Groups along axis 0, in every layout the generators pass."""
    rng = np.random.default_rng(seed)
    _assert_same_ranks(np.moveaxis(_view(rng, lead + (m,), layout, ties, specials), -1, 0))


@pytest.mark.parametrize("m", [255, 256, 300])
def test_pairwise_ranks_in_wide_groups(m):
    """The ranks reach M - 1 in the smallest dtype that holds M."""
    rng = np.random.default_rng(m)
    _assert_same_ranks(_values(rng, (m, 3), ties=True, specials=4))
    _assert_same_ranks(np.arange(m, dtype=np.float64)[:, None])


@pytest.mark.parametrize("m", [255, 256, 300])
def test_rank_dtype_holds_wide_groups(m):
    rng = np.random.default_rng(m)
    scores = _values(rng, (3, m), ties=True, specials=4)
    for n in (0, 1, m // 2, m - 1, m):
        _assert_same(scores, n)
    _assert_same(scores, np.array([[m], [m - 1], [0]]))


def test_special_values_rank_like_a_stable_sort():
    scores = np.array([[np.nan, 1.0, -np.inf, -0.0, 0.0, np.inf, -1.0, np.nan]])
    # |.|: inf (2) and inf (5) first, then 1.0 (1) and 1.0 (6), then the
    # zeros (3, 4), NaN (0, 7) last; ties by index.
    ranks = [6, 2, 0, 4, 5, 1, 3, 7]
    for n in range(9):
        np.testing.assert_array_equal(topn_along_last(scores, n)[0], np.array(ranks) < n)
        _assert_same(scores, n)


@pytest.mark.parametrize("n", [-1, 5, np.array([[0], [5]]), np.array([-1, 2])])
def test_out_of_range_n_rejected(n):
    with pytest.raises(ValueError):
        topn_along_last(np.ones((2, 4)), n)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 20),
    cols=st.integers(1, 40),
    m=st.sampled_from([4, 8]),
    sparsity=st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.9, 1.0]),
    ties=st.booleans(),
)
def test_generators_unchanged_with_the_oracle(seed, rows, cols, m, sparsity, ties):
    """TS, RS-V, RS-H and TBS give the same masks on the argsort ranks.

    Ragged column counts pad groups with -inf, which ranks first once
    ``|.|`` makes it +inf; the counted ranks must reproduce that too.
    """
    scores = _values(np.random.default_rng(seed), (rows, cols), ties, specials=0)

    def masks():
        tbs = tbs_sparsify(scores, m=m, sparsity=sparsity)
        return (
            tile_mask(scores, NMConfig(m // 2, m)),
            vegeta_mask(scores, m=m, sparsity=sparsity),
            highlight_mask(scores, m=m, sparsity=sparsity),
            tbs.mask,
            tbs.block_n,
            tbs.block_direction,
        )

    got = masks()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(masks_mod, "_count_ranks", ranks_argsort)
        want = masks()
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(
    densities=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.integers(0, 32).map(lambda k: k / 32)),
        min_size=0,
        max_size=20,
    ),
    m=st.sampled_from([4, 8, 16]),
    candidates=st.sampled_from([None, (0, 4, 8), (8, 0, 2, 2)]),
)
def test_vegeta_row_choice_matches_scalar_rule(densities, m, candidates):
    """VEGETA's per-row N comes from the grid form of the scalar rule."""
    cands = candidates or tuple(range(m + 1))
    want = [nearest_candidate(d, m, cands) for d in densities]
    assert nearest_candidates_grid(np.array(densities, dtype=np.float64), m, cands).tolist() == want
