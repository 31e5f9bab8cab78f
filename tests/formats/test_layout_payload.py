"""Layout first, payload on demand: equal to the eager encode, field for field.

Every registered format builds its layout (``nnz``, the three byte
counts, both traces and the block tables they walk) from the occupancy
alone, and gathers its payload the first time ``EncodedMatrix.arrays``
is read.  The oracle is the eager one-pass encode each format had before
the split (``tests/formats/eager_encode_oracle.py``).  Across every
format x orientation x mask source -- TBS with its ``TBSResult``, TS
4:8, US and a random mask -- on ragged shapes, with empty rows and
blocks, the all-zero matrix, and -0.0 and exact zeros both under and
outside the mask:

* before any ``arrays`` read, the layout equals the oracle's and the
  payload is still pending (tracing either orientation gathers nothing);
* after the first read, every array equals the oracle's in key order,
  dtype, shape and bytes, and ``decode``/``decode_transposed`` round-trip.

The input is given both ways callers give it: as the masked matrix with
no mask, and as the raw values plus ``EncodeSpec(mask=...)``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tbs_sparsify
from repro.core.masks import make_mask
from repro.core.patterns import PatternFamily, PatternSpec
from repro.formats import ORIENTATIONS, EncodeSpec, SDCFormat, available_formats, get_format

from .eager_encode_oracle import eager_encode

SOURCES = ("tbs", "ts48", "us", "random")


def _formats(m):
    """Every registered format, plus the simulator's row-group SDC."""
    return [get_format(name) for name in available_formats()] + [SDCFormat(group_rows=m)]


def _case(seed, rows, cols, m, source, density, empty_rows, empty_block, all_zero, zeros):
    """``(values, mask, tbs)`` for one drawn case."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols))
    tbs = None
    if source == "tbs":
        tbs = tbs_sparsify(values, m=m, sparsity=1.0 - density)
        mask = tbs.mask
    elif source == "ts48":
        mask = make_mask(values, PatternSpec(PatternFamily.TS, m=m, sparsity=0.5))
    elif source == "us":
        mask = make_mask(values, PatternSpec(PatternFamily.US, m=m, sparsity=1.0 - density))
    else:
        mask = rng.random((rows, cols)) < density
    if tbs is None:
        # TBS metadata must describe the mask it comes with, so only the
        # other sources lose rows and whole blocks.
        mask[rng.random(rows) < empty_rows] = False
        if empty_block:
            mask[:m, :m] = False
    if all_zero:
        values[:] = 0.0
    # Exact zeros and -0.0 anywhere, kept positions included: neither is
    # a stored element, and -0.0 must keep its sign wherever a payload
    # carries the masked matrix whole.
    pick = rng.random((rows, cols))
    values[pick < zeros] = 0.0
    values[(pick >= zeros) & (pick < 2 * zeros)] = -0.0
    return values, mask, tbs


def _assert_layout_equal(enc, ref):
    assert enc.format_name == ref.format_name
    assert enc.shape == ref.shape
    assert (enc.nnz, enc.value_bytes, enc.index_bytes, enc.meta_bytes) == (
        ref.nnz,
        ref.value_bytes,
        ref.index_bytes,
        ref.meta_bytes,
    )
    assert (enc.orientation, enc.block_size) == (ref.orientation, ref.block_size)
    for orientation in ORIENTATIONS:
        assert enc.trace(orientation) == ref.trace(orientation), orientation
    assert enc.trace() == ref.trace()


def _assert_arrays_identical(enc, ref):
    assert list(enc.arrays) == list(ref.arrays)
    for key, want in ref.arrays.items():
        got = enc.arrays[key]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), key
        assert got.tobytes() == want.tobytes(), key


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    m=st.sampled_from([4, 8]),
    source=st.sampled_from(SOURCES),
    density=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    empty_rows=st.sampled_from([0.0, 0.3]),
    empty_block=st.booleans(),
    all_zero=st.booleans(),
    zeros=st.sampled_from([0.0, 0.1]),
    orientation=st.sampled_from(ORIENTATIONS),
    pre_masked=st.booleans(),
)
def test_layout_then_payload_match_the_eager_encode(
    seed, rows, cols, m, source, density, empty_rows, empty_block, all_zero, zeros,
    orientation, pre_masked,
):
    values, mask, tbs = _case(
        seed, rows, cols, m, source, density, empty_rows, empty_block, all_zero, zeros
    )
    expected = np.where(mask, values, 0.0)
    if pre_masked:
        given_values, spec = expected, EncodeSpec(tbs=tbs, block_size=m, orientation=orientation)
    else:
        given_values = values
        spec = EncodeSpec(mask=mask, tbs=tbs, block_size=m, orientation=orientation)
    for fmt in _formats(m):
        enc = fmt.encode(given_values, spec)
        ref = eager_encode(fmt, given_values, spec)
        _assert_layout_equal(enc, ref)
        assert enc._pending is not None, f"{fmt.name}: layout reads gathered the payload"

        _assert_arrays_identical(enc, ref)
        assert enc._pending is None
        assert np.array_equal(fmt.decode(enc), expected), fmt.name
        assert np.array_equal(fmt.decode_transposed(enc), expected.T), fmt.name


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), sparsity=st.sampled_from([0.5, 0.75, 0.875]))
def test_values_with_mask_equal_the_masked_matrix(seed, sparsity):
    """``encode(values, mask=M)`` and ``encode(values * M)`` share a layout.

    ``values * M`` leaves -0.0 where a negative value is masked out; no
    stored element sits there, so every layout field agrees and both
    decode to the same matrix.
    """
    values = np.random.default_rng(seed).normal(size=(24, 40))
    tbs = tbs_sparsify(values, m=8, sparsity=sparsity)
    for fmt in _formats(8):
        with_mask = fmt.encode(values, EncodeSpec(mask=tbs.mask, tbs=tbs))
        product = fmt.encode(values * tbs.mask, EncodeSpec(tbs=tbs))
        _assert_layout_equal(with_mask, product)
        assert np.array_equal(fmt.decode(with_mask), fmt.decode(product))


def test_all_zero_matrix_stores_nothing():
    for fmt in _formats(8):
        for values in (np.zeros((13, 21)), np.full((13, 21), -0.0)):
            enc = fmt.encode(values)
            ref = eager_encode(fmt, values)
            _assert_layout_equal(enc, ref)
            assert enc.nnz == 0
            _assert_arrays_identical(enc, ref)
            assert np.array_equal(fmt.decode(enc), np.zeros((13, 21)))
