"""The array merge and burst count agree with the per-segment loops.

``traffic_report`` merges each format's trace with array operations
(:func:`repro.formats.merge_contiguous`) and counts bursts over the
merged arrays.  Every registered format, in both orientations, at
several burst sizes and block sizes, must give the numbers the old
per-segment loops (:mod:`tests.formats.trace_oracle`) give on
``list(enc.trace(orientation))``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tbs_sparsify
from repro.formats import (
    ORIENTATIONS,
    EncodedMatrix,
    EncodeSpec,
    Segment,
    Trace,
    available_formats,
    get_format,
    merge_contiguous,
    traffic_report,
)
from repro.formats.memory_model import _MERGE_WINDOW

from .trace_oracle import burst_count_loop, merge_contiguous_loop, merge_with_window_loop


def _matrix(seed, rows, cols, density):
    rng = np.random.default_rng(seed)
    keep = rng.random((rows, cols)) < density
    return np.where(keep, rng.normal(size=(rows, cols)) + 3.0, 0.0)


def _assert_matches_oracle(enc, orientation, burst_bytes, m):
    window = _MERGE_WINDOW[enc.format_name]
    segments = list(enc.trace(orientation))
    merged = merge_with_window_loop(segments, window)
    num_bursts, fetched = burst_count_loop(merged, burst_bytes)
    assert merge_contiguous(enc.trace(orientation), window) == merged
    rep = traffic_report(enc, burst_bytes=burst_bytes, m=m, orientation=orientation)
    assert (rep.fetched_bytes, rep.num_bursts, rep.num_segments) == (
        fetched,
        num_bursts,
        len(merged),
    )


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(available_formats()),
    orientation=st.sampled_from(ORIENTATIONS),
    burst_bytes=st.sampled_from([1, 7, 32, 64]),
    m=st.sampled_from([4, 8]),
    rows=st.integers(0, 37),
    cols=st.integers(0, 37),
    density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_traffic_report_matches_oracle(
    name, orientation, burst_bytes, m, rows, cols, density, seed
):
    values = _matrix(seed, rows, cols, density)
    enc = get_format(name).encode(values, EncodeSpec(block_size=m))
    _assert_matches_oracle(enc, orientation, burst_bytes, m)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["ddc", "bcsrcoo"]),
    orientation=st.sampled_from(ORIENTATIONS),
    burst_bytes=st.sampled_from([1, 7, 32, 64]),
    m=st.sampled_from([4, 8]),
    block_rows=st.integers(1, 5),
    block_cols=st.integers(1, 5),
    sparsity=st.sampled_from([0.5, 0.75]),
    seed=st.integers(0, 2**31 - 1),
)
def test_tbs_encodings_match_oracle(
    name, orientation, burst_bytes, m, block_rows, block_cols, sparsity, seed
):
    """DDC and BCSR-COO built from TBS metadata, not inferred patterns."""
    weights = np.random.default_rng(seed).normal(size=(block_rows * m, block_cols * m))
    res = tbs_sparsify(weights, m=m, sparsity=sparsity)
    sparse = np.where(res.mask, weights, 0.0)
    enc = get_format(name).encode(sparse, EncodeSpec(tbs=res, block_size=m))
    _assert_matches_oracle(enc, orientation, burst_bytes, m)


def _hand_built(format_name, segments):
    """An EncodedMatrix of ``format_name`` carrying exactly ``segments``."""
    nbytes = sum(seg.nbytes for seg in segments)
    return EncodedMatrix(
        format_name=format_name,
        shape=(8, 8),
        nnz=nbytes // 2,
        value_bytes=nbytes,
        index_bytes=0,
        meta_bytes=0,
        segments=Trace.of(segments),
    )


@settings(max_examples=200, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(st.booleans(), st.integers(0, 160), st.integers(0, 12)), max_size=60
    ),
    name=st.sampled_from(sorted(_MERGE_WINDOW)),
    window=st.sampled_from([None, 1, 2, 3, 8]),
    burst_bytes=st.sampled_from([1, 7, 32, 64]),
)
def test_synthetic_traces_match_oracle(pieces, name, window, burst_bytes):
    """Arbitrary traces: contiguous runs, jumps, re-reads and empty reads."""
    segments = []
    addr = 0
    for contiguous, jump, nbytes in pieces:
        if not contiguous:
            addr = jump
        segments.append(Segment(addr, nbytes))
        addr += nbytes
    assert merge_contiguous(Trace.of(segments), window) == merge_with_window_loop(
        segments, window
    )
    _assert_matches_oracle(_hand_built(name, segments), "forward", burst_bytes, 8)


class TestHandCases:
    def test_zero_length_segment_inside_a_chain(self):
        segments = [Segment(0, 8), Segment(8, 0), Segment(8, 8), Segment(16, 4)]
        assert merge_contiguous(segments) == [Segment(0, 20)]
        assert merge_contiguous(segments) == merge_contiguous_loop(segments)
        # The empty read still counts toward the window.
        assert merge_contiguous(segments, window=2) == [Segment(0, 8), Segment(8, 12)]
        assert merge_contiguous(segments, window=2) == merge_with_window_loop(segments, 2)

    def test_unaligned_empty_read_fetches_nothing(self):
        enc = _hand_built("csr", [Segment(0, 8), Segment(13, 0), Segment(40, 8)])
        rep = traffic_report(enc, burst_bytes=32)
        assert (rep.num_segments, rep.num_bursts, rep.fetched_bytes) == (3, 2, 64)

    def test_seventeen_contiguous_segments_under_window_eight(self):
        segments = [Segment(4 * i, 4) for i in range(17)]
        merged = merge_contiguous(segments, window=8)
        assert merged == [Segment(0, 32), Segment(32, 32), Segment(64, 4)]
        assert merged == merge_with_window_loop(segments, 8)
        # DDC's consumer fuses at most 8 payload runs (_MERGE_WINDOW).
        rep = traffic_report(_hand_built("ddc", segments), burst_bytes=32)
        assert (rep.num_segments, rep.num_bursts, rep.fetched_bytes) == (3, 3, 96)
