"""Contract of the array-backed access trace (:class:`repro.formats.Trace`)."""

import numpy as np
import pytest

from repro.core import tbs_sparsify
from repro.formats import (
    ORIENTATIONS,
    EncodeSpec,
    Segment,
    Trace,
    available_formats,
    get_format,
    merge_contiguous,
)

#: Formats whose encoder consumes the TBS metadata directly.
_TBS_AWARE = ("ddc", "bcsrcoo")


def _segment_error(addr, nbytes):
    with pytest.raises(ValueError) as info:
        Segment(addr, nbytes)
    return str(info.value)


class TestSegmentRule:
    @pytest.mark.parametrize("addr, nbytes", [(-4, 8), (4, -8), (-1, -1)])
    def test_negative_entry_raises_the_segment_error(self, addr, nbytes):
        with pytest.raises(ValueError) as info:
            Trace([0, addr, 16], [8, nbytes, 8])
        assert str(info.value) == _segment_error(addr, nbytes)
        assert str(info.value) == f"invalid segment ({addr}, {nbytes})"

    def test_first_bad_segment_is_reported(self):
        with pytest.raises(ValueError, match=r"invalid segment \(8, -2\)"):
            Trace([0, 8, -3], [4, -2, 4])

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="equal length"):
            Trace([0, 8, 16], [8, 8])

    def test_non_vector_arrays_raise(self):
        with pytest.raises(ValueError):
            Trace(np.zeros((2, 2)), np.zeros((2, 2)))


class TestSequenceView:
    def test_iteration_and_indexing_yield_segments(self):
        trace = Trace([0, 8, 32], [8, 8, 4])
        assert list(trace) == [Segment(0, 8), Segment(8, 8), Segment(32, 4)]
        assert trace[1] == Segment(8, 8)
        assert trace[-1] == Segment(32, 4)
        assert trace[1:] == Trace([8, 32], [8, 4])
        assert len(trace) == 3 and trace.total_bytes == 20

    def test_of_segments_round_trips(self):
        assert Trace.of([Segment(0, 0), Segment(5, 3)]) == [Segment(0, 0), Segment(5, 3)]

    def test_empty_trace_is_falsy(self):
        assert not Trace()
        assert Trace() == []

    def test_merge_accepts_a_segment_list(self):
        merged = merge_contiguous([Segment(0, 8), Segment(8, 8)])
        assert isinstance(merged, Trace)
        assert merged == [Segment(0, 16)]

    def test_bad_merge_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            merge_contiguous(Trace([0], [8]), window=0)


def _encodings():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(24, 40))
    res = tbs_sparsify(w, m=8, sparsity=0.75)
    sparse = np.where(res.mask, w, 0.0)
    for name in available_formats():
        spec = EncodeSpec(tbs=res if name in _TBS_AWARE else None)
        yield name, get_format(name).encode(sparse, spec)


@pytest.mark.parametrize("name, enc", list(_encodings()), ids=available_formats())
class TestFormatTraces:
    def test_both_orientations_hold_int64_arrays(self, name, enc):
        for orientation in ORIENTATIONS:
            trace = enc.trace(orientation)
            assert isinstance(trace, Trace), orientation
            assert trace.addr.dtype == np.int64, orientation
            assert trace.nbytes.dtype == np.int64, orientation
            assert len(trace) > 0, orientation

    def test_transposed_trace_is_derived_once(self, name, enc):
        assert enc.trace("transposed") is enc.trace("transposed")
