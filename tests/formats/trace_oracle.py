"""Per-segment reference loops for the array-backed trace analysis.

:func:`repro.formats.merge_contiguous` and
:func:`repro.formats.traffic_report` merge and burst-count whole traces
with array operations.  These are the loops they replaced, one
:class:`~repro.formats.Segment` at a time.  They live here only as a
test oracle; nothing in ``src/`` calls them.
"""

from typing import Iterable, List, Optional, Tuple

from repro.formats import Segment


def merge_contiguous_loop(segments: Iterable[Segment]) -> List[Segment]:
    """Coalesce address-adjacent segments, fusing whole chains."""
    merged: List[Segment] = []
    for seg in segments:
        if merged and merged[-1].end == seg.addr:
            merged[-1] = Segment(merged[-1].addr, merged[-1].nbytes + seg.nbytes)
        else:
            merged.append(Segment(seg.addr, seg.nbytes))
    return merged


def merge_with_window_loop(
    segments: Iterable[Segment], window: Optional[int]
) -> List[Segment]:
    """Coalesce address-adjacent segments, fusing at most ``window`` each."""
    if window is None:
        return merge_contiguous_loop(segments)
    merged: List[Segment] = []
    run = 0
    for seg in segments:
        if merged and run < window and merged[-1].end == seg.addr:
            prev = merged[-1]
            merged[-1] = Segment(prev.addr, prev.nbytes + seg.nbytes)
            run += 1
        else:
            merged.append(Segment(seg.addr, seg.nbytes))
            run = 1
    return merged


def burst_count_loop(merged: Iterable[Segment], burst_bytes: int) -> Tuple[int, int]:
    """``(num_bursts, fetched_bytes)`` of an already merged trace."""
    num_bursts = 0
    fetched = 0
    for seg in merged:
        # A segment not starting on a burst boundary drags in the head of
        # its first burst too.
        first = (seg.addr // burst_bytes) * burst_bytes
        last = seg.addr + seg.nbytes
        bursts = max(1, -(-(last - first) // burst_bytes)) if seg.nbytes else 0
        num_bursts += bursts
        fetched += bursts * burst_bytes
    return num_bursts, fetched
