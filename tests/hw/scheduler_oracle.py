"""The sort-based loop that the sparsity-aware scheduler's heap replaced.

:func:`repro.hw.scheduler.schedule_sparsity_aware` keeps its lookahead
window in a max-heap and dispatches each block with one sift.
:func:`schedule_sparsity_aware_sort` is the loop it replaced: it sorts
the whole window before every dispatch and pops the front, so its
``sort(reverse=True); pop(0)`` defines the tie-break (equal costs go
to the higher block id first).  It lives here only as a test oracle;
nothing in ``src/`` calls it.  It takes trusted lists and arrays only:
the stall guards for malformed streams belong to the scheduler's own
guarded loop.

:func:`per_pe_busy` derives each PE's busy time from a ``record=True``
schedule's placements; :class:`~repro.hw.scheduler.ScheduleResult`
does not carry it.
"""

import heapq

from repro.hw.scheduler import Assignment, ScheduleResult, _validate


def schedule_sparsity_aware_sort(
    costs, num_pes, window=8, record=False
) -> ScheduleResult:
    """Windowed earliest-free-PE dispatch, sorting the window each step."""
    _validate(costs, num_pes)
    if window < 1:
        raise ValueError("window must be positive")
    n_blocks = len(costs)
    buffer = []  # (cost, block_id)
    heap = [(0, pe) for pe in range(num_pes)]  # (free_time, pe)
    heapq.heapify(heap)
    fetch_cursor = 0
    assignments = []
    while fetch_cursor < n_blocks or buffer:
        while fetch_cursor < n_blocks and len(buffer) < window:
            buffer.append((costs[fetch_cursor], fetch_cursor))
            fetch_cursor += 1
        buffer.sort(reverse=True)
        cost, block_id = buffer.pop(0)
        free_time, pe = heapq.heappop(heap)
        heapq.heappush(heap, (free_time + cost, pe))
        if record:
            assignments.append(Assignment(block_id, pe, free_time, free_time + cost))

    makespan = max(t for t, _ in heap) if heap else 0
    total = sum(costs[i] for i in range(n_blocks))
    return ScheduleResult(makespan, total, num_pes, tuple(assignments))


def per_pe_busy(result: ScheduleResult) -> tuple:
    """Busy time of every PE: ``end - start`` summed over its placements.

    Needs a ``record=True`` result; without placements every PE reads 0.
    """
    busy = [0] * result.num_pes
    for a in result.assignments:
        busy[a.pe] += a.end - a.start
    return tuple(busy)
