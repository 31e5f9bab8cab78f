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

:class:`CostStream` is a well-formed duck-typed cost sequence: the
schedulers take their guarded event loops for it, so a test can hold
those loops against the oracle too.
"""

import heapq

from repro.hw.scheduler import ScheduleResult, _validate


class CostStream:
    """A list of costs behind ``__len__``/``__getitem__`` only."""

    def __init__(self, costs):
        self._costs = list(costs)

    def __len__(self):
        return len(self._costs)

    def __getitem__(self, index):
        return self._costs[index]


def schedule_sparsity_aware_sort(costs, num_pes, window=8) -> ScheduleResult:
    """Windowed earliest-free-PE dispatch, sorting the window each step."""
    _validate(costs, num_pes)
    if window < 1:
        raise ValueError("window must be positive")
    n_blocks = len(costs)
    buffer = []  # (cost, block_id)
    heap = [(0, pe) for pe in range(num_pes)]  # (free_time, pe)
    heapq.heapify(heap)
    fetch_cursor = 0
    while fetch_cursor < n_blocks or buffer:
        while fetch_cursor < n_blocks and len(buffer) < window:
            buffer.append((costs[fetch_cursor], fetch_cursor))
            fetch_cursor += 1
        buffer.sort(reverse=True)
        cost, _ = buffer.pop(0)
        free_time, pe = heapq.heappop(heap)
        heapq.heappush(heap, (free_time + cost, pe))

    makespan = max(t for t, _ in heap) if heap else 0
    total = sum(costs[i] for i in range(n_blocks))
    return ScheduleResult(makespan, total, num_pes)
