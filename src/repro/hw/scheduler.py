"""Inter-block sparsity-aware scheduling (Sec. VI-B1, Fig. 11(a)/(b)).

Blocks have different costs (their N differs), so statically mapping
them round-robin onto PEs leaves some PEs idle while others grind
through dense blocks -- the paper's example wastes half the PE-cycles.

The scheduling unit sits between the on-chip buffer and the PE array,
fetches up to two blocks per cycle into a small window, and dispatches
each to the PE that will free up first, merging light blocks into idle
slots.  We model both policies event-driven:

* :func:`schedule_direct` -- round-robin static assignment (the
  "direct mapping" baseline in Fig. 16(b));
* :func:`schedule_sparsity_aware` -- windowed earliest-free-PE dispatch.

Cost arrays, lists and tuples take the array paths: wave packing for
direct, a one-sift max-heap window for sparsity-aware.  Duck-typed
sequences (e.g. the corrupted descriptor streams the stall guards
exist for) take guarded event loops instead, whose length-snapshot
guards they exercise; ``record=True`` direct schedules take the direct
loop too.  The sort-based loop the sparsity-aware heap replaced lives
on as a test oracle (``tests/hw/scheduler_oracle.py``), and the
equivalence suites prove every path agrees with it bit-exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.state import enabled as _obs_enabled
from ..obs.tracer import instant as _obs_instant
from ..perf import timed

__all__ = [
    "Assignment",
    "ScheduleResult",
    "SimStallError",
    "schedule_direct",
    "schedule_sparsity_aware",
]


class SimStallError(RuntimeError):
    """The scheduler or simulator stopped making forward progress.

    Raised instead of spinning when a malformed block list (corrupted
    descriptor stream, lying length, non-finite costs) would otherwise
    hang the event loop, or when a simulation blows through its cycle
    budget.  ``state`` carries a diagnostic snapshot (cursors, pending
    blocks, buffer contents) so the stall is debuggable post-mortem.

    ``cause`` is a short machine-readable tag (``"fetch_no_progress"``,
    ``"stream_overrun"``, ``"cycle_budget"``).  When instrumentation is
    on (:func:`repro.obs.enabled`), constructing the error also stores
    the installed registry's stage-timer records under ``state["perf"]``,
    bumps the ``stall.<cause>`` counter and emits an instant trace
    event, so stall distribution is visible in sweep metrics without the
    raise site doing anything extra.
    """

    def __init__(
        self, message: str, state: Optional[dict] = None, cause: Optional[str] = None
    ):
        self.cause = cause
        self.state = dict(state or {})
        if cause is not None:
            self.state.setdefault("cause", cause)
        if self.state:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.state.items()))
            message = f"{message} [{detail}]"
        if _obs_enabled():
            # Kept out of the message (stage splits are bulky); available
            # to post-mortem tooling via the state dump.
            self.state.setdefault("perf", obs_metrics.registry().timer_records())
            obs_metrics.counter_add(f"stall.{cause or 'unknown'}")
            _obs_instant("stall", cause=cause or "unknown")
        super().__init__(message)


@dataclass(frozen=True)
class Assignment:
    """One block's placement: which PE ran it and when."""

    block: int
    pe: int
    start: float
    end: float


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a block list onto a PE array."""

    makespan: int
    total_work: int
    num_pes: int
    per_pe_busy: tuple
    assignments: Tuple[Assignment, ...] = field(default=())

    @property
    def utilization(self) -> float:
        if self.makespan == 0 or self.num_pes == 0:
            return 1.0
        return self.total_work / (self.makespan * self.num_pes)

    @property
    def idle_cycles(self) -> int:
        return self.makespan * self.num_pes - self.total_work


def _validate(costs: Sequence[int], num_pes: int) -> None:
    if num_pes < 1:
        raise ValueError("need at least one PE")
    # Bounded by a length snapshot: a malformed sequence whose __len__
    # grows (a corrupted descriptor stream) must not turn validation
    # into an infinite scan.
    for i in range(len(costs)):
        c = costs[i]
        if not math.isfinite(c):
            raise ValueError(f"block cost {i} is not finite: {c!r}")
        if c < 0:
            raise ValueError("block costs must be non-negative")


def _as_cost_array(costs) -> Optional[np.ndarray]:
    """1-D ndarray view of a trusted sequence, or None for anything else.

    Only genuine arrays, lists and tuples take the vectorized paths;
    duck-typed sequences (whose ``__len__``/``__getitem__`` the stall
    guards must observe live) take the guarded event loops.
    """
    if isinstance(costs, np.ndarray):
        arr = costs
    elif isinstance(costs, (list, tuple)):
        if not costs:
            return np.zeros(0, dtype=np.int64)
        try:
            arr = np.asarray(costs)
        except (ValueError, TypeError):
            return None
    else:
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "iufb":
        return None
    if arr.dtype.kind == "b":
        arr = arr.astype(np.int64)
    return arr


def _validate_array(arr: np.ndarray, num_pes: int) -> None:
    if num_pes < 1:
        raise ValueError("need at least one PE")
    if arr.size == 0:
        return
    if arr.dtype.kind == "f":
        finite = np.isfinite(arr)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"block cost {i} is not finite: {arr[i]!r}")
    if (arr < 0).any():
        raise ValueError("block costs must be non-negative")


@timed("hw.scheduler.direct")
def schedule_direct(
    costs: Sequence[int], num_pes: int, record: bool = False
) -> ScheduleResult:
    """Direct (lockstep) mapping: waves of ``num_pes`` blocks in order.

    This is the Fig. 11(a) baseline: the PE array loads one block per PE,
    computes, and only loads the next wave when the *slowest* block of
    the current wave finishes -- so every wave costs its maximum block
    cost and light blocks leave their PEs idle.

    ``record=True`` captures per-block placements for trace rendering.
    """
    arr = None if record else _as_cost_array(costs)
    if arr is None:
        return _schedule_direct_reference(costs, num_pes, record)
    _validate_array(arr, num_pes)
    n = int(arr.size)
    if n == 0:
        return ScheduleResult(0, 0, num_pes, tuple([0] * num_pes))
    pad = (-n) % num_pes
    waves = (np.pad(arr, (0, pad)) if pad else arr).reshape(-1, num_pes)
    wave_max = waves.max(axis=1)
    if _obs_enabled():
        for w in wave_max.tolist():
            obs_metrics.observe("hw.scheduler.wave_cycles", w)
    if arr.dtype.kind == "f":
        # Left-to-right Python summation: bit-identical to the event
        # loop's sequential accumulation (float addition is not
        # associative, and numpy's pairwise reduction would diverge in
        # the last ulps).
        makespan = float(sum(wave_max.tolist()))
        total = float(sum(arr.tolist()))
        busy = tuple(float(sum(col)) for col in waves.T.tolist())
    else:
        makespan = int(wave_max.sum())
        total = int(arr.sum())
        busy = tuple(int(b) for b in waves.sum(axis=0))
    return ScheduleResult(makespan, total, num_pes, busy)


def _schedule_direct_reference(
    costs: Sequence[int], num_pes: int, record: bool = False
) -> ScheduleResult:
    """Event loop of :func:`schedule_direct`, one wave at a time.

    The only path for ``record=True`` (``sim.trace`` renders its
    placements) and for duck-typed sequences, which the array path
    does not accept.
    """
    _validate(costs, num_pes)
    busy = [0] * num_pes
    makespan = 0
    assignments: List[Assignment] = []
    for w0 in range(0, len(costs), num_pes):
        wave = costs[w0 : w0 + num_pes]
        if record:
            for pe, cost in enumerate(wave):
                assignments.append(Assignment(w0 + pe, pe, makespan, makespan + cost))
        if _obs_enabled():
            obs_metrics.observe("hw.scheduler.wave_cycles", max(wave))
        makespan += max(wave)
        for pe, cost in enumerate(wave):
            busy[pe] += cost
    total = sum(costs)
    return ScheduleResult(makespan, total, num_pes, tuple(busy), tuple(assignments))


@timed("hw.scheduler.sparsity_aware")
def schedule_sparsity_aware(
    costs: Sequence[int],
    num_pes: int,
    window: int = 8,
    fetch_per_cycle: int = 2,
    record: bool = False,
) -> ScheduleResult:
    """Windowed earliest-free-PE dispatch.

    The scheduler can only see ``window`` blocks ahead (it fetches two
    per cycle from the buffer, Fig. 11(b)), so it is not an offline LPT
    solver -- but with TBS block costs bounded by M the greedy policy
    lands within one block of the optimal makespan.

    Dispatch rule: hand the *largest* block in the window to the PE that
    frees first (longest-processing-time within the lookahead).

    The optimized path keeps the window in a max-heap keyed
    ``(-cost, -block_id)`` -- the exact tie-break of the sort-based
    oracle's ``sort(reverse=True); pop(0)`` -- and dispatches each block
    with one sift of each heap.
    """
    arr = _as_cost_array(costs)
    if arr is not None:
        _validate_array(arr, num_pes)
        return _dispatch_array(arr, num_pes, window, fetch_per_cycle, record)
    _validate(costs, num_pes)
    if window < 1 or fetch_per_cycle < 1:
        raise ValueError("window and fetch rate must be positive")
    pending = costs
    # Snapshot the block count once: every bound below uses it, so even
    # a sequence whose __len__ drifts (corrupted block list) terminates.
    n_blocks = len(pending)
    busy = np.zeros(num_pes, dtype=np.float64)
    buffer: List[Tuple] = []  # max-heap of (-cost, -block_id)
    heap = [(0, pe) for pe in range(num_pes)]  # (free_time, pe)
    heapq.heapify(heap)
    fetch_cursor = 0
    dispatched = 0
    fetched_total = 0  # duck-typed path: left-to-right sum at fetch time
    assignments: List[Assignment] = []

    def _stall_state() -> dict:
        return {
            "fetch_cursor": fetch_cursor,
            "dispatched": dispatched,
            "n_blocks": n_blocks,
            "claimed_len": len(pending),
            "window": window,
            "buffer": sorted(((-nc, -nb) for nc, nb in buffer), reverse=True)[:8],
        }

    while fetch_cursor < len(pending) or buffer:
        # Refill the window (bounded fetch bandwidth is folded into the
        # window bound: at 2 blocks/cycle the buffer never starves for
        # blocks costing >= 1 cycle).
        while fetch_cursor < min(len(pending), n_blocks) and len(buffer) < window:
            cost = pending[fetch_cursor]
            heapq.heappush(buffer, (-cost, -fetch_cursor))
            fetched_total += cost
            fetch_cursor += 1
        # Progress guard: every outer iteration must dispatch exactly one
        # of the n_blocks blocks; anything else is a stalled or corrupted
        # stream, and spinning here would hang the whole report pipeline.
        if not buffer:
            raise SimStallError(
                "scheduler fetch stage made no progress",
                cause="fetch_no_progress",
                state=_stall_state(),
            )
        if dispatched >= n_blocks:
            raise SimStallError(
                "scheduler dispatched every block but the stream claims more pending",
                cause="stream_overrun",
                state=_stall_state(),
            )
        # Dispatch the heaviest visible block to the earliest-free PE.
        neg_cost, neg_id = heapq.heappop(buffer)
        cost, block_id = -neg_cost, -neg_id
        dispatched += 1
        free_time, pe = heapq.heappop(heap)
        heapq.heappush(heap, (free_time + cost, pe))
        busy[pe] += cost
        if record:
            assignments.append(Assignment(block_id, pe, free_time, free_time + cost))

    makespan = max(t for t, _ in heap) if heap else 0
    return ScheduleResult(
        makespan, fetched_total, num_pes, tuple(busy.tolist()), tuple(assignments)
    )


def _dispatch_array(
    arr: np.ndarray, num_pes: int, window: int, fetch_per_cycle: int, record: bool
) -> ScheduleResult:
    """Array fast path of :func:`schedule_sparsity_aware`.

    A validated fixed-length cost array cannot stall (the fetch stage
    always progresses and the stream length is constant), so the guarded
    generic loop reduces to a tight heap loop over native Python numbers
    -- identical arithmetic (IEEE-754 double either way) and identical
    ``(-cost, -block_id)`` tie-breaks, without per-element numpy scalar
    overhead.

    The window holds ``window - 1`` blocks between steps, so each step
    is one ``heappushpop`` (fetch the next block, take the heaviest
    visible one) and one ``heapreplace`` on the PE heap (the earliest-free
    PE takes the block).  Both heaps hold distinct keys, so every pop
    returns what the guarded loop's pop-then-push returns, and
    ``free_time - neg_cost`` is exactly ``free_time + cost``.
    """
    if window < 1 or fetch_per_cycle < 1:
        raise ValueError("window and fetch rate must be positive")
    n_blocks = int(arr.shape[0])
    int_costs = arr.dtype.kind != "f"
    costs_list = arr.tolist()
    if _obs_enabled():
        obs_metrics.counter_add("hw.scheduler.blocks_dispatched", n_blocks)
        for c in costs_list:
            obs_metrics.observe("hw.scheduler.block_cycles", c)
    busy = [0] * num_pes if int_costs else [0.0] * num_pes
    heap = [(0, pe) for pe in range(num_pes)]  # (free_time, pe); sorted, so a heap
    assignments: List[Assignment] = []
    pushpop, replace, pop = heapq.heappushpop, heapq.heapreplace, heapq.heappop
    ahead = min(window - 1, n_blocks)
    buffer = [(-costs_list[b], -b) for b in range(ahead)]  # max-heap of (-cost, -block_id)
    heapq.heapify(buffer)
    for b in range(ahead, n_blocks + ahead):
        # Fetch block b while any is left, dispatch the heaviest visible
        # block to the earliest-free PE.
        if b < n_blocks:
            neg_cost, neg_id = pushpop(buffer, (-costs_list[b], -b))
        else:
            neg_cost, neg_id = pop(buffer)
        free_time, pe = heap[0]
        replace(heap, (free_time - neg_cost, pe))
        busy[pe] -= neg_cost
        if record:
            assignments.append(Assignment(-neg_id, pe, free_time, free_time - neg_cost))

    makespan = max(t for t, _ in heap) if heap else 0
    # Same total as re-reading the stream (float arrays sum left-to-right
    # to match the event loop's accumulation order).
    total = int(arr.sum()) if int_costs else float(sum(costs_list))
    return ScheduleResult(makespan, total, num_pes, tuple(busy), tuple(assignments))

