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
direct, and for sparsity-aware two heaps of plain numbers that track
only the costs and the PE free times the makespan depends on.
Duck-typed sequences (e.g. the corrupted descriptor streams the stall
guards exist for) take guarded event loops instead, whose
length-snapshot guards they exercise; ``record=True`` schedules take
the same loops, which are the ones that track block and PE identities.
The sort-based loop the sparsity-aware heap replaced lives on as a
test oracle (``tests/hw/scheduler_oracle.py``), and the equivalence
suites prove every path agrees with it bit-exactly.
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
        return ScheduleResult(0, 0, num_pes)
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
    else:
        makespan = int(wave_max.sum())
        total = int(arr.sum())
    return ScheduleResult(makespan, total, num_pes)


def _schedule_direct_reference(
    costs: Sequence[int], num_pes: int, record: bool = False
) -> ScheduleResult:
    """Event loop of :func:`schedule_direct`, one wave at a time.

    The only path for ``record=True`` (``sim.trace`` renders its
    placements) and for duck-typed sequences, which the array path
    does not accept.
    """
    _validate(costs, num_pes)
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
    total = sum(costs)
    return ScheduleResult(makespan, total, num_pes, tuple(assignments))


@timed("hw.scheduler.sparsity_aware")
def schedule_sparsity_aware(
    costs: Sequence[int],
    num_pes: int,
    window: int = 8,
    record: bool = False,
) -> ScheduleResult:
    """Windowed earliest-free-PE dispatch.

    The scheduler can only see ``window`` blocks ahead (it fetches two
    per cycle from the buffer, Fig. 11(b)), so it is not an offline LPT
    solver -- but with TBS block costs bounded by M the greedy policy
    lands within one block of the optimal makespan.  The fetch bandwidth
    is folded into the window bound: the window refills before every
    dispatch, so no fetch-rate parameter changes the schedule.

    Dispatch rule: hand the *largest* block in the window to the PE that
    frees first (longest-processing-time within the lookahead).

    The event loop below keeps the window in a max-heap keyed
    ``(-cost, -block_id)`` -- the exact tie-break of the sort-based
    oracle's ``sort(reverse=True); pop(0)`` -- and the PEs in a heap of
    ``(free_time, pe)``, so ``record=True`` names every placement.
    Without ``record``, cost arrays take :func:`_makespan`, which drops
    both identities because the makespan does not depend on them.
    """
    arr = _as_cost_array(costs)
    if arr is not None:
        _validate_array(arr, num_pes)
    else:
        _validate(costs, num_pes)
    if window < 1:
        raise ValueError("window must be positive")
    if arr is not None:
        costs = arr.tolist()
        if _obs_enabled():
            obs_metrics.counter_add("hw.scheduler.blocks_dispatched", len(costs))
            for c in costs:
                obs_metrics.observe("hw.scheduler.block_cycles", c)
        if not record:
            # Same total as re-reading the stream (float arrays sum
            # left-to-right to match the event loop's accumulation order).
            total = int(arr.sum()) if arr.dtype.kind != "f" else float(sum(costs))
            return ScheduleResult(_makespan(costs, num_pes, window), total, num_pes)
    pending = costs
    # Snapshot the block count once: every bound below uses it, so even
    # a sequence whose __len__ drifts (corrupted block list) terminates.
    n_blocks = len(pending)
    buffer: List[Tuple] = []  # max-heap of (-cost, -block_id)
    heap = [(0, pe) for pe in range(num_pes)]  # (free_time, pe)
    heapq.heapify(heap)
    fetch_cursor = 0
    dispatched = 0
    fetched_total = 0  # left-to-right sum at fetch time
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
        if record:
            assignments.append(Assignment(block_id, pe, free_time, free_time + cost))

    makespan = max(t for t, _ in heap)
    return ScheduleResult(makespan, fetched_total, num_pes, tuple(assignments))


def _makespan(costs: List, num_pes: int, window: int):
    """Makespan of :func:`schedule_sparsity_aware` on a validated cost list.

    A fixed-length list cannot stall, so the guarded loop reduces to two
    heaps of native Python numbers, and neither holds an identity:

    * the window is a max-heap of negated costs.  Whichever of several
      equal-cost blocks leaves first, the costs left in the window are
      the same multiset, so the cost sequence dispatched is the guarded
      loop's ``(-cost, -block_id)`` order's, cost for cost;
    * the PEs are a min-heap of free times.  Whichever of several tied
      PEs takes a block, the multiset of free times evolves by the same
      ``free - neg_cost`` addition as the guarded loop's
      ``free_time + cost``, so ``max`` of it is the same makespan bit
      for bit, float costs included.

    The window holds ``window - 1`` costs between steps, so each step is
    one ``heappushpop`` (fetch the next block, take the heaviest visible
    one) and one ``heapreplace`` (the earliest-free PE takes it).
    """
    pushpop, replace, pop = heapq.heappushpop, heapq.heapreplace, heapq.heappop
    ahead = min(window - 1, len(costs))
    buffer = [-c for c in costs[:ahead]]  # max-heap of negated costs
    heapq.heapify(buffer)
    free = [0] * num_pes  # PE free times; all equal, so already a heap
    for b in range(ahead, len(costs)):
        replace(free, free[0] - pushpop(buffer, -costs[b]))
    while buffer:
        replace(free, free[0] - pop(buffer))
    return max(free)
