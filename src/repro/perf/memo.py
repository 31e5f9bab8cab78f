"""Bounded, thread-safe memo of read-only numpy arrays.

Two paths recompute the same arrays many times in one run: the
synthetic layer weights that every architecture of a Fig. 13 model
prunes (:func:`repro.workloads.generator.synthetic_weights`), and the
DVPE block-cost vectors of the simulator (``repro.sim.engine``).  Both
memoize through one :class:`ArrayMemo` each.  :func:`clear_memos`
empties every instance in the process; ``repro.sim.engine.clear_cost_memo``
is the public reset that calls it.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

__all__ = ["ArrayMemo", "clear_memos"]

_MEMOS: "weakref.WeakSet[ArrayMemo]" = weakref.WeakSet()
_MEMOS_LOCK = threading.Lock()


class ArrayMemo:
    """LRU of read-only numpy arrays under tuple keys, bounded by bytes.

    An entry is charged its array's ``nbytes`` plus the length of every
    ``bytes`` part of its key (the block-cost memo keys on a segment-count
    buffer eight times the size of the cost vector it stores).  Inserting
    evicts least-recently-used entries until the total is within
    ``max_bytes``; an entry larger than the whole budget is returned by
    :meth:`put` but not kept.  Stored arrays are marked read-only, so
    every hit can hand out the same object.

    One lock covers each lookup together with its LRU touch, and each
    insert together with its evictions, so no thread can evict an entry
    between another thread's lookup and touch (``repro serve
    --job-workers N`` runs jobs on threads of one process).
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, Tuple[np.ndarray, int]]" = OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()
        with _MEMOS_LOCK:
            _MEMOS.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes charged to the entries currently kept."""
        return self._nbytes

    def get(self, key: tuple) -> Optional[np.ndarray]:
        """The array stored under ``key`` (now most recent), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, value: np.ndarray) -> np.ndarray:
        """Mark ``value`` read-only, keep it under ``key`` if it fits, return it."""
        value.setflags(write=False)
        size = value.nbytes + sum(len(part) for part in key if isinstance(part, bytes))
        if size > self.max_bytes:
            return value
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= old[1]
            self._entries[key] = (value, size)
            self._nbytes += size
            while self._nbytes > self.max_bytes:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._nbytes -= evicted
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0


def clear_memos() -> None:
    """Empty every :class:`ArrayMemo` in this process."""
    with _MEMOS_LOCK:
        memos = list(_MEMOS)
    for memo in memos:
        memo.clear()
