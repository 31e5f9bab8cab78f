"""Bounded admission control for the job service: shed load, don't fall over.

Three pieces, all stdlib:

* :class:`TokenBucket` -- the classic per-client rate limiter: a bucket
  of ``burst`` tokens refilling at ``rate`` per second.  ``take()``
  either consumes a token or reports how long until one exists, which
  becomes the HTTP ``Retry-After`` header.  The HTTP layer keys buckets
  by *remote address*, never by a client-supplied header (which a
  flooder could rotate to mint fresh buckets), and the bucket map is a
  bounded LRU so fabricated identities cannot grow it without limit.
* :class:`AdmissionQueue` -- a bounded two-lane queue of run ids.  The
  **priority lane** holds near-free work -- jobs reclaimed by crash
  recovery or resubmitted after completion, whose cells are already in
  the cell cache -- and always drains first; fresh work waits in the
  normal lane.  When both lanes together hit ``maxsize``, admission
  raises :class:`QueueFull` instead of queuing unboundedly: the caller
  answers 429 and the client backs off.  Recovery re-queues bypass the
  bound (refusing to recover our *own* accepted jobs would turn a crash
  into data loss).
* :class:`QueueFull` / :class:`RateLimited` -- both carry
  ``retry_after_s`` so the HTTP layer can translate them mechanically.

Everything takes an injectable ``clock`` so the tests run in virtual
time; the service uses ``time.monotonic``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from math import ceil
from typing import Callable, Optional

__all__ = ["AdmissionQueue", "QueueFull", "RateLimited", "TokenBucket"]


class RateLimited(Exception):
    """Client exceeded its submission rate; retry after ``retry_after_s``."""

    def __init__(self, client: str, retry_after_s: float):
        super().__init__(
            f"client {client!r} rate-limited; retry in {retry_after_s:.2f}s"
        )
        self.client = client
        self.retry_after_s = retry_after_s


class QueueFull(Exception):
    """The admission queue is at capacity; retry after ``retry_after_s``."""

    def __init__(self, size: int, retry_after_s: float):
        super().__init__(
            f"admission queue full ({size} job(s) waiting); "
            f"retry in {retry_after_s:.2f}s"
        )
        self.size = size
        self.retry_after_s = retry_after_s


def _check_rate(rate: float, burst: float) -> None:
    if rate <= 0 or burst < 1:
        raise ValueError(f"need rate > 0 and burst >= 1, got {rate}/{burst}")


class TokenBucket:
    """``burst``-deep bucket refilling at ``rate`` tokens per second."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        _check_rate(rate, burst)
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def take(self) -> Optional[float]:
        """Consume one token; returns ``None`` on success, else the
        seconds until a token will be available."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        return (1.0 - self._tokens) / self.rate


class AdmissionQueue:
    """Bounded two-lane FIFO of run ids with per-client rate limiting."""

    def __init__(
        self,
        maxsize: int = 64,
        rate: Optional[float] = 10.0,
        burst: Optional[float] = 20.0,
        clock: Callable[[], float] = time.monotonic,
        max_clients: int = 1024,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        self.maxsize = maxsize
        self._rate = rate
        self._burst = burst if burst is not None else (rate or 0) * 2
        if rate is not None:
            # Every client's bucket is built from these two values; check
            # them now rather than at the first submission.
            _check_rate(rate, self._burst)
        self._clock = clock
        self._max_clients = max_clients
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._priority: deque = deque()
        self._normal: deque = deque()
        self._members: set = set()
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._priority) + len(self._normal)

    def depth(self) -> Dict[str, int]:
        with self._cond:
            return {"priority": len(self._priority), "normal": len(self._normal)}

    def _bucket(self, client: str) -> Optional[TokenBucket]:
        if self._rate is None:
            return None
        bucket = self._buckets.get(client)
        if bucket is None:
            # LRU-evict the coldest bucket at the cap: an evicted client
            # merely restarts from a full burst, whereas an unbounded map
            # is a memory leak any identity-rotating client can drive.
            while len(self._buckets) >= self._max_clients:
                self._buckets.popitem(last=False)
            bucket = self._buckets[client] = TokenBucket(
                self._rate, self._burst, clock=self._clock
            )
        else:
            self._buckets.move_to_end(client)
        return bucket

    def check_rate(self, client: str) -> None:
        """Charge one submission against ``client``'s bucket.

        ``client`` must be an identity the peer cannot choose freely
        (the HTTP layer passes the remote address) -- keying on a
        client-supplied header would let a flooder rotate identities to
        dodge the bucket.  Applied to every submission attempt --
        including dedupes and rejects -- so a flood of repeat POSTs is
        throttled like any other flood.  Raises :class:`RateLimited`
        when exhausted.
        """
        with self._cond:
            bucket = self._bucket(client)
            if bucket is None:
                return
            wait = bucket.take()
        if wait is not None:
            raise RateLimited(client, ceil(wait * 100) / 100)

    def push(self, run_id: str, priority: bool = False, force: bool = False) -> None:
        """Enqueue ``run_id``; :class:`QueueFull` at capacity unless ``force``.

        ``force`` is for recovery/drain re-queues of jobs the service
        already accepted -- bounding those would drop durable work.
        Duplicate pushes of an id already waiting are no-ops (the store
        is the source of truth; the queue is just scheduling).
        """
        with self._cond:
            if run_id in self._members:
                return
            size = len(self._priority) + len(self._normal)
            if size >= self.maxsize and not force:
                raise QueueFull(size, self._retry_after(size))
            (self._priority if priority else self._normal).append(run_id)
            self._members.add(run_id)
            self._cond.notify()

    def _retry_after(self, size: int) -> float:
        # Heuristic: no execution-time oracle exists at admission time,
        # so advertise a backoff proportional to the backlog depth.
        return max(1.0, min(30.0, size * 0.5))

    def check_capacity(self) -> None:
        """Raise :class:`QueueFull` if a non-``force`` push would be
        refused right now.

        For admission paths that must decide *before* durably recording
        a job whether it can be scheduled (the service's submit pipeline
        checks capacity, then writes the store, then ``push(...,
        force=True)``).  Same bound as :meth:`push`, owned by the queue
        so the two cannot drift.
        """
        with self._cond:
            size = len(self._priority) + len(self._normal)
            if size >= self.maxsize:
                raise QueueFull(size, self._retry_after(size))

    def pop(self, timeout: Optional[float] = None) -> Optional[str]:
        """Dequeue the next run id (priority lane first), or ``None`` on
        timeout.  Blocks up to ``timeout`` seconds (forever if None)."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._priority or self._normal, timeout=timeout
            ):
                return None
            lane = self._priority if self._priority else self._normal
            run_id = lane.popleft()
            self._members.discard(run_id)
            return run_id

    def drop(self, run_id: str) -> bool:
        """Remove a waiting id (a queued job that was cancelled)."""
        with self._cond:
            for lane in (self._priority, self._normal):
                try:
                    lane.remove(run_id)
                except ValueError:
                    continue
                self._members.discard(run_id)
                return True
        return False
