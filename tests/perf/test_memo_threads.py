"""Thread safety of the in-process array memos.

``repro serve --job-workers N`` runs jobs on N threads of one process,
and with ``sweep_workers=1`` their cells run inline on those threads, so
the block-cost memo, the weights memo and the projection memo of the
mask generators are shared between threads.  An eviction by one thread
must never land between another thread's lookup and its LRU touch of
the same entry: with an unguarded ``OrderedDict`` the touch raises
``KeyError``.

The first three tests force that interleaving deterministically.  A key
part whose hash hands control to a second thread, which empties every
memo, is hashed once by the lookup and once by the touch; the second
hash starts the evicting thread and waits briefly for it.
"""

import os
import sys
import threading

import numpy as np

import repro.core.masks as masks
from repro.core.masks import _top_k
from repro.core.patterns import PatternFamily
from repro.hw.config import tb_stc
from repro.perf.memo import ArrayMemo
from repro.sim.engine import _block_costs, clear_cost_memo
from repro.workloads.generator import pattern_mask, synthetic_weights


class _RacingFloat(float):
    """A float whose ``at``-th hash after :meth:`arm` races an eviction.

    That hash starts a thread running ``clear_cost_memo()`` and gives it
    up to :attr:`WAIT_S` to finish before the caller goes on.
    """

    WAIT_S = 0.1

    def __init__(self, value):
        super().__init__()
        self._countdown = 0
        self.racer = None

    def arm(self, at):
        self._countdown = at

    def __hash__(self):
        if self._countdown:
            self._countdown -= 1
            if not self._countdown:
                self.racer = threading.Thread(target=clear_cost_memo)
                self.racer.start()
                self.racer.join(timeout=self.WAIT_S)
        return float.__hash__(self)


def _finished(thread):
    assert thread is not None, "the hit path never reached the LRU touch"
    thread.join(timeout=10)
    return not thread.is_alive()


def test_cost_memo_eviction_cannot_split_lookup_and_touch():
    clear_cost_memo()
    row_counts = np.full((4, 8), 3, dtype=np.int64)
    overhead = _RacingFloat(0.0)
    first = _block_costs(row_counts, tb_stc(), overhead)
    overhead.arm(at=2)  # hash 1: the lookup; hash 2: the touch
    hit = _block_costs(row_counts, tb_stc(), overhead)
    assert _finished(overhead.racer)
    assert hit is first
    # The racing reset did run, after the hit completed.
    assert _block_costs(row_counts, tb_stc(), overhead) is not first


def test_weights_memo_eviction_cannot_split_lookup_and_touch():
    clear_cost_memo()
    sigma = _RacingFloat(0.7)
    first = synthetic_weights(16, 16, seed=0, row_scale_sigma=sigma)
    sigma.arm(at=2)
    hit = synthetic_weights(16, 16, seed=0, row_scale_sigma=sigma)
    assert _finished(sigma.racer)
    assert hit is first
    assert synthetic_weights(16, 16, seed=0, row_scale_sigma=sigma) is not first


def test_projection_memo_eviction_cannot_split_lookup_and_touch():
    clear_cost_memo()
    weights = synthetic_weights(16, 16, seed=0)
    sparsity = _RacingFloat(0.5)
    first = _top_k(weights, sparsity)
    sparsity.arm(at=2)
    hit = _top_k(weights, sparsity)
    assert _finished(sparsity.racer)
    assert hit is first
    assert _top_k(weights, sparsity) is not first


def test_job_threads_share_the_projection_memo():
    """Threads projecting the same weights in different family orders.

    Every thread gets the masks a serial, cold projection gives, and the
    memo ends with one entry per shared input: the row and column ranks
    and the top-k at each of the two sparsities.
    """
    families = (PatternFamily.US, PatternFamily.TS, PatternFamily.RS_V,
                PatternFamily.RS_H, PatternFamily.TBS)
    sparsities = {PatternFamily.RS_V: 0.625, PatternFamily.RS_H: 0.625}

    def project(weights, order):
        return {f: pattern_mask(weights, f, sparsities.get(f, 0.75))[0] for f in order}

    clear_cost_memo()
    want = project(synthetic_weights(128, 256, seed=9).copy(), families)
    weights = synthetic_weights(128, 256, seed=9)
    results, errors = [], []

    def job(k):
        try:
            order = families[k % 5:] + families[: k % 5]
            results.append(project(weights, order[::-1] if k % 2 else order))
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=job, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 6
    for got in results:
        for family, mask in want.items():
            np.testing.assert_array_equal(got[family], mask)
    assert len(masks._PROJECTIONS) == 4


def test_concurrent_lookups_inserts_and_evictions_keep_the_accounts():
    """More threads than cores churn one memo under a short switch interval.

    300 distinct keys cycle through a budget of 256 equal entries, so
    almost every insert evicts, and threads insert the same keys.  A
    doubled or lost update to the byte total, or an eviction between
    lookup and touch, breaks the final invariant or kills a thread.
    """
    entry = np.zeros(4)
    memo = ArrayMemo(256 * entry.nbytes)
    n_threads = max(4, (os.cpu_count() or 1) + 1)
    calls = 80_000 // n_threads
    errors = []

    def churn(offset):
        try:
            for i in range(calls):
                key = ((offset + 7 * i) % 300,)
                if memo.get(key) is None:
                    memo.put(key, np.zeros(4))
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=churn, args=(k * 300 // n_threads,)) for k in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert memo.nbytes == len(memo) * entry.nbytes
    assert 0 < len(memo) <= 256
