"""The identity-free sparsity-aware heap matches the sort-based oracle.

On cost arrays :func:`repro.hw.scheduler.schedule_sparsity_aware`
keeps only costs in its window heap and only free times in its PE heap:
no block ids, no PE numbers.  Its makespan and total must still equal
:func:`schedule_sparsity_aware_sort`'s through ``float.hex``, on cost
vectors shaped like the ones ``sim.engine`` builds: integer costs, the
same costs as float64, fractional row-overhead costs (the SGCN, RM-STC
and DVPE+FAN multiples of 0.15, 0.05 and 0.2), many zero-cost blocks and
few distinct costs, so ties are everywhere.  The guarded event loop
that duck-typed streams take must match the same oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.scheduler import schedule_sparsity_aware

from .scheduler_oracle import CostStream, schedule_sparsity_aware_sort


def _engine_costs(seed, n, n_distinct, zero_share, overhead):
    """Block costs built the way ``sim.engine._block_costs`` builds them.

    ``overhead=None`` gives an int64 vector; otherwise the float64 DVPE
    costs plus ``overhead`` per non-empty row, in numpy's arithmetic.
    """
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 41, size=n_distinct)
    base = rng.choice(levels, size=n)
    base[rng.random(n) < zero_share] = 0
    if overhead is None:
        return base.astype(np.int64)
    costs = base.astype(np.float64)
    if overhead:
        rows = np.where(base > 0, rng.integers(1, 9, size=n), 0)
        costs = costs + overhead * rows
    return costs


_COSTS = dict(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(0, 300),
    n_distinct=st.integers(1, 8),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    overhead=st.sampled_from([None, 0.0, 0.05, 0.15, 0.2]),
    window=st.integers(1, 16),
    num_pes=st.integers(1, 256),
)


def _hex(x):
    return float(x).hex()


@settings(max_examples=80, deadline=None)
@given(**_COSTS)
def test_makespan_and_total_match_sort_oracle(
    seed, n, n_distinct, zero_share, overhead, window, num_pes
):
    costs = _engine_costs(seed, n, n_distinct, zero_share, overhead)
    fast = schedule_sparsity_aware(costs, num_pes, window=window)
    ref = schedule_sparsity_aware_sort(costs.tolist(), num_pes, window=window)
    assert _hex(fast.makespan) == _hex(ref.makespan)
    assert _hex(fast.total_work) == _hex(ref.total_work)
    assert fast.num_pes == ref.num_pes


@settings(max_examples=40, deadline=None)
@given(**_COSTS)
def test_guarded_loop_matches_sort_oracle(
    seed, n, n_distinct, zero_share, overhead, window, num_pes
):
    """A duck-typed stream takes the guarded loop, which tracks block and
    PE identities; it must report the array path's numbers bit for bit."""
    costs = _engine_costs(seed, n, n_distinct, zero_share, overhead).tolist()
    guarded = schedule_sparsity_aware(CostStream(costs), num_pes, window=window)
    ref = schedule_sparsity_aware_sort(costs, num_pes, window=window)
    assert _hex(guarded.makespan) == _hex(ref.makespan)
    assert _hex(guarded.total_work) == _hex(ref.total_work)
    plain = schedule_sparsity_aware(costs, num_pes, window=window)
    assert _hex(plain.makespan) == _hex(guarded.makespan)
    assert _hex(plain.total_work) == _hex(guarded.total_work)
