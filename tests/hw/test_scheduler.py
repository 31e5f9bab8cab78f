"""Tests for inter-block sparsity-aware scheduling (Fig. 11(a)/(b))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.scheduler import SimStallError, schedule_direct, schedule_sparsity_aware

from .scheduler_oracle import per_pe_busy


class TestDirect:
    def test_round_robin(self):
        res = schedule_direct([4, 1, 4, 1], num_pes=2)
        assert per_pe_busy(schedule_direct([4, 1, 4, 1], num_pes=2, record=True)) == (8, 2)
        assert res.makespan == 8
        assert res.utilization == pytest.approx(10 / 16)

    def test_empty(self):
        res = schedule_direct([], 4)
        assert res.makespan == 0 and res.utilization == 1.0

    def test_rejects_no_pes(self):
        with pytest.raises(ValueError):
            schedule_direct([1], 0)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            schedule_direct([-1], 1)


class TestSparsityAware:
    def test_fig11a_example(self):
        """Fig. 11(a): direct mapping needs 10 PE-cycles at 50% utilization;
        the sparsity-aware schedule needs 5.

        Block costs chosen to reproduce the pathology: heavy/light blocks
        alternate so round-robin piles the heavy ones onto one PE.
        """
        costs = [4, 1, 4, 1]  # a, b, c, d on 2 PEs
        direct = schedule_direct(costs, 2)
        aware = schedule_sparsity_aware(costs, 2)
        assert direct.utilization <= 0.7
        assert aware.utilization == pytest.approx(1.0)
        assert aware.makespan == 5

    def test_balanced_input_stays_balanced(self):
        res = schedule_sparsity_aware([2] * 8, 4)
        assert res.makespan == 4
        assert res.utilization == 1.0

    def test_never_worse_than_direct(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            costs = [int(c) for c in rng.integers(0, 9, size=rng.integers(1, 40))]
            direct = schedule_direct(costs, 8)
            aware = schedule_sparsity_aware(costs, 8)
            assert aware.makespan <= direct.makespan

    def test_window_limits_quality(self):
        """A tiny window cannot reorder past its horizon; a large one can."""
        costs = [1] * 14 + [8, 8]
        small = schedule_sparsity_aware(costs, 2, window=2)
        large = schedule_sparsity_aware(costs, 2, window=16)
        assert large.makespan <= small.makespan

    def test_total_work_conserved(self):
        costs = [3, 5, 2, 8, 1]
        res = schedule_sparsity_aware(costs, 3)
        assert res.total_work == sum(costs)
        recorded = schedule_sparsity_aware(costs, 3, record=True)
        assert sum(per_pe_busy(recorded)) == sum(costs)

    def test_utilization_improvement_on_tbs_distribution(self):
        """Paper claim (Sec. VI / Fig. 16(b)): 1.57x computation-utilization
        improvement over direct mapping on realistic block-cost mixes."""
        rng = np.random.default_rng(1)
        gains = []
        for _ in range(10):
            # TBS block costs are the block N values: {0,1,2,4,8}, with a
            # long-tailed mix (mostly light blocks, a few dense ones).
            costs = rng.choice([0, 1, 2, 4, 8], size=256, p=[0.1, 0.35, 0.3, 0.15, 0.1]).tolist()
            direct = schedule_direct(costs, 16)
            aware = schedule_sparsity_aware(costs, 16)
            gains.append(aware.utilization / max(1e-9, direct.utilization))
        assert np.mean(gains) > 1.2

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            schedule_sparsity_aware([1], 1, window=0)

    @given(st.lists(st.integers(0, 8), min_size=0, max_size=64), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds_property(self, costs, pes):
        """Makespan is at least the critical path and the average load,
        and at most direct mapping's."""
        aware = schedule_sparsity_aware(costs, pes)
        total = sum(costs)
        assert aware.makespan >= max(costs, default=0)
        assert aware.makespan >= -(-total // pes)
        assert aware.makespan <= schedule_direct(costs, pes).makespan


class _GrowingStream:
    """A corrupted block list whose claimed length keeps growing.

    Models a garbled descriptor stream: ``__len__`` always reports more
    blocks than have been read, so any loop trusting it live would never
    terminate.  The no-progress guard must turn this into a loud
    SimStallError instead of a hang.
    """

    def __init__(self, real=4):
        self.real = real
        self.reads = 0

    def __len__(self):
        return self.real + self.reads + 1  # always claims one more

    def __getitem__(self, i):
        self.reads += 1
        return 1


class TestStallGuards:
    def test_growing_stream_raises_instead_of_hanging(self):
        # The fetch stage stops at its length snapshot, the stream still
        # claims more blocks, the buffer drains: a detected stall, not a
        # spin.
        with pytest.raises(SimStallError, match="no progress"):
            schedule_sparsity_aware(_GrowingStream(real=4), 2)

    def test_stall_error_carries_diagnostic_state(self):
        with pytest.raises(SimStallError) as excinfo:
            schedule_sparsity_aware(_GrowingStream(real=4), 2)
        state = excinfo.value.state
        # The snapshot names the cursors a post-mortem needs.
        assert state["dispatched"] == state["n_blocks"]
        assert state["claimed_len"] > state["n_blocks"]
        assert "fetch_cursor" in state and "buffer" in state
        # And the message embeds it for bare tracebacks.
        assert "n_blocks=" in str(excinfo.value)

    def test_nan_cost_rejected_before_scheduling(self):
        with pytest.raises(ValueError, match="not finite"):
            schedule_sparsity_aware([1, float("nan"), 2], 2)
        with pytest.raises(ValueError, match="not finite"):
            schedule_direct([float("inf")], 1)

    def test_honest_sequences_unaffected(self):
        """The guards must not change any well-formed schedule."""
        res = schedule_sparsity_aware([4, 1, 4, 1], 2)
        assert res.makespan == 5 and res.total_work == 10
