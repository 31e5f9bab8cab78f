"""The synthetic-weights memo, the array memo helper and their one reset.

``synthetic_weights`` generates each distinct argument set once per
process.  These tests pin that contract: a hit is bit-identical to a cold
generation, every returned array is read-only, only integer seeds are
memoized, the byte budget holds, and ``clear_cost_memo()`` empties both
in-process memos.  The last class runs Fig. 13 cells warm and cold and
compares their payloads byte for byte.
"""

import json

import numpy as np
import pytest

from repro.analysis.experiments import _fig13_cell
from repro.hw.config import tb_stc
from repro.perf.memo import ArrayMemo
from repro.sim.engine import _block_costs, clear_cost_memo
from repro.workloads import generator
from repro.workloads.generator import WEIGHTS_MEMO_BYTES, synthetic_weights
from repro.workloads.layers import opt_6_7b_layers

#: The generator without the memo: every call is a cold generation.
cold = synthetic_weights.__wrapped__

#: One non-default value for each shape parameter of ``synthetic_weights``.
SHAPE_PARAMS = {
    "row_scale_sigma": 1.1,
    "col_scale_sigma": 0.2,
    "dead_row_fraction": 0.3,
    "local_structure": 0.0,
    "block_scale_sigma": 1.5,
    "block": 4,
}


@pytest.fixture(autouse=True)
def _empty_memos():
    clear_cost_memo()
    yield
    clear_cost_memo()


class TestHitsMatchColdGeneration:
    @pytest.mark.parametrize(
        "rows, cols, seed",
        [(32, 16, 1), (17, 40, 0), (64, 64, 12345), (8, 24, np.int64(3))],
    )
    def test_hit_is_the_cold_array(self, rows, cols, seed):
        miss = synthetic_weights(rows, cols, seed=seed)
        hit = synthetic_weights(rows, cols, seed=seed)
        assert hit is miss
        assert hit.shape == (rows, cols)
        assert hit.tobytes() == cold(rows, cols, seed=seed).tobytes()

    def test_deterministic_across_a_reset(self):
        before = synthetic_weights(32, 16, seed=1)
        clear_cost_memo()
        after = synthetic_weights(32, 16, seed=1)
        assert after is not before
        assert after.tobytes() == before.tobytes()

    def test_seeds_are_keyed(self):
        one, two = synthetic_weights(16, 16, seed=1), synthetic_weights(16, 16, seed=2)
        assert not np.array_equal(one, two)

    @pytest.mark.parametrize("param, value", sorted(SHAPE_PARAMS.items()))
    def test_each_shape_parameter_is_keyed(self, param, value):
        base = synthetic_weights(48, 24, seed=5)
        changed = synthetic_weights(48, 24, seed=5, **{param: value})
        assert not np.array_equal(changed, base)
        assert changed.tobytes() == cold(48, 24, seed=5, **{param: value}).tobytes()
        assert synthetic_weights(48, 24, seed=5) is base

    def test_key_is_the_bound_signature(self):
        """Positional, keyword and explicit-default spellings share one entry."""
        w = synthetic_weights(24, 16, 7)
        assert synthetic_weights(rows=24, cols=16, seed=7) is w
        assert synthetic_weights(24, 16, seed=7, block=8, local_structure=0.5) is w


class TestReadOnly:
    def test_miss_and_hit_reject_writes(self):
        miss = synthetic_weights(16, 16, seed=2)
        hit = synthetic_weights(16, 16, seed=2)
        for weights in (miss, hit):
            assert not weights.flags.writeable
            with pytest.raises(ValueError):
                weights[0, 0] = 1.0
            with pytest.raises(ValueError):
                weights *= 2.0


class TestSeedBypass:
    def test_none_seed_is_fresh_every_call(self):
        a = synthetic_weights(16, 16, seed=None)
        b = synthetic_weights(16, 16, seed=None)
        assert not np.array_equal(a, b)
        assert not a.flags.writeable
        assert len(generator._WEIGHTS_MEMO) == 0

    @pytest.mark.parametrize(
        "make_seed",
        [
            lambda: np.random.default_rng(7),
            lambda: np.random.SeedSequence(7),
            lambda: [7, 1],
            lambda: (7, 1),
        ],
        ids=["generator", "seedsequence", "list", "tuple"],
    )
    def test_non_integer_seeds_bypass(self, make_seed):
        a = synthetic_weights(16, 16, seed=make_seed())
        b = synthetic_weights(16, 16, seed=make_seed())
        assert a is not b
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable
        assert len(generator._WEIGHTS_MEMO) == 0

    def test_shared_generator_keeps_advancing(self):
        rng = np.random.default_rng(7)
        assert not np.array_equal(
            synthetic_weights(16, 16, seed=rng), synthetic_weights(16, 16, seed=rng)
        )


class TestByteBudget:
    def test_budget_holds_one_model_at_scale_4(self):
        opt = [layer.scaled(4, m=8) for layer in opt_6_7b_layers()]
        assert sum(layer.rows * layer.cols * 8 for layer in opt) <= WEIGHTS_MEMO_BYTES

    def test_oversized_weights_are_returned_not_kept(self, monkeypatch):
        monkeypatch.setattr(generator, "_WEIGHTS_MEMO", ArrayMemo(1024))
        w = synthetic_weights(32, 32, seed=0)  # 8 KiB
        assert not w.flags.writeable
        assert len(generator._WEIGHTS_MEMO) == 0
        again = synthetic_weights(32, 32, seed=0)
        assert again is not w
        assert again.tobytes() == w.tobytes()

    def test_oversized_array_is_returned_not_kept(self):
        memo = ArrayMemo(1000)
        big = np.zeros(200)
        assert memo.put(("big",), big) is big
        assert not big.flags.writeable
        assert memo.get(("big",)) is None
        assert (len(memo), memo.nbytes) == (0, 0)

    def test_total_never_exceeds_budget(self):
        memo = ArrayMemo(4096)
        sizes = np.random.default_rng(0).integers(1, 300, size=400)
        for i, n in enumerate(sizes):
            memo.put((i,), np.zeros(int(n)))
            assert memo.nbytes <= memo.max_bytes
        assert 0 < len(memo) < len(sizes)

    def test_least_recently_used_is_evicted_first(self):
        memo = ArrayMemo(3 * 80)
        arrays = {name: np.zeros(10) for name in "abcd"}
        for name in "abc":
            memo.put((name,), arrays[name])
        assert memo.get(("a",)) is arrays["a"]  # "b" is now the oldest
        memo.put(("d",), arrays["d"])
        assert memo.get(("b",)) is None
        assert all(memo.get((name,)) is arrays[name] for name in "acd")
        assert memo.nbytes == 3 * 80

    def test_key_bytes_are_charged(self):
        memo = ArrayMemo(1000)
        memo.put((b"x" * 100, 3), np.zeros(10))
        assert memo.nbytes == 100 + 80

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ArrayMemo(-1)


class TestOneReset:
    def test_clear_cost_memo_empties_both_memos(self):
        weights = synthetic_weights(16, 16, seed=0)
        row_counts = np.full((4, 8), 3, dtype=np.int64)
        costs = _block_costs(row_counts, tb_stc())
        assert synthetic_weights(16, 16, seed=0) is weights
        assert _block_costs(row_counts, tb_stc()) is costs
        clear_cost_memo()
        assert len(generator._WEIGHTS_MEMO) == 0
        assert generator._WEIGHTS_MEMO.nbytes == 0
        assert synthetic_weights(16, 16, seed=0) is not weights
        assert _block_costs(row_counts, tb_stc()) is not costs


class TestWarmEqualsCold:
    @pytest.mark.parametrize("model", ["resnet50", "bert", "opt-6.7b"])
    def test_fig13_cell_payload_is_unchanged_by_warm_memos(self, model):
        _fig13_cell(model=model, arch="HighLight", scale=32, seed=0)
        assert len(generator._WEIGHTS_MEMO) > 0
        warm = json.dumps(_fig13_cell(model=model, arch="TB-STC", scale=32, seed=0))
        clear_cost_memo()
        cold_payload = json.dumps(_fig13_cell(model=model, arch="TB-STC", scale=32, seed=0))
        assert warm == cold_payload
