"""Tests for the pluggable transposable-mask solver backends.

Covers the three backends' shared contract (valid 2-D N:M masks,
per-block N respected, determinism), the ``exact`` backend against a
brute-force oracle on tiny blocks, the quality gate CI runs for
``greedy``/``tsenor`` against ``exact``, and the augmenting-path repair
regression in ``greedy``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tsolvers import (
    DEFAULT_TSOLVER,
    TSOLVER_NAMES,
    resolve_tsolver,
    solve_blocks,
)

from .transposable_oracle import is_transposable, solve_block


def _rand_blocks(b, m, seed=0):
    return np.abs(np.random.default_rng(seed).normal(size=(b, m, m)))


def _retained(scores, masks):
    return float((np.abs(scores) * masks).sum())


def _brute_force(scores, n):
    """Exhaustive max-score transposable mask of one tiny block."""
    m = scores.shape[0]
    best_score, best_mask = -1.0, np.zeros((m, m), dtype=bool)
    cells = list(itertools.product(range(m), range(m)))
    for bits in range(1 << len(cells)):
        mask = np.zeros((m, m), dtype=bool)
        for idx, (i, j) in enumerate(cells):
            if bits >> idx & 1:
                mask[i, j] = True
        if not is_transposable(mask, n):
            continue
        score = float((scores * mask).sum())
        if score > best_score:
            best_score, best_mask = score, mask
    return best_mask, best_score


class TestRegistry:
    def test_default_is_greedy(self):
        assert DEFAULT_TSOLVER == "greedy"
        assert resolve_tsolver(None) == "greedy"

    def test_explicit_name_wins(self):
        assert resolve_tsolver("tsenor") == "tsenor"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown tsolver"):
            resolve_tsolver("simplex")

    def test_solve_block_validates_shape(self):
        with pytest.raises(ValueError):
            solve_block(np.ones((4, 8)), 2)
        with pytest.raises(ValueError):
            solve_block(np.ones((4, 4)), 5)
        with pytest.raises(ValueError):
            solve_blocks(np.ones((4, 4)), 2)  # needs a batch dim



class TestSharedContract:
    """Every backend returns valid, deterministic masks."""

    @pytest.mark.parametrize("backend", TSOLVER_NAMES)
    @given(seed=st.integers(0, 200), n=st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_valid_transposable(self, backend, seed, n):
        scores = np.random.default_rng(seed).normal(size=(8, 8))
        mask = solve_block(scores, n, backend=backend)
        assert mask.dtype == bool
        assert is_transposable(mask, n)
        assert is_transposable(mask.T, n)

    @pytest.mark.parametrize("backend", TSOLVER_NAMES)
    def test_per_block_n_respected(self, backend):
        scores = _rand_blocks(6, 8, seed=11)
        n = np.array([0, 1, 2, 4, 8, 3])
        masks = solve_blocks(scores, n, backend=backend)
        for blk, blk_n in zip(masks, n):
            assert is_transposable(blk, int(blk_n))
        assert masks[0].sum() == 0
        assert masks[4].all()

    @pytest.mark.parametrize("backend", TSOLVER_NAMES)
    def test_deterministic_across_calls(self, backend):
        scores = _rand_blocks(8, 8, seed=5)
        first = solve_blocks(scores, 3, backend=backend)
        for _ in range(3):
            assert np.array_equal(solve_blocks(scores, 3, backend=backend), first)

    @pytest.mark.parametrize("backend", TSOLVER_NAMES)
    def test_batch_matches_single(self, backend):
        """Batching is a pure layout change, never a numeric one."""
        scores = _rand_blocks(5, 8, seed=7)
        batched = solve_blocks(scores, 2, backend=backend)
        for i in range(5):
            single = solve_block(scores[i], 2, backend=backend)
            assert np.array_equal(batched[i], single)

    @pytest.mark.parametrize("backend", TSOLVER_NAMES)
    def test_degenerate_blocks(self, backend):
        m = 8
        all_zero = np.zeros((m, m))
        ties = np.ones((m, m))
        for scores in (all_zero, ties):
            for n in (0, 1, 4, m):
                mask = solve_block(scores, n, backend=backend)
                assert is_transposable(mask, n)
                if n == 0:
                    assert mask.sum() == 0
                if n == m:
                    assert mask.all()
        # Mixed degenerate batch: zeros, ties and signal side by side.
        batch = np.stack([all_zero, ties, _rand_blocks(1, m, seed=1)[0]])
        masks = solve_blocks(batch, np.array([4, 4, 4]), backend=backend)
        for blk in masks:
            assert is_transposable(blk, 4)

    @pytest.mark.parametrize("backend", TSOLVER_NAMES)
    def test_ties_are_deterministic(self, backend):
        ties = np.ones((3, 8, 8))
        first = solve_blocks(ties, 2, backend=backend)
        assert np.array_equal(solve_blocks(ties, 2, backend=backend), first)
        # Identical blocks in one batch must get identical masks.
        assert np.array_equal(first[0], first[1])

    @pytest.mark.parametrize("backend", TSOLVER_NAMES)
    def test_negative_scores_use_magnitude(self, backend):
        scores = np.random.default_rng(9).normal(size=(8, 8))
        assert np.array_equal(
            solve_block(scores, 2, backend=backend),
            solve_block(np.abs(scores), 2, backend=backend),
        )


class TestExactOracle:
    @pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (3, 2)])
    def test_matches_brute_force(self, m, n):
        rng = np.random.default_rng(42)
        for _ in range(10):
            scores = np.abs(rng.normal(size=(m, m)))
            mask = solve_block(scores, n, backend="exact")
            _, best = _brute_force(scores, n)
            assert is_transposable(mask, n)
            assert _retained(scores, mask) == pytest.approx(best, rel=1e-9)

    def test_never_below_greedy(self):
        scores = _rand_blocks(40, 8, seed=13)
        exact = solve_blocks(scores, 3, backend="exact")
        greedy = solve_blocks(scores, 3, backend="greedy")
        for i in range(len(scores)):
            assert _retained(scores[i], exact[i]) >= _retained(scores[i], greedy[i]) - 1e-9


class TestQualityGate:
    """The CI 'solver' job's gate: heuristics vs the exact oracle.

    The hard requirement is on ``tsenor`` (retained score within 1% of
    exact on seeded random blocks); ``greedy`` is held to a looser
    sanity floor -- it is the bit-compatible historical default, not the
    quality backend, and sits ~1.3% below exact at small M.
    """

    #: (backend, floor): tsenor carries the 1% CI gate.
    _GATES = {"tsenor": 0.99, "greedy": 0.97}

    @pytest.mark.parametrize("backend", ["greedy", "tsenor"])
    @pytest.mark.parametrize("m,n,b", [(4, 2, 64), (8, 3, 48), (16, 6, 16)])
    def test_retained_score_vs_exact(self, backend, m, n, b):
        scores = _rand_blocks(b, m, seed=m * 1000 + n)
        approx = solve_blocks(scores, n, backend=backend)
        exact = solve_blocks(scores, n, backend="exact")
        got = _retained(scores, approx)
        best = _retained(scores, exact)
        floor = self._GATES[backend]
        assert got >= floor * best, (
            f"{backend} retained {got:.6f} < {floor:.0%} of exact "
            f"{best:.6f} at m={m} n={n}"
        )


class TestGreedyAugmentRepair:
    def test_regression_pin(self):
        """A block where plain greedy strands quota: one row and one
        column stay under N, but filling them needs a swap.  The
        augmenting-path repair nets one extra entry and +4 score."""
        scores = np.array(
            [
                [5.0, 8.0, 5.0, 6.0],
                [8.0, 5.0, 8.0, 7.0],
                [9.0, 2.0, 8.0, 9.0],
                [10.0, 1.0, 9.0, 10.0],
            ]
        )
        mask = solve_block(scores, 3, backend="greedy")
        assert is_transposable(mask, 3)
        assert int(mask.sum()) == 11  # legacy greedy stranded at 10
        assert _retained(scores, mask) == pytest.approx(90.0)  # legacy: 86

    def test_repair_never_hurts(self):
        """Against exact, repaired greedy keeps cardinality maximal more
        often and never loses score to the pre-repair construction."""
        scores = _rand_blocks(60, 8, seed=21)
        greedy = solve_blocks(scores, 3, backend="greedy")
        exact = solve_blocks(scores, 3, backend="exact")
        # Exact fills to max cardinality; repaired greedy must match it
        # (the augmenting pass exists precisely to close the gap).
        assert int(greedy.sum()) == int(exact.sum())
