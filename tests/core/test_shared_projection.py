"""Shared projection inputs equal fresh ones, and are counted once.

Every pattern family reads the unstructured top-k mask and the M-group
ranks of ``|W|``.  Of a matrix no caller can write (read-only down to
the array owning its data, as the weights memo hands out), each input
is counted once and kept in one memo; any other matrix is counted fresh
through the same code.  These tests pin that contract:

* any family, in any order, projects a read-only matrix to the same mask
  bytes, dtype and strides, and the same TBS metadata, as a writable
  copy projected cold;
* on one Fig. 13 model the rank count runs once per (matrix, direction)
  and the top-k once per (matrix, sparsity);
* no write, view, dead owner or reset can make the memo serve a stale
  array;
* Fig. 13 cells give the same payload cold and warm, whichever
  architecture counts first.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.masks as masks
from repro.analysis.experiments import _fig13_cell
from repro.core.masks import unstructured_mask
from repro.core.patterns import PatternFamily
from repro.core.sparsify import tbs_sparsify
from repro.core.transposable import transposable_sparsify
from repro.sim.engine import clear_cost_memo
from repro.workloads.generator import pattern_mask, synthetic_weights
from repro.workloads.layers import MODEL_LAYERS
from repro.workloads.models import ISO_ACCURACY_SPARSITY

FAMILIES = (
    PatternFamily.US,
    PatternFamily.TS,
    PatternFamily.RS_V,
    PatternFamily.RS_H,
    PatternFamily.TBS,
    PatternFamily.NMT,
)
ARCHS = ("TC", "STC", "VEGETA", "HighLight", "RM-STC", "TB-STC")


@pytest.fixture(autouse=True)
def _empty_memos():
    clear_cost_memo()
    yield
    clear_cost_memo()


def _project(family, scores, m, sparsity):
    """The mask, block N and block directions one family gives ``scores``."""
    if family is PatternFamily.TBS:
        res = tbs_sparsify(scores, m=m, sparsity=sparsity)
        return res.mask, res.block_n, res.block_direction
    if family is PatternFamily.NMT:
        mask, block_n = transposable_sparsify(scores, m=m, sparsity=sparsity)
        return mask, block_n, None
    if family is PatternFamily.US:
        return unstructured_mask(scores, sparsity), None, None
    return pattern_mask(scores, family, sparsity, m=m)[0], None, None


def _assert_same(got, want):
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.strides == b.strides
        assert a.tobytes() == b.tobytes()


def _read_only(array):
    owned = np.array(array)
    owned.setflags(write=False)
    return owned


def _scores(seed, rows, cols, ties):
    rng = np.random.default_rng(seed)
    if ties:
        return rng.integers(-3, 4, size=(rows, cols)).astype(np.float64)
    return rng.laplace(size=(rows, cols))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 40),
    cols=st.integers(1, 72),
    m=st.sampled_from([4, 8, 16]),
    aligned=st.booleans(),
    ties=st.booleans(),
    sparsities=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.625, 0.75, 1.0]), min_size=1, max_size=3),
    order=st.permutations(FAMILIES),
)
def test_shared_projection_equals_fresh(seed, rows, cols, m, aligned, ties, sparsities, order):
    """Ragged and aligned shapes, rows or cols below M, cols off 32."""
    if aligned:
        rows, cols = -(-rows // m) * m, -(-cols // m) * m
    clear_cost_memo()
    scores = _scores(seed, rows, cols, ties)
    shared = _read_only(scores)
    for sparsity in sparsities:
        for family in order:
            want = _project(family, scores.copy(), m, sparsity)
            _assert_same(_project(family, shared, m, sparsity), want)
    assert len(masks._PROJECTIONS) > 0  # the read-only matrix was shared
    # A writable copy never enters the memo.
    clear_cost_memo()
    for family in order:
        _project(family, scores.copy(), m, sparsities[0])
    assert len(masks._PROJECTIONS) == 0


class _Counting:
    """Records every rank count and top-k the projections run."""

    def __init__(self, monkeypatch):
        self.ranks = Counter()
        self.top_k = Counter()
        count_ranks, keep_top_k = masks._count_ranks, masks._keep_top_k

        def ranks(groups):
            self.ranks[groups.shape] += 1
            return count_ranks(groups)

        def top_k(magnitudes, sparsity):
            self.top_k[(magnitudes.shape, sparsity)] += 1
            return keep_top_k(magnitudes, sparsity)

        monkeypatch.setattr(masks, "_count_ranks", ranks)
        monkeypatch.setattr(masks, "_keep_top_k", top_k)


@pytest.mark.parametrize("model", ["resnet50", "bert"])
def test_one_count_per_matrix_direction_and_sparsity(model, monkeypatch):
    """Fig. 13 counts each input once over all six architectures.

    Full-layer rank passes are the M = 8 ones; RS-H's coarse level ranks
    its super-groups of 4 tiles per call, and stays per call.
    """
    counting = _Counting(monkeypatch)
    for arch in ARCHS:
        _fig13_cell(model, arch, scale=8, seed=0)
    layers = [spec.scaled(8, m=8) for spec in MODEL_LAYERS[model][0]()]
    full = Counter({shape: n for shape, n in counting.ranks.items() if shape[0] == 8})
    want_ranks, want_top_k = Counter(), Counter()
    # US and TBS prune to one sparsity, RS-V and RS-H to another.
    pruned = (PatternFamily.US, PatternFamily.RS_V, PatternFamily.RS_H, PatternFamily.TBS)
    sparsities = {ISO_ACCURACY_SPARSITY[model][f] for f in pruned}
    for layer in layers:
        want_ranks[(8, layer.rows, layer.cols // 8)] += 1  # the row groups
        want_ranks[(8, layer.rows // 8, layer.cols)] += 1  # the column groups
        for sparsity in sparsities:
            want_top_k[((layer.rows, layer.cols), sparsity)] += 1
    assert full == want_ranks
    assert sum(full.values()) == 2 * len(layers)
    assert counting.top_k == want_top_k
    assert sum(counting.top_k.values()) == 2 * len(layers)


class TestNoStaleHits:
    M = 8

    def _check(self, scores, family, sparsity=0.5):
        got = _project(family, scores, self.M, sparsity)
        _assert_same(got, _project(family, np.array(scores), self.M, sparsity))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_writable_matrix_mutated_between_calls(self, family):
        scores = _scores(0, 24, 32, ties=False)
        self._check(scores, family)
        scores[:, ::3] *= -7.5
        scores[5] = 0.0
        self._check(scores, family)
        assert len(masks._PROJECTIONS) == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_read_only_view_of_a_writable_base(self, family):
        base = _scores(1, 24, 32, ties=False)
        view = base[:, :]
        view.setflags(write=False)
        self._check(view, family)
        base[::2] = base[::2][:, ::-1]
        self._check(view, family)
        assert len(masks._PROJECTIONS) == 0

    def test_an_entry_of_a_dead_owner_never_hits(self):
        """A memo entry names its owner by ``id``; a reused ``id`` misses."""
        scores = _read_only(_scores(2, 16, 16, ties=False))
        dead = _read_only(scores)
        planted = np.zeros(scores.shape, dtype=bool)
        masks._PROJECTIONS.put((id(scores), "top_k", 0.5), planted, owner=dead)
        del dead  # the entry now names a dead owner under ``scores``'s id
        got = unstructured_mask(scores, 0.5)
        assert got.any()
        np.testing.assert_array_equal(got, unstructured_mask(np.array(scores), 0.5))

    def test_clear_cost_memo_empties_it(self, monkeypatch):
        scores = synthetic_weights(32, 64, seed=3)
        first = tbs_sparsify(scores, m=self.M, sparsity=0.75)
        assert len(masks._PROJECTIONS) == 3  # row ranks, column ranks, top-k
        assert masks._PROJECTIONS.nbytes == 3 * scores.size  # 1 B per weight each
        clear_cost_memo()
        assert len(masks._PROJECTIONS) == 0
        counting = _Counting(monkeypatch)
        again = tbs_sparsify(scores, m=self.M, sparsity=0.75)
        assert sum(counting.ranks.values()) == 2
        assert sum(counting.top_k.values()) == 1
        np.testing.assert_array_equal(again.mask, first.mask)
        np.testing.assert_array_equal(again.block_direction, first.block_direction)

    def test_shared_arrays_are_read_only_and_callers_get_a_copy(self):
        scores = synthetic_weights(32, 64, seed=4)
        mask = unstructured_mask(scores, 0.5)
        assert mask.flags.writeable
        mask[:] = False  # the caller's own copy
        assert unstructured_mask(scores, 0.5).any()
        tbs_sparsify(scores, m=self.M, sparsity=0.5)
        assert len(masks._PROJECTIONS) == 3
        for value, _size, _owner in masks._PROJECTIONS._entries.values():
            assert not value.flags.writeable


@pytest.mark.parametrize("model", ["resnet50", "bert"])
def test_fig13_cells_equal_cold_and_warm(model):
    """TB-STC run before and after TC (which counts the shared top-k first)."""
    cold_tbstc = _fig13_cell(model, "TB-STC", scale=8, seed=0)
    clear_cost_memo()
    cold_tc = _fig13_cell(model, "TC", scale=8, seed=0)
    assert _fig13_cell(model, "TB-STC", scale=8, seed=0) == cold_tbstc
    clear_cost_memo()
    _fig13_cell(model, "TB-STC", scale=8, seed=0)
    assert _fig13_cell(model, "TC", scale=8, seed=0) == cold_tc
    for arch in ARCHS:
        warm = _fig13_cell(model, arch, scale=8, seed=0)
        clear_cost_memo()
        assert _fig13_cell(model, arch, scale=8, seed=0) == warm
