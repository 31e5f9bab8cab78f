"""Unit tests for repro.core.patterns."""

import math

import pytest

from repro.core.patterns import (
    NMConfig,
    PatternFamily,
    PatternSpec,
    default_candidates,
    is_power_of_two,
    log2_choose,
    nearest_candidates_grid,
)


class TestNMConfig:
    def test_str(self):
        assert str(NMConfig(4, 8)) == "4:8"

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            NMConfig(-1, 4)

    def test_rejects_n_above_m(self):
        with pytest.raises(ValueError):
            NMConfig(5, 4)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            NMConfig(0, 0)


class TestDefaultCandidates:
    def test_paper_configuration(self):
        # Sec. VII-A3: M = 8, N in {0, 1, 2, 4, 8}.
        assert default_candidates(8) == (0, 1, 2, 4, 8)

    def test_m4(self):
        assert default_candidates(4) == (0, 1, 2, 4)

    def test_m16(self):
        assert default_candidates(16) == (0, 1, 2, 4, 8, 16)

    def test_non_power_of_two_m_includes_m(self):
        cands = default_candidates(6)
        assert 6 in cands and 0 in cands

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_candidates(0)


class TestNearestCandidate:
    def test_exact_match(self):
        assert nearest_candidates_grid(0.25, 8, (0, 1, 2, 4, 8)) == 2

    def test_rounds_to_closest(self):
        assert nearest_candidates_grid(0.3, 8, (0, 1, 2, 4, 8)) == 2
        assert nearest_candidates_grid(0.45, 8, (0, 1, 2, 4, 8)) == 4

    def test_tie_prefers_smaller(self):
        # density 0.1875 is equidistant from 1/8 and 2/8.
        assert nearest_candidates_grid(0.1875, 8, (0, 1, 2, 4, 8)) == 1

    def test_zero_density(self):
        assert nearest_candidates_grid(0.0, 8, (0, 1, 2, 4, 8)) == 0

    def test_full_density(self):
        assert nearest_candidates_grid(1.0, 8, (0, 1, 2, 4, 8)) == 8

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            nearest_candidates_grid(0.5, 8, ())


class TestPatternSpec:
    def test_default_candidates_injected(self):
        spec = PatternSpec(PatternFamily.TBS, m=8, sparsity=0.75)
        assert spec.candidates == (0, 1, 2, 4, 8)

    def test_ts_derives_fixed_n(self):
        spec = PatternSpec(PatternFamily.TS, m=8, sparsity=0.5)
        assert spec.fixed_n == 4  # the paper's 4:8 TS baseline

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            PatternSpec(PatternFamily.US, sparsity=1.5)

    def test_rejects_bad_candidates(self):
        with pytest.raises(ValueError):
            PatternSpec(PatternFamily.TBS, m=4, candidates=(0, 9))


class TestHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(8)
        assert not is_power_of_two(0) and not is_power_of_two(6)

    def test_log2_choose_matches_exact(self):
        for n in range(1, 20):
            for k in range(n + 1):
                assert log2_choose(n, k) == pytest.approx(math.log2(math.comb(n, k)), abs=1e-9)

    def test_log2_choose_out_of_range(self):
        assert log2_choose(4, 5) == float("-inf")
        assert log2_choose(4, -1) == float("-inf")
