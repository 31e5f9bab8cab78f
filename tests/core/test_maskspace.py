"""Unit tests for the mask-space formulas (Eqs. 1-4)."""

import math

import pytest

from repro.core.maskspace import (
    _candidate_exponents,
    _check_dims,
    log2_maskspace_rs_h,
    log2_maskspace_rs_v,
    log2_maskspace_tbs,
    log2_maskspace_ts,
    log2_maskspace_us,
    maskspace_table,
)


# Exact big-integer mask-space counts: the oracle the log2 formulas are
# checked against on matrices small enough to count exactly.


def exact_maskspace_ts(x: int, y: int, m: int) -> int:
    _check_dims(x, y, m)
    tiles = x * y // m
    return sum(math.comb(m, 2**i) ** tiles for i in _candidate_exponents(m))


def exact_maskspace_rs_v(x: int, y: int, m: int) -> int:
    _check_dims(x, y, m)
    per_row = sum(math.comb(m, 2**i) ** (y // m) for i in _candidate_exponents(m))
    return per_row**x


def exact_maskspace_tbs(x: int, y: int, m: int) -> int:
    _check_dims(x, y, m)
    per_block = sum(2 * math.comb(m, 2**i) ** m for i in _candidate_exponents(m))
    return per_block ** (x * y // (m * m))


class TestLogMatchesExact:
    @pytest.mark.parametrize("x,y,m", [(4, 4, 4), (8, 8, 4), (8, 8, 8), (16, 8, 8)])
    def test_ts(self, x, y, m):
        assert log2_maskspace_ts(x, y, m) == pytest.approx(math.log2(exact_maskspace_ts(x, y, m)), rel=1e-9)

    @pytest.mark.parametrize("x,y,m", [(4, 4, 4), (8, 8, 4), (8, 8, 8)])
    def test_rs_v(self, x, y, m):
        assert log2_maskspace_rs_v(x, y, m) == pytest.approx(
            math.log2(exact_maskspace_rs_v(x, y, m)), rel=1e-9
        )

    @pytest.mark.parametrize("x,y,m", [(4, 4, 4), (8, 8, 8), (16, 16, 8)])
    def test_tbs(self, x, y, m):
        assert log2_maskspace_tbs(x, y, m) == pytest.approx(
            math.log2(exact_maskspace_tbs(x, y, m)), rel=1e-9
        )


class TestOrdering:
    """The paper's Fig. 4(c) hierarchy: TS <= RS-V < TBS < US."""

    @pytest.mark.parametrize("x,m", [(64, 8), (128, 8), (256, 8), (64, 4)])
    def test_hierarchy(self, x, m):
        ts = log2_maskspace_ts(x, x, m)
        rs_v = log2_maskspace_rs_v(x, x, m)
        tbs = log2_maskspace_tbs(x, x, m)
        us = log2_maskspace_us(x, x)
        assert ts <= rs_v < tbs < us

    def test_rs_h_comparable_to_other_rowwise(self):
        # Eq. (3) as printed is dominated by its i = M term, which makes
        # RS-H land within a whisker of TS/RS-V; we assert it stays in the
        # structured band (>= 99.9% of TS, strictly below TBS).
        rs_h = log2_maskspace_rs_h(64, 64, 8)
        assert rs_h >= 0.999 * log2_maskspace_ts(64, 64, 8)
        assert rs_h < log2_maskspace_tbs(64, 64, 8)

    def test_tbs_dominates_rowwise(self):
        # TBS adds per-block N *and* direction freedom over row-wise.
        for x in (64, 128):
            assert log2_maskspace_tbs(x, x, 8) > log2_maskspace_rs_v(x, x, 8)


class TestValidation:
    def test_rejects_non_power_of_two_m(self):
        with pytest.raises(ValueError):
            log2_maskspace_ts(8, 8, 6)

    def test_rejects_unaligned_dims(self):
        with pytest.raises(ValueError):
            log2_maskspace_tbs(10, 8, 8)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            log2_maskspace_rs_v(0, 8, 8)

    def test_us_at_half_sparsity(self):
        # C(4, 2) = 6 masks on a 2x2 matrix at 50%.
        assert log2_maskspace_us(2, 2, 0.5) == pytest.approx(math.log2(6))


class TestTable:
    def test_table_keys(self):
        table = maskspace_table(64, 64, 8)
        assert set(table) == {"TS", "RS-V", "RS-H", "TBS", "US"}

    def test_table_values_finite(self):
        table = maskspace_table(64, 64, 8)
        assert all(math.isfinite(v) and v > 0 for v in table.values())

    def test_scaling_with_matrix_size(self):
        small = maskspace_table(64, 64, 8)
        large = maskspace_table(128, 128, 8)
        # Mask-space grows ~4x in log domain when the area grows 4x.
        for key in ("TS", "RS-V", "TBS"):
            assert large[key] == pytest.approx(4 * small[key], rel=0.05)
