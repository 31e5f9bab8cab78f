"""Tests for sweep specifications (cells, refs, seeds)."""

import pytest

from repro.sweep import SweepCell, SweepSpec, derive_seed, fn_ref, resolve_fn

from . import _cells


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_varies_with_parts_and_base(self):
        seeds = {derive_seed(0, "a"), derive_seed(0, "b"), derive_seed(1, "a")}
        assert len(seeds) == 3

    def test_fits_32_bits(self):
        for part in range(50):
            assert 0 <= derive_seed(7, part) < 2**32


class TestFnRef:
    def test_roundtrip(self):
        ref = fn_ref(_cells.add)
        assert ref == "tests.sweep._cells:add"
        assert resolve_fn(ref) is _cells.add

    def test_accepts_existing_ref_string(self):
        assert fn_ref("tests.sweep._cells:add") == "tests.sweep._cells:add"

    def test_rejects_lambda(self):
        with pytest.raises(ValueError, match="module-level"):
            fn_ref(lambda x: x)

    def test_rejects_malformed_ref(self):
        with pytest.raises(ValueError, match="malformed"):
            resolve_fn("no-colon-here")

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError, match="non-callable"):
            resolve_fn("tests.sweep._cells:__doc__")


class TestSweepCell:
    def test_normalizes_fn_to_ref(self):
        cell = SweepCell(key="k", fn=_cells.square, kwargs={"x": 3})
        assert cell.fn == "tests.sweep._cells:square"

    def test_payload_is_logical_identity(self):
        cell = SweepCell(key="k", fn=_cells.square, kwargs={"x": 3}, seed=5)
        assert cell.payload() == {
            "fn": "tests.sweep._cells:square",
            "kwargs": {"x": 3},
            "seed": 5,
        }


class TestSweepSpec:
    def test_rejects_duplicate_keys(self):
        cells = (
            SweepCell(key="k", fn=_cells.square, kwargs={"x": 1}),
            SweepCell(key="k", fn=_cells.square, kwargs={"x": 2}),
        )
        with pytest.raises(ValueError, match="duplicate cell key"):
            SweepSpec("s", cells)

    def test_len(self):
        cells = tuple(
            SweepCell(key=f"k{i}", fn=_cells.square, kwargs={"x": i}) for i in range(4)
        )
        assert len(SweepSpec("s", cells)) == 4
