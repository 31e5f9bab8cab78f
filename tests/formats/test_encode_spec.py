"""Tests for EncodeSpec and SparseFormat.encode()'s spec contract."""

import numpy as np
import pytest

from repro.core import tbs_sparsify
from repro.formats import CSRFormat, DenseFormat, EncodeSpec


class TestEncodeSpec:
    def test_defaults(self):
        spec = EncodeSpec()
        assert spec.mask is None
        assert spec.tbs is None
        assert spec.block_size == 8
        assert spec.orientation == "forward"

    def test_frozen(self):
        with pytest.raises(Exception):
            EncodeSpec().block_size = 4  # type: ignore[misc]

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            EncodeSpec(block_size=0)

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValueError, match="orientation"):
            EncodeSpec(orientation="diagonal")

    def test_effective_block_size_prefers_tbs(self):
        res = tbs_sparsify(np.random.default_rng(0).normal(size=(16, 16)), m=8)
        assert EncodeSpec(tbs=res, block_size=4).effective_block_size == 8
        assert EncodeSpec(block_size=4).effective_block_size == 4

    def test_encode_stamps_orientation_and_block_size(self):
        enc = DenseFormat().encode(
            np.ones((8, 8)), EncodeSpec(block_size=4, orientation="transposed")
        )
        assert enc.orientation == "transposed"
        assert enc.block_size == 4
        assert enc.trace() == enc.trace("transposed")  # default follows the spec


class TestEncodeSignature:
    def test_loose_spec_kwargs_raise(self):
        """Every knob travels in EncodeSpec; a loose keyword is an error."""
        mask = np.ones((8, 8), dtype=bool)
        with pytest.raises(TypeError, match="mask"):
            CSRFormat().encode(np.ones((8, 8)), mask=mask)

    def test_rejects_unknown_kwarg(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            CSRFormat().encode(np.ones((8, 8)), turbo=True)
