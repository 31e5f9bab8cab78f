"""Tests for the deterministic payload / mask / file fault injectors."""

import numpy as np
import pytest

from repro.core.sparsify import tbs_sparsify
from repro.faults.injectors import (
    FAULT_TARGETS,
    corrupt_file,
    inject_mask_stuck_at,
    inject_payload_bitflips,
    payload_targets,
)
from repro.formats import (
    BCSRCOOFormat,
    BitmapFormat,
    CSRFormat,
    DDCFormat,
    DenseFormat,
    EncodeSpec,
    SDCFormat,
)

FORMATS = {
    "dense": DenseFormat,
    "csr": CSRFormat,
    "sdc": SDCFormat,
    "ddc": DDCFormat,
    "bitmap": BitmapFormat,
    "bcsrcoo": BCSRCOOFormat,
}


def _case(seed=0, rows=16, cols=16, m=8, sparsity=0.75):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols))
    values[values == 0] = 1.0
    tbs = tbs_sparsify(values, m=m, sparsity=sparsity)
    return np.where(tbs.mask, values, 0.0), tbs


def _encode(fmt_name, expected, tbs, m=8):
    fmt = SDCFormat(group_rows=m) if fmt_name == "sdc" else FORMATS[fmt_name]()
    spec = EncodeSpec(tbs=tbs if fmt_name in ("ddc", "bcsrcoo") else None, block_size=m)
    return fmt, fmt.encode(expected, spec)


class TestTargets:
    def test_dense_has_only_values(self):
        assert payload_targets("dense") == ("values",)

    def test_csr_covers_everything(self):
        assert payload_targets("csr") == FAULT_TARGETS

    def test_bitmap_has_no_indices(self):
        assert payload_targets("bitmap") == ("values", "metadata")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            payload_targets("cuckoo")


class TestPayloadFlips:
    @pytest.mark.parametrize("fmt_name", sorted(FORMATS))
    def test_flip_changes_then_revert_restores(self, fmt_name):
        expected, tbs = _case()
        for target in payload_targets(fmt_name):
            fmt, encoded = _encode(fmt_name, expected, tbs)
            _, pristine = _encode(fmt_name, expected, tbs)
            record = inject_payload_bitflips(encoded, target, np.random.default_rng(7))
            assert record.injected, f"{fmt_name}/{target} should be injectable"
            record.revert(encoded)
            decoded = fmt.decode(encoded)
            np.testing.assert_array_equal(decoded, fmt.decode(pristine))

    def test_same_seed_same_flips(self):
        expected, tbs = _case()
        records = []
        for _ in range(2):
            _, encoded = _encode("csr", expected, tbs)
            records.append(inject_payload_bitflips(encoded, "indices", np.random.default_rng(11)))
        assert records[0].flips == records[1].flips

    def test_nbits_flips_that_many(self):
        expected, tbs = _case()
        _, encoded = _encode("csr", expected, tbs)
        record = inject_payload_bitflips(encoded, "values", np.random.default_rng(0), nbits=3)
        assert len(record.flips) == 3
        assert len({(f.element, f.bit) for f in record.flips}) == 3  # distinct

    def test_same_word_confines_metadata_flips(self):
        expected, tbs = _case()
        _, encoded = _encode("csr", expected, tbs)
        record = inject_payload_bitflips(
            encoded, "metadata", np.random.default_rng(0), nbits=2, same_word=True
        )
        assert len(record.meta_word_flips) == 1
        assert list(record.meta_word_flips.values()) == [2]

    def test_metadata_flips_carry_word_indices(self):
        expected, tbs = _case()
        _, encoded = _encode("bitmap", expected, tbs)
        record = inject_payload_bitflips(encoded, "metadata", np.random.default_rng(0))
        assert all(f.word >= 0 for f in record.flips)

    def test_value_flips_do_not(self):
        expected, tbs = _case()
        _, encoded = _encode("bitmap", expected, tbs)
        record = inject_payload_bitflips(encoded, "values", np.random.default_rng(0))
        assert all(f.word == -1 for f in record.flips)

    def test_ddc_metadata_flip_hits_one_info_word(self):
        expected, tbs = _case()
        fmt, encoded = _encode("ddc", expected, tbs)
        _, pristine = _encode("ddc", expected, tbs)
        record = inject_payload_bitflips(encoded, "metadata", np.random.default_rng(0))
        assert record.injected
        assert list(record.meta_word_flips.values()) == [1]
        # Revert must restore the Info table exactly (XOR involution on
        # the direction/n/offset fields).
        record.revert(encoded)
        np.testing.assert_array_equal(fmt.decode(encoded), fmt.decode(pristine))

    @pytest.mark.parametrize("word_bits", [8, 32])
    def test_ddc_info_flips_stay_in_the_16_bit_word(self, word_bits):
        """A DDC Info entry is 16 bits whatever the ECC word size: flips
        reach all of its bits and none beyond."""
        expected, tbs = _case()
        fmt, pristine = _encode("ddc", expected, tbs)
        hit = set()
        for seed in range(50):
            _, encoded = _encode("ddc", expected, tbs)
            record = inject_payload_bitflips(
                encoded, "metadata", np.random.default_rng(seed), word_bits=word_bits
            )
            hit.update(flip.bit for flip in record.flips)
            record.revert(encoded)
            np.testing.assert_array_equal(fmt.decode(encoded), fmt.decode(pristine))
        assert max(hit) < 16
        assert set(range(8, 16)) <= hit

    def test_ddc_payload_flip_targets_nonempty_block(self):
        expected, tbs = _case()
        _, encoded = _encode("ddc", expected, tbs)
        record = inject_payload_bitflips(encoded, "values", np.random.default_rng(0))
        assert record.injected
        assert all(f.block >= 0 for f in record.flips)

    def test_unknown_target_rejected(self):
        expected, tbs = _case()
        _, encoded = _encode("csr", expected, tbs)
        with pytest.raises(ValueError):
            inject_payload_bitflips(encoded, "parity", np.random.default_rng(0))

    def test_missing_target_returns_empty_record(self):
        expected, tbs = _case()
        _, encoded = _encode("dense", expected, tbs)
        record = inject_payload_bitflips(encoded, "indices", np.random.default_rng(0))
        assert not record.injected


class TestMaskStuckAt:
    def test_stuck_at_zero_clears_a_set_bit(self):
        mask = np.ones((4, 4), dtype=bool)
        faulty, (r, c), changed = inject_mask_stuck_at(mask, np.random.default_rng(0), 0)
        assert changed and not faulty[r, c]
        assert faulty.sum() == 15
        assert mask.all()  # input untouched

    def test_stuck_at_same_value_is_latent(self):
        mask = np.ones((4, 4), dtype=bool)
        _, _, changed = inject_mask_stuck_at(mask, np.random.default_rng(0), 1)
        assert not changed

    def test_rejects_bad_stuck_value(self):
        with pytest.raises(ValueError):
            inject_mask_stuck_at(np.ones((2, 2), dtype=bool), np.random.default_rng(0), 2)

    def test_rejects_empty_mask(self):
        with pytest.raises(ValueError):
            inject_mask_stuck_at(np.zeros((0, 2), dtype=bool), np.random.default_rng(0), 0)


class TestCorruptFile:
    def test_flip_changes_bytes_keeps_length(self, tmp_path):
        p = tmp_path / "ckpt.bin"
        p.write_bytes(bytes(range(64)))
        desc = corrupt_file(p, np.random.default_rng(0), mode="flip", nbytes=4)
        assert "flipped 4 bytes" in desc
        data = p.read_bytes()
        assert len(data) == 64 and data != bytes(range(64))

    def test_truncate_shortens(self, tmp_path):
        p = tmp_path / "ckpt.bin"
        p.write_bytes(bytes(64))
        corrupt_file(p, np.random.default_rng(0), mode="truncate")
        assert len(p.read_bytes()) < 64

    def test_rejects_unknown_mode(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"x")
        with pytest.raises(ValueError):
            corrupt_file(p, np.random.default_rng(0), mode="shred")

    def test_rejects_empty_file(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_file(p, np.random.default_rng(0))
