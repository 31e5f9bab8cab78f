"""Tests for the parity / SECDED metadata-protection model."""

import pytest

from repro.faults.ecc import ECCConfig, adjudicate, ecc_overhead_bytes, ecc_words


class TestConfig:
    def test_none_is_free(self):
        cfg = ECCConfig()
        assert not cfg.enabled
        assert cfg.check_bits == 0

    def test_parity_is_one_bit(self):
        assert ECCConfig(mode="parity").check_bits == 1

    def test_secded_16_bit_words_need_6_bits(self):
        # Hamming: r=5 covers 16 data bits (2^5 >= 16+5+1), +1 for SECDED.
        assert ECCConfig(mode="secded", word_bits=16).check_bits == 6

    def test_secded_8_bit_words_need_5_bits(self):
        assert ECCConfig(mode="secded", word_bits=8).check_bits == 5

    def test_secded_64_bit_words_need_8_bits(self):
        assert ECCConfig(mode="secded", word_bits=64).check_bits == 8

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ECCConfig(mode="chipkill")

    def test_rejects_bad_word_bits(self):
        with pytest.raises(ValueError):
            ECCConfig(word_bits=0)


class TestOverheads:
    def test_disabled_costs_nothing(self):
        assert ecc_overhead_bytes(1024, ECCConfig()) == 0
        assert ecc_words(1024, ECCConfig()) == 0

    def test_secded_overhead_scales_with_words(self):
        cfg = ECCConfig(mode="secded", word_bits=16)
        # 32 B = 16 words x 6 check bits = 96 bits = 12 B.
        assert ecc_words(32, cfg) == 16
        assert ecc_overhead_bytes(32, cfg) == 12

    def test_partial_word_rounds_up(self):
        cfg = ECCConfig(mode="parity", word_bits=16)
        assert ecc_words(1, cfg) == 1  # 8 bits still occupy one word
        assert ecc_overhead_bytes(1, cfg) == 1

    def test_zero_metadata_means_zero_overhead(self):
        assert ecc_overhead_bytes(0, ECCConfig(mode="secded")) == 0


class TestAdjudication:
    SECDED = ECCConfig(mode="secded")
    PARITY = ECCConfig(mode="parity")

    def test_disabled_never_sees_anything(self):
        assert adjudicate({0: 1}, ECCConfig()) == "undetected"

    def test_secded_corrects_single(self):
        assert adjudicate({3: 1}, self.SECDED) == "corrected"

    def test_secded_detects_double(self):
        assert adjudicate({3: 2}, self.SECDED) == "detected"

    def test_secded_misses_triple(self):
        assert adjudicate({3: 3}, self.SECDED) == "undetected"

    def test_parity_detects_odd_misses_even(self):
        assert adjudicate({0: 1}, self.PARITY) == "detected"
        assert adjudicate({0: 2}, self.PARITY) == "undetected"
        assert adjudicate({0: 3}, self.PARITY) == "detected"

    def test_aggregate_is_pessimistic(self):
        # One corrected word + one detected word -> detected overall.
        assert adjudicate({0: 1, 1: 2}, self.SECDED) == "detected"
        # Any undetected word poisons the access.
        assert adjudicate({0: 1, 1: 3}, self.SECDED) == "undetected"

    def test_clean_words_pass(self):
        assert adjudicate({}, self.SECDED) == "corrected"
        assert adjudicate({0: 0}, self.SECDED) == "corrected"
