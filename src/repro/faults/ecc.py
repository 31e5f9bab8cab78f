"""Parity / SECDED protection model for format metadata words.

Compressed-format metadata (DDC Info-table entries, CSR row pointers,
bitmap occupancy words, SDC validity flags) is the highest-leverage
target for a bit flip: a single wrong metadata bit silently reshapes the
decoded matrix, which is exactly the silent-data-corruption mode Mishra
et al.'s Sparse-Tensor-Core analysis worries about.  This module models
the standard hardware countermeasures at word granularity:

* ``parity``  -- one check bit per ``word_bits`` metadata bits; detects
  any odd number of flips in a word, corrects nothing;
* ``secded``  -- Hamming single-error-correct / double-error-detect;
  corrects one flip per word, detects two, and (like real SECDED) can
  *miscorrect* three or more.

The model is deliberately arithmetic, not a bit-level codec: the
injectors record how many bits flipped in each protected word, and
:func:`adjudicate` maps that histogram onto the code's guarantees.  The
storage cost (:func:`ecc_overhead_bytes`) flows into the format traffic
model and the per-word encode/decode energy into the energy model, so a
protected architecture variant is directly comparable to an unprotected
one on the simulator's usual axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "ECC_MODES",
    "ECCConfig",
    "ecc_overhead_bytes",
    "ecc_words",
    "adjudicate",
]

ECC_MODES = ("none", "parity", "secded")

#: Adjudication outcomes for one injection against one ECC config.
#: ``corrected`` -- every flipped word had exactly the code's correction
#: capability; ``detected`` -- at least one word was flagged but not
#: fixable; ``undetected`` -- some word's corruption slipped through.
ADJUDICATIONS = ("corrected", "detected", "undetected")


def _hamming_check_bits(data_bits: int) -> int:
    """Minimal r with ``2**r >= data_bits + r + 1`` (plus 1 for SECDED)."""
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r + 1  # extra overall-parity bit upgrades SEC to SECDED


@dataclass(frozen=True)
class ECCConfig:
    """Protection applied to format metadata, word by word."""

    mode: str = "none"
    word_bits: int = 16

    def __post_init__(self) -> None:
        if self.mode not in ECC_MODES:
            raise ValueError(f"ecc mode must be one of {ECC_MODES}, got {self.mode!r}")
        if self.word_bits < 1:
            raise ValueError("word_bits must be positive")

    @property
    def enabled(self) -> bool:
        return self.mode != "none"

    @property
    def check_bits(self) -> int:
        """Check bits appended to each ``word_bits``-bit metadata word."""
        if self.mode == "none":
            return 0
        if self.mode == "parity":
            return 1
        return _hamming_check_bits(self.word_bits)


def ecc_overhead_bytes(meta_bytes: float, config: ECCConfig) -> int:
    """Check-bit storage for ``meta_bytes`` of protected metadata."""
    if not config.enabled or meta_bytes <= 0:
        return 0
    words = math.ceil(meta_bytes * 8 / config.word_bits)
    return int(math.ceil(words * config.check_bits / 8))


def ecc_words(meta_bytes: float, config: ECCConfig) -> int:
    """How many protected words ``meta_bytes`` of metadata occupies."""
    if not config.enabled or meta_bytes <= 0:
        return 0
    return int(math.ceil(meta_bytes * 8 / config.word_bits))


def adjudicate(flips_per_word: Mapping[int, int], config: ECCConfig) -> str:
    """Outcome of the code checking words with the given flip counts.

    ``flips_per_word`` maps a word index to how many of its bits an
    injector flipped (zero-flip entries are ignored).  The aggregate
    outcome is pessimistic: one undetected word poisons the whole
    access, and one detected-but-uncorrectable word forces a fault
    report even if every other word was corrected.
    """
    if not config.enabled:
        return "undetected"
    worst = "corrected"
    any_flips = False
    for flips in flips_per_word.values():
        if flips <= 0:
            continue
        any_flips = True
        if config.mode == "parity":
            outcome = "detected" if flips % 2 == 1 else "undetected"
        else:  # secded
            if flips == 1:
                outcome = "corrected"
            elif flips == 2:
                outcome = "detected"
            else:  # >= 3 flips can alias to a valid-looking syndrome
                outcome = "undetected"
        if outcome == "undetected":
            return "undetected"
        if outcome == "detected":
            worst = "detected"
    if not any_flips:
        return "corrected"  # nothing to fix: the clean codeword passes
    return worst
