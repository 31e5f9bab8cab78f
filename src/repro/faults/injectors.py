"""Deterministic fault injectors for encoded payloads, masks and files.

Every injector draws from a caller-supplied ``np.random.Generator`` and
records exactly what it flipped, so a campaign is bit-reproducible from
its seed and a SECDED model can *undo* a correctable flip.  Three fault
surfaces are covered:

* **encoded payloads** -- single/multi bit flips in a storage format's
  value, index or metadata arrays (:func:`inject_payload_bitflips`),
  with per-format target resolution (``dense`` has no indices, DDC's
  metadata is its 16-bit Info words, bitmap's is the occupancy bitmap);
* **masks** -- stuck-at-0/1 faults on individual mask bits
  (:func:`inject_mask_stuck_at`), modelling corruption upstream of the
  encoder;
* **files** -- truncation or byte garbling of checkpoint/cache files
  (:func:`corrupt_file`), exercising the checkpoint digest verification.

Flips are applied **in place** on the ``EncodedMatrix`` arrays; use
:meth:`InjectionRecord.revert` (bit flips are involutive) to restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from ..formats.base import DDC_INFO_BYTES, EncodedMatrix

__all__ = [
    "FAULT_TARGETS",
    "BitFlip",
    "InjectionRecord",
    "payload_targets",
    "inject_payload_bitflips",
    "inject_mask_stuck_at",
    "corrupt_file",
]

#: Injectable targets, in the order fault models name them.
FAULT_TARGETS = ("values", "indices", "metadata")

#: Which arrays of each format realise each target.  A format missing a
#: target (dense has no indices) is simply not injectable there.
_TARGET_ARRAYS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "dense": {"values": ("dense",), "indices": (), "metadata": ()},
    "csr": {"values": ("values",), "indices": ("col_idx",), "metadata": ("row_ptr",)},
    "sdc": {"values": ("values",), "indices": ("indices",), "metadata": ("valid",)},
    "ddc": {"values": ("values",), "indices": ("indices",), "metadata": ("info",)},
    "bitmap": {"values": ("values",), "indices": (), "metadata": ("bitmap",)},
    "bcsrcoo": {
        "values": ("values",),
        "indices": ("bitmaps",),
        "metadata": ("row_ptr", "col_idx", "row_idx", "t_order", "block_ptr"),
    },
}

#: DDC Info-word field layout: 1b dimension + 3b ratio + 12b offset.
_DDC_DIR_BITS = 1
_DDC_N_BITS = 3
_DDC_INFO_BITS = DDC_INFO_BYTES * 8


@dataclass(frozen=True)
class BitFlip:
    """One flipped bit: which array, which element, which bit."""

    key: str  #: array key inside ``EncodedMatrix.arrays``
    element: int  #: flat element index (slot within a block for DDC payloads)
    bit: int  #: bit within the element's representation
    word: int  #: protected-metadata word index (-1 when not metadata)
    block: int = -1  #: DDC payload block slot (-1 for flat arrays)


@dataclass
class InjectionRecord:
    """Everything one injection did, sufficient to adjudicate and undo."""

    format_name: str
    target: str
    flips: List[BitFlip] = field(default_factory=list)

    @property
    def injected(self) -> bool:
        return bool(self.flips)

    @property
    def meta_word_flips(self) -> Dict[int, int]:
        """Flips per protected metadata word (ECC adjudication input)."""
        words: Dict[int, int] = {}
        for flip in self.flips:
            if flip.word >= 0:
                words[flip.word] = words.get(flip.word, 0) + 1
        return words

    def revert(self, encoded: EncodedMatrix) -> None:
        """Undo the injection (XOR flips are their own inverse)."""
        for flip in self.flips:
            _apply_flip(encoded, self.format_name, self.target, flip)


def payload_targets(format_name: str) -> Tuple[str, ...]:
    """Targets actually injectable for ``format_name``."""
    table = _TARGET_ARRAYS.get(format_name)
    if table is None:
        raise ValueError(f"unknown format {format_name!r}")
    return tuple(t for t in FAULT_TARGETS if table[t])


def _flip_ndarray_bit(arr: np.ndarray, element: int, bit: int) -> None:
    """Flip one bit of one element, in place (bool arrays toggle)."""
    flat = arr.reshape(-1)
    if arr.dtype == bool:
        flat[element] = not flat[element]
        return
    view = flat[element : element + 1].view(np.uint8)
    view[bit // 8] ^= np.uint8(1 << (bit % 8))


def _flip_ddc_info_bit(info: np.ndarray, block: int, bit: int) -> None:
    """Flip one bit of a DDC Info word (direction | n | offset fields)."""
    if bit < _DDC_DIR_BITS:
        field_name, shift = "direction", bit
    elif bit < _DDC_DIR_BITS + _DDC_N_BITS:
        field_name, shift = "n", bit - _DDC_DIR_BITS
    else:
        field_name, shift = "offset", bit - _DDC_DIR_BITS - _DDC_N_BITS
    info[field_name][block] ^= 1 << shift


def _apply_flip(encoded: EncodedMatrix, format_name: str, target: str, flip: BitFlip) -> None:
    arr = encoded.arrays[flip.key]
    if format_name == "ddc" and target == "metadata":
        _flip_ddc_info_bit(arr, flip.element, flip.bit)
    elif flip.block >= 0:  # DDC payload: element is a slot of the block's run
        start = int(encoded.arrays["block_ptr"][flip.block])
        _flip_ndarray_bit(arr, start + flip.element, flip.bit)
    else:
        _flip_ndarray_bit(arr, flip.element, flip.bit)


def _bits_per_element(arr: np.ndarray) -> int:
    # A bool "element" is one logical bit (bitmap / validity metadata).
    return 1 if arr.dtype == bool else arr.dtype.itemsize * 8


def _metadata_word(arr: np.ndarray, element: int, bit: int, word_bits: int) -> int:
    """Index of the protected word a metadata bit falls in."""
    global_bit = element * _bits_per_element(arr) + bit
    return global_bit // word_bits


def inject_payload_bitflips(
    encoded: EncodedMatrix,
    target: str,
    rng: np.random.Generator,
    nbits: int = 1,
    same_word: bool = False,
    word_bits: int = 16,
) -> InjectionRecord:
    """Flip ``nbits`` distinct random bits of one target array, in place.

    ``same_word=True`` confines all flips to one protected metadata word
    (the interesting case for SECDED's double-error detection).  Returns
    a record with no flips when the format has no such target or the
    target array is empty -- the caller classifies that trial as not
    applicable.
    """
    if target not in FAULT_TARGETS:
        raise ValueError(f"target must be one of {FAULT_TARGETS}, got {target!r}")
    if nbits < 1:
        raise ValueError("nbits must be >= 1")
    record = InjectionRecord(encoded.format_name, target)
    keys = _TARGET_ARRAYS[encoded.format_name][target]
    keys = [k for k in keys if encoded.arrays.get(k) is not None and encoded.arrays[k].size]
    if not keys:
        return record
    key = keys[int(rng.integers(len(keys)))]
    arr = encoded.arrays[key]

    if encoded.format_name == "ddc" and target == "metadata":
        # One Info word per block, whatever the ECC word size: the flips
        # land in the word's own bits.
        block = int(rng.integers(arr.size))
        bits = _sample_bits(rng, _DDC_INFO_BITS, min(nbits, _DDC_INFO_BITS))
        for bit in bits:
            flip = BitFlip(key, block, int(bit), word=block)
            _apply_flip(encoded, encoded.format_name, target, flip)
            record.flips.append(flip)
        return record

    if encoded.format_name == "ddc":
        # Pick a non-empty block's payload run, then bits within it.
        block_ptr = encoded.arrays["block_ptr"]
        candidates = np.flatnonzero(np.diff(block_ptr))
        block = int(candidates[int(rng.integers(candidates.size))])
        per_elem = _bits_per_element(arr)
        total_bits = int(block_ptr[block + 1] - block_ptr[block]) * per_elem
        for pos in _sample_bits(rng, total_bits, min(nbits, total_bits)):
            flip = BitFlip(key, int(pos) // per_elem, int(pos) % per_elem, word=-1, block=block)
            _apply_flip(encoded, encoded.format_name, target, flip)
            record.flips.append(flip)
        return record

    per_elem = _bits_per_element(arr)
    total_bits = arr.size * per_elem
    if same_word and target == "metadata":
        # Pick one word, then distinct bits within its span.
        n_words = max(1, -(-total_bits // word_bits))
        word = int(rng.integers(n_words))
        lo = word * word_bits
        span = min(word_bits, total_bits - lo)
        positions = lo + _sample_bits(rng, span, min(nbits, span))
    else:
        positions = _sample_bits(rng, total_bits, min(nbits, total_bits))
    for pos in positions:
        element, bit = int(pos) // per_elem, int(pos) % per_elem
        word = (
            _metadata_word(arr, element, bit, word_bits)
            if target == "metadata"
            else -1
        )
        flip = BitFlip(key, element, bit, word=word)
        _apply_flip(encoded, encoded.format_name, target, flip)
        record.flips.append(flip)
    return record


def _sample_bits(rng: np.random.Generator, space: int, count: int) -> np.ndarray:
    return rng.choice(space, size=count, replace=False)


def inject_mask_stuck_at(
    mask: np.ndarray, rng: np.random.Generator, stuck: int
) -> Tuple[np.ndarray, Tuple[int, int], bool]:
    """Force one random mask bit to ``stuck`` (0 or 1).

    Returns ``(faulty_mask, (row, col), changed)`` -- ``changed`` is
    False when the chosen bit already held the stuck value (the fault is
    latent and the trial is benign by construction).
    """
    if stuck not in (0, 1):
        raise ValueError("stuck must be 0 or 1")
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        raise ValueError("cannot inject into an empty mask")
    r = int(rng.integers(mask.shape[0]))
    c = int(rng.integers(mask.shape[1]))
    faulty = mask.copy()
    changed = bool(faulty[r, c]) != bool(stuck)
    faulty[r, c] = bool(stuck)
    return faulty, (r, c), changed


def corrupt_file(
    path: Union[str, Path],
    rng: np.random.Generator,
    mode: str = "flip",
    nbytes: int = 8,
) -> str:
    """Corrupt a file on disk: ``flip`` random bytes or ``truncate`` it.

    Models a torn write / bit-rotted checkpoint.  Returns a short
    description of what was done (for campaign logs).
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path}")
    if mode == "truncate":
        keep = int(rng.integers(len(data)))
        path.write_bytes(bytes(data[:keep]))
        return f"truncated {path.name} to {keep}/{len(data)} bytes"
    if mode != "flip":
        raise ValueError(f"mode must be 'flip' or 'truncate', got {mode!r}")
    n = min(nbytes, len(data))
    offsets = rng.choice(len(data), size=n, replace=False)
    for off in offsets:
        data[int(off)] ^= int(rng.integers(1, 256))
    path.write_bytes(bytes(data))
    return f"flipped {n} bytes of {path.name}"
