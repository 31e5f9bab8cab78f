"""Checkpoint-file corruption for the crash-recovery tests.

:func:`corrupt_file` models a torn write or a bit-rotted checkpoint on
disk.  Nothing in ``src/`` calls it: the checkpoint store's tests use it
to prove that a damaged newest checkpoint falls back to the one before.
"""

from pathlib import Path
from typing import Union

import numpy as np


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
