"""Content-addressed, atomically-written training checkpoints.

File layout (see DESIGN.md "Checkpoint layout"):

* one ``.npz`` per checkpoint, named ``ckpt-{epoch:05d}-{digest12}.npz``
  where ``digest12`` is the first 12 hex chars of a SHA-256 over the
  logical payload (sorted keys + array bytes + meta JSON) -- renaming or
  bit-rot is detectable, identical states deduplicate naturally;
* inside the npz: every array of :class:`~repro.runtime.state.TrainState`
  under its flat key (``param.*``, ``mask.*``, ``opt_*``) plus one
  ``__meta__`` entry holding the JSON-encoded scalar state (epoch, RNG
  bit-generator state, optimizer scalars, histories, watchdog state);
* writes go to a ``.tmp-*`` sibling and are published with
  ``os.replace`` -- a crash mid-write never corrupts an existing
  checkpoint, and :meth:`CheckpointStore.latest` skips unreadable or
  digest-mismatched files, falling back to the newest good one.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..obs.state import enabled as _obs_enabled
from .state import TrainState

__all__ = ["CheckpointError", "CheckpointStore"]

_META_KEY = "__meta__"
_NAME_RE = re.compile(r"^ckpt-(\d{5})-([0-9a-f]{12})\.npz$")


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, unreadable, or fails its digest."""


def _payload_digest(state: TrainState, meta_json: str) -> str:
    h = hashlib.sha256()
    for key in sorted(state.arrays):
        arr = np.ascontiguousarray(state.arrays[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    h.update(meta_json.encode())
    return h.hexdigest()


class CheckpointStore:
    """Directory of atomic, content-addressed training checkpoints."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- writing ------------------------------------------------------------

    def save(self, state: TrainState) -> Path:
        """Atomically persist ``state``; returns the published path."""
        with obs_tracer.span("checkpoint.save", epoch=state.epoch):
            meta_json = json.dumps(state.meta, sort_keys=True)
            digest = _payload_digest(state, meta_json)[:12]
            path = self.directory / f"ckpt-{state.epoch:05d}-{digest}.npz"
            if path.exists():  # content-addressed: identical state already stored
                if _obs_enabled():
                    obs_metrics.counter_add("checkpoint.saves_deduped")
                return path
            payload = dict(state.arrays)
            payload[_META_KEY] = np.array(meta_json)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-ckpt-", suffix=".npz", dir=self.directory
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(fh, **payload)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            if _obs_enabled():
                obs_metrics.counter_add("checkpoint.saves")
            return path

    # -- reading ------------------------------------------------------------

    def list(self) -> List[Path]:
        """All well-named checkpoints, oldest epoch first."""
        found = []
        for path in self.directory.iterdir():
            match = _NAME_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path.name, path))
        return [p for _, _, p in sorted(found)]

    def load(self, path: Union[str, Path]) -> TrainState:
        """Load one checkpoint, re-checking its content digest."""
        path = Path(path)
        match = _NAME_RE.match(path.name)
        try:
            with np.load(path, allow_pickle=False) as npz:
                arrays = {k: npz[k] for k in npz.files if k != _META_KEY}
                meta_json = str(npz[_META_KEY])
            meta = json.loads(meta_json)
        except CheckpointError:
            raise
        # Corruption surfaces as many exception types (BadZipFile and
        # zlib.error from garbled bytes, OSError from truncation, KeyError
        # from a missing meta entry, JSONDecodeError from garbled meta);
        # all of them mean the same thing: this snapshot is unusable and
        # ``latest`` should fall back to an older one.
        except Exception as exc:  # noqa: BLE001
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        state = TrainState(epoch=int(meta["epoch"]), arrays=arrays, meta=meta)
        if match:
            digest = _payload_digest(state, json.dumps(meta, sort_keys=True))[:12]
            if digest != match.group(2):
                raise CheckpointError(
                    f"checkpoint {path.name} fails its content digest "
                    f"(expected {match.group(2)}, payload hashes to {digest})"
                )
        return state

    def latest(self) -> Optional[TrainState]:
        """Newest loadable checkpoint, or ``None`` if the store is empty.

        Corrupt or truncated files (e.g. from a crash racing the atomic
        rename on exotic filesystems) are skipped, not fatal.
        """
        for path in reversed(self.list()):
            try:
                return self.load(path)
            except CheckpointError:
                continue
        return None
