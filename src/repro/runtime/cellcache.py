"""Content-addressed on-disk cache for experiment/sweep cell results.

This is the persistence layer under the sweep engine
(:mod:`repro.sweep.engine`), and so under every paper experiment: one
cell per grid point of a grid-shaped driver, one cell per single-shot
driver (see :func:`repro.analysis.experiments.run_experiment`).  A
trained model is one shared training cell, so one cache directory
trains it once for Table I, Fig. 1, Fig. 15(a) and Fig. 18.  One
cell -> one pickle file, published with the same atomic write-rename
discipline as the training :class:`~repro.runtime.checkpoint
.CheckpointStore`: a crash mid-write never corrupts an existing entry,
and a corrupt entry reads as a miss, never as an exception.

**Cache key definition** (see DESIGN.md "Sweep cell cache"): the key is
``{name}-{sha256(name :: canonical-JSON(payload))[:16]}`` where
``payload`` is the cell's logical identity -- the callable's import path
plus its exact keyword arguments (seeds included), serialized as
sorted-key JSON with ``repr`` for non-JSON values.  Anything that does
not change the cell's *result* stays out of the hash: worker count,
retry budget, submission order, wall-clock, host.  Re-running the same
sweep therefore hits the cache regardless of parallelism, and changing
any input (a seed, a shape, the function itself) misses it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

try:  # POSIX only; on other platforms writes stay atomic but unserialized
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..obs import metrics as obs_metrics
from ..obs.state import enabled as _obs_enabled

__all__ = ["CellCache", "cache_key"]

#: Tag of the ``(tag, value)`` envelope every entry is pickled inside.
#: The envelope is what makes a cached ``None`` distinguishable from a
#: miss (``read_hit`` returns an explicit hit flag); a pickle without it
#: reads as a miss, like a corrupt entry.
_ENVELOPE_TAG = "repro.cellcache.envelope/1"


def cache_key(name: str, payload: Dict[str, Any]) -> str:
    """Content-addressed key for one cell (see module docstring)."""
    try:
        blob = json.dumps(payload, sort_keys=True, default=repr)
    except TypeError:  # pragma: no cover - default=repr handles everything
        blob = repr(sorted(payload.items()))
    digest = hashlib.sha256(f"{name}::{blob}".encode()).hexdigest()[:16]
    return f"{name}-{digest}"


class CellCache:
    """Directory of atomically-written, content-addressed result pickles."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, name: str, payload: Dict[str, Any]) -> Path:
        """Entry path for cell ``name`` -- always *inside* the cache dir.

        Keys may contain ``/`` (nested entries), so a hostile key like
        ``"../../x"`` would otherwise address a path outside the cache;
        the service validates submitted keys, and this lexical
        containment check backstops every other caller.
        """
        entry = self.directory / f"{cache_key(name, payload)}.pkl"
        base = os.path.abspath(self.directory)
        if not os.path.abspath(entry).startswith(base + os.sep):
            raise ValueError(
                f"cell key {name!r} escapes cache directory {self.directory}"
            )
        return entry

    def read_hit(self, path: Optional[Path]) -> Tuple[bool, Any]:
        """``(hit, value)`` for the entry at ``path``.

        The explicit hit flag is the API consumers must use to decide
        between cache and recompute: a cell whose legitimate result *is*
        ``None`` reads back as ``(True, None)``, not as a miss --
        without the flag such cells were recomputed on every resume.
        Corrupt entries, and pickles without the envelope, read as
        ``(False, None)``, never as an exception.
        """
        if path is None or not path.exists():
            if _obs_enabled():
                obs_metrics.counter_add("cellcache.misses")
            return False, None
        try:
            with open(path, "rb") as fh:
                obj = pickle.load(fh)
        except Exception:  # corrupt cache entry: recompute, don't crash
            obj = None
        if not (isinstance(obj, tuple) and len(obj) == 2 and obj[0] == _ENVELOPE_TAG):
            if _obs_enabled():
                obs_metrics.counter_add("cellcache.corrupt")
            return False, None
        if _obs_enabled():
            obs_metrics.counter_add("cellcache.hits")
        return True, obj[1]

    @contextlib.contextmanager
    def write_lock(self, path: Path) -> Iterator[None]:
        """Inter-process exclusive lock for publishing ``path``.

        An ``fcntl.flock`` on a ``<entry>.lock`` sibling: two processes
        (the service runs concurrent jobs over one shared cache)
        publishing the same content-addressed entry serialize their
        write+rename sections instead of racing two temp files onto one
        path.  Readers never take the lock -- ``os.replace`` keeps every
        read either the old bytes or the new, never a tear.  On
        platforms without ``fcntl`` the lock degrades to a no-op (the
        rename alone is still atomic).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = Path(str(path) + ".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            # Unlock before close is implicit in close; the lock file is
            # left behind deliberately -- unlinking it would open a race
            # where a third process locks a file the second just deleted.
            os.close(fd)

    def write(self, path: Optional[Path], value: Any) -> None:
        """Atomically publish ``value`` at ``path`` (write + rename).

        The temp-file + ``os.replace`` pair makes the publish atomic for
        *readers*; the :meth:`write_lock` around it serializes
        concurrent *writers* of the same key across processes.
        """
        if path is None:
            return
        # Cell keys may contain "/" (e.g. "cnn@0.0/m=8/seed0/Dense"), which
        # nests entries in subdirectories; publish must create them.
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with self.write_lock(path):
            fd, tmp = tempfile.mkstemp(prefix=".tmp-cell-", dir=self.directory)
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump((_ENVELOPE_TAG, value), fh)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
