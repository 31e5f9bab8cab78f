"""Declarative sweep specifications: what to run, not how to run it.

A :class:`SweepSpec` is a named, ordered collection of
:class:`SweepCell` grid points.  Each cell names a *module-level*
callable by import path (``"package.module:function"``) plus the exact
keyword arguments of that grid point -- everything a worker process
needs to recompute the cell from scratch, and exactly what the cell
cache hashes.  Cells must therefore be picklable and self-contained:
seeds travel inside ``kwargs``, never in ambient process state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, Optional, Tuple, Union

__all__ = ["SweepCell", "SweepSpec", "derive_seed", "fn_ref", "resolve_fn"]


def derive_seed(base_seed: int, *parts: Any) -> int:
    """Deterministic 32-bit seed for one cell of a sweep.

    Hashes ``(base_seed, parts)`` through SHA-256, so the seed depends
    only on the sweep's master seed and the cell's identity -- never on
    worker assignment, completion order, or process id.  Use it when a
    driver needs per-cell randomness that is not already threaded
    through explicit ``seed=`` kwargs.
    """
    digest = hashlib.sha256(repr((int(base_seed), parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def fn_ref(fn: Union[str, Callable[..., Any]]) -> str:
    """Normalize a callable to its ``"module:qualname"`` import path.

    Only module-level functions are accepted: the path must resolve back
    to the same object, which rejects lambdas, closures and bound
    methods up front (they would fail later, unpicklably, inside a
    worker).
    """
    if isinstance(fn, str):
        resolve_fn(fn)
        return fn
    ref = f"{fn.__module__}:{getattr(fn, '__qualname__', fn.__name__)}"
    try:
        resolved = resolve_fn(ref)
    except (ImportError, AttributeError, TypeError, ValueError):
        resolved = None
    if resolved is not fn:
        raise ValueError(
            f"{ref!r} does not resolve back to the given callable; "
            "sweep cells need module-level functions"
        )
    return ref


def resolve_fn(ref: str) -> Callable[..., Any]:
    """Import the callable a ``"module:qualname"`` reference names."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed function reference {ref!r}; want 'module:qualname'")
    obj: Any = import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{ref!r} resolves to a non-callable {type(obj).__name__}")
    return obj


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a key, a callable reference, and its kwargs.

    ``key`` must be unique within the sweep and stable across runs -- it
    names the cell in progress output, error reports, and cache files.
    ``seed`` is an optional ambient seed the engine installs (via
    ``numpy.random.seed``) before the cell body runs, for legacy code
    paths that still draw from the global generator; well-behaved cells
    carry explicit seeds in ``kwargs`` instead.
    """

    key: str
    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "fn", fn_ref(self.fn))

    def payload(self) -> Dict[str, Any]:
        """The cell's logical identity -- exactly what the cache hashes."""
        return {"fn": self.fn, "kwargs": self.kwargs, "seed": self.seed}


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered set of cells (the declarative sweep input)."""

    name: str
    cells: Tuple[SweepCell, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        seen = set()
        for cell in cells:
            if cell.key in seen:
                raise ValueError(f"duplicate cell key {cell.key!r} in sweep {self.name!r}")
            seen.add(cell.key)

    def __len__(self) -> int:
        return len(self.cells)
