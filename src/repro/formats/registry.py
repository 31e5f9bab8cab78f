"""The storage-format registry -- one name→format mapping for the repo.

Modeled on :mod:`repro.core.tsolvers`: formats register under their
``name`` and every consumer (the cycle simulator, the fault campaign,
``compare_formats``, the CLI's ``--format`` choices) resolves through
:func:`get_format` / :func:`available_formats` instead of keeping its own
ad-hoc name→class dict.

Registration order is load-bearing: fault-campaign RNG streams are
seeded with :func:`format_index`, so the established formats keep their
historical indices (dense, csr, sdc, ddc, bitmap) and new formats are
appended after them -- never inserted.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from .base import SparseFormat
from .bcsrcoo import BCSRCOOFormat
from .bitmap import BitmapFormat
from .csr import CSRFormat
from .ddc import DDCFormat
from .dense import DenseFormat
from .sdc import SDCFormat

__all__ = [
    "available_formats",
    "format_class",
    "format_index",
    "get_format",
    "hardware_format",
    "register_format",
]

_REGISTRY: Dict[str, Type[SparseFormat]] = {}


def register_format(cls: Type[SparseFormat]) -> Type[SparseFormat]:
    """Register a :class:`SparseFormat` subclass under ``cls.name``.

    Returns ``cls`` so it can be used as a decorator.  Re-registering a
    name is an error unless it is the same class (idempotent reload).
    """
    name = cls.name
    if not name or name == "abstract":
        raise ValueError(f"format class {cls.__name__} has no usable name")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"format name {name!r} already registered to {existing.__name__}")
    _REGISTRY[name] = cls
    return cls


def available_formats() -> Tuple[str, ...]:
    """Registered format names, in registration (= RNG-seed) order."""
    return tuple(_REGISTRY)


def format_class(name: str) -> Type[SparseFormat]:
    """The registered class for ``name`` (raises ``ValueError`` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown storage format {name!r}; available: {available_formats()}"
        ) from None


def get_format(name: str, **kwargs) -> SparseFormat:
    """A fresh instance of the format registered under ``name``.

    ``kwargs`` pass through to the constructor (e.g. the simulator's
    ``get_format('sdc', group_rows=m)`` hardware row-group variant).
    """
    return format_class(name)(**kwargs)


def hardware_format(name: str, m: int) -> SparseFormat:
    """The instance of format ``name`` that an M-row-block accelerator
    streams (the simulator's and the fault campaign's): SDC is the
    row-group variant, since VEGETA/STC align within M-row groups
    rather than the whole matrix (see the SDCFormat docstring)."""
    if name == "sdc":
        return get_format("sdc", group_rows=m)
    return get_format(name)


def format_index(name: str) -> int:
    """Stable index of ``name`` in registration order.

    Fault campaigns mix this into their per-trial RNG seeds, which is
    why registration order must never change for existing formats.
    """
    try:
        return list(_REGISTRY).index(name)
    except ValueError:
        raise ValueError(
            f"unknown storage format {name!r}; available: {available_formats()}"
        ) from None


# Seed registrations.  ORDER MATTERS -- see format_index(); append only.
for _cls in (DenseFormat, CSRFormat, SDCFormat, DDCFormat, BitmapFormat, BCSRCOOFormat):
    register_format(_cls)
del _cls
