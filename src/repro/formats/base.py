"""Common machinery for sparse storage formats.

A format encodes a sparse matrix into a byte layout and -- crucially for
the paper's Challenge-2 -- determines the *memory access trace* the
tensor core generates while consuming the matrix in block-major
computation order.  Two properties of that trace drive bandwidth
utilization (Fig. 7):

* **redundancy** -- bytes fetched that carry no non-zero payload
  (SDC's alignment padding);
* **contiguity** -- how many separate burst transactions the trace needs
  (CSR's scattered short row segments).

Every encoder returns an :class:`EncodedMatrix` carrying its *layout* --
the storage footprint breakdown, the consumption-order trace as a
:class:`Trace` (one int64 address array and one int64 length array) and
the block tables the trace derives from -- built from the occupancy
alone, and its *payload*, the arrays that decode the matrix back
exactly (used by decode, the fault injectors and the round-trip checks),
gathered the first time they are read.  Traffic and timing numbers read
only the layout, so they never pay for the payload.

Consumption **orientation** is a first-class axis: the forward pass
drains the matrix block-major, the backward pass drains the *transpose*
of the same stored bytes.  :meth:`EncodedMatrix.trace` serves either
orientation from the one encoding -- no format re-encodes for the
transposed pass; each format's :meth:`SparseFormat.transposed_trace`
derives the transposed access pattern from the stored layout alone and
pays whatever fragmentation or re-fetch cost that layout implies.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from ..perf import stage
from ..perf.memo import read_only

#: FP16 storage, as in the paper's DVPE datapath.
VALUE_BYTES = 2
#: Column index width used by CSR (16-bit covers the evaluated layers).
CSR_INDEX_BYTES = 2
#: CSR row-pointer width.
CSR_PTR_BYTES = 4
#: DDC per-block Info-table entry: 1b dim + 3b ratio + 12b offset = 16 bits.
DDC_INFO_BYTES = 2

#: Valid consumption orientations: ``forward`` drains the stored matrix
#: block-major; ``transposed`` drains its transpose (the backward pass).
ORIENTATIONS: Tuple[str, ...] = ("forward", "transposed")
DEFAULT_ORIENTATION = "forward"


@dataclass(frozen=True)
class Segment:
    """One contiguous read in the consumption-order access trace."""

    addr: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.addr < 0 or self.nbytes < 0:
            raise ValueError(f"invalid segment ({self.addr}, {self.nbytes})")

    @property
    def end(self) -> int:
        return self.addr + self.nbytes


class Trace:
    """A consumption-order access trace as two parallel int64 arrays.

    Segment ``i`` reads ``nbytes[i]`` bytes from ``addr[i]``.  The whole
    trace is checked against :class:`Segment`'s rule once, at
    construction, and raises the same ``ValueError`` for the first bad
    segment.  Iterating or indexing yields :class:`Segment` values, so
    per-access consumers (DRAM replay, transaction faults) read it like
    a list; the formats, the merge and the traffic analysis work on the
    arrays.
    """

    __slots__ = ("addr", "nbytes")

    def __init__(self, addr=(), nbytes=()) -> None:
        addr = np.asarray(addr, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if addr.ndim != 1 or addr.shape != nbytes.shape:
            raise ValueError(
                f"trace addr and nbytes must be 1-D and of equal length, "
                f"got shapes {addr.shape} and {nbytes.shape}"
            )
        bad = np.flatnonzero((addr < 0) | (nbytes < 0))
        if bad.size:
            i = bad[0]
            raise ValueError(f"invalid segment ({int(addr[i])}, {int(nbytes[i])})")
        self.addr = addr
        self.nbytes = nbytes

    @classmethod
    def of(cls, segments: Union["Trace", Iterable[Segment]]) -> "Trace":
        """``segments`` as a :class:`Trace` (returned as is if it is one)."""
        if isinstance(segments, Trace):
            return segments
        segments = list(segments)
        return cls([s.addr for s in segments], [s.nbytes for s in segments])

    @classmethod
    def after_header(cls, header_bytes: int, addr, nbytes) -> "Trace":
        """A ``header_bytes`` read at address 0 (none if 0), then ``addr``/``nbytes``."""
        if not header_bytes:
            return cls(addr, nbytes)
        return cls(np.concatenate(([0], addr)), np.concatenate(([header_bytes], nbytes)))

    @property
    def end(self) -> np.ndarray:
        return self.addr + self.nbytes

    @property
    def total_bytes(self) -> int:
        return int(self.nbytes.sum())

    def __len__(self) -> int:
        return self.addr.size

    def __iter__(self) -> Iterator[Segment]:
        return map(Segment, self.addr.tolist(), self.nbytes.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.addr[index], self.nbytes[index])
        return Segment(int(self.addr[index]), int(self.nbytes[index]))

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return np.array_equal(self.addr, other.addr) and np.array_equal(
                self.nbytes, other.nbytes
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # mutable arrays

    def __repr__(self) -> str:
        return f"Trace({len(self)} segments, {self.total_bytes} bytes)"


@dataclass(frozen=True, eq=False)
class EncodeSpec:
    """Every non-``values`` knob of one :meth:`SparseFormat.encode` call.

    One immutable value object in place of loose keyword arguments,
    mirroring ``SimOptions``: pass ``EncodeSpec(...)`` as the second
    argument of :meth:`SparseFormat.encode`.

    ``orientation`` records the *primary* consumption orientation the
    encoding will be traced in; either orientation can still be requested
    later via :meth:`EncodedMatrix.trace`.
    """

    #: Boolean keep-mask applied to ``values`` (None = values are final).
    mask: Optional[np.ndarray] = None
    #: :class:`~repro.core.sparsify.TBSResult` when the matrix carries TBS
    #: metadata -- required by DDC, ignored by the baseline formats.
    tbs: object = None
    #: Block granularity of the consumption trace (the PE array's M).
    block_size: int = 8
    #: Primary consumption orientation ('forward' | 'transposed').
    orientation: str = DEFAULT_ORIENTATION

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )

    @property
    def effective_block_size(self) -> int:
        """Trace granularity: the TBS block edge when TBS metadata exists."""
        m = getattr(self.tbs, "m", None)
        return int(m) if m else self.block_size


class EncodedMatrix:
    """A sparse matrix in one storage format: its layout, and its payload on demand.

    The **layout** is everything a traffic or timing number reads, and no
    stored value enters it: ``nnz``, the three byte counts, the forward
    ``segments`` and the format's block ``tables`` (the index and
    metadata arrays its :meth:`SparseFormat.transposed_trace` walks).
    The **payload** is :attr:`arrays`, every array an exact decode needs:
    the same tables plus the stored values and per-element indices.

    :meth:`SparseFormat.encode` builds the layout at once and gathers the
    payload the first time :attr:`arrays` is read, never again.  A matrix
    built directly with ``arrays=`` (hand-built traces, the test
    oracles) is complete from the start, and its ``tables`` are those
    arrays.

    Attributes
    ----------
    format_name:
        Short identifier ("dense", "csr", "sdc", "ddc", "bitmap",
        "bcsrcoo").
    shape:
        Logical (rows, cols) of the original matrix.
    nnz:
        Non-zero count.
    value_bytes / index_bytes / meta_bytes:
        Storage footprint breakdown.
    segments:
        Forward (block-major) consumption-order access :class:`Trace`,
        matching how the PE array drains the matrix.  Use :meth:`trace`
        to obtain the trace for either orientation.
    tables:
        The layout's block tables, keyed as in :attr:`arrays` and shared
        with it (the same array objects once the payload is gathered).
    orientation:
        The primary orientation this matrix was encoded for (from the
        :class:`EncodeSpec`); :meth:`trace` defaults to it.
    block_size:
        Trace block granularity the encoder used.
    transposed_segments:
        The transposed-orientation trace once :meth:`trace` has derived
        it (cached; derived from the layout by the owning format, never
        by re-encoding).
    """

    def __init__(
        self,
        format_name: str,
        shape: Tuple[int, int],
        nnz: int,
        value_bytes: int,
        index_bytes: int,
        meta_bytes: int,
        segments: Union[Trace, Iterable[Segment], None] = None,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        orientation: str = DEFAULT_ORIENTATION,
        block_size: int = 8,
        transposed_segments: Optional[Trace] = None,
        tables: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.format_name = format_name
        self.shape = shape
        self.nnz = nnz
        self.value_bytes = value_bytes
        self.index_bytes = index_bytes
        self.meta_bytes = meta_bytes
        self.segments = Trace() if segments is None else segments
        self._arrays = {} if arrays is None else arrays
        self.tables = self._arrays if tables is None else tables
        #: The payload gather :meth:`SparseFormat.encode` deferred, until
        #: the first read of :attr:`arrays` runs it.
        self._pending: Optional[Callable[[Dict[str, np.ndarray]], Dict[str, np.ndarray]]] = None
        self.orientation = orientation
        self.block_size = block_size
        self.transposed_segments = transposed_segments

    @property
    def arrays(self) -> Dict[str, np.ndarray]:
        """Format-specific payload arrays, sufficient for exact decode.

        Gathered on the first read from the input :meth:`SparseFormat
        .encode` was given, as it was then; later reads return the same
        dict, so in-place edits (fault injection) persist.
        """
        if self._pending is not None:
            self._arrays = self._pending(self.tables)
            self._pending = None
        return self._arrays

    def __repr__(self) -> str:
        payload = "payload pending" if self._pending is not None else "payload gathered"
        return (
            f"EncodedMatrix({self.format_name!r}, shape={self.shape}, nnz={self.nnz}, "
            f"{self.total_bytes} bytes, {payload})"
        )

    @property
    def total_bytes(self) -> int:
        return self.value_bytes + self.index_bytes + self.meta_bytes

    @property
    def traced_bytes(self) -> int:
        """Total bytes of the forward consumption trace."""
        return self.trace("forward").total_bytes

    def trace(self, orientation: Optional[str] = None) -> Trace:
        """Access trace for ``orientation`` (default: the encoded one).

        The transposed trace is derived once from the layout via the
        registered format's :meth:`SparseFormat.transposed_trace` (timed
        as stage ``formats.trace_t``) and cached -- requesting it never
        re-encodes the matrix or gathers its payload.  A forward trace
        assigned as a list of :class:`Segment` is converted (and stored
        back) on first use.
        """
        if orientation is None:
            orientation = self.orientation
        if orientation not in ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {ORIENTATIONS}, got {orientation!r}"
            )
        if orientation == "forward":
            self.segments = Trace.of(self.segments)
            return self.segments
        if self.transposed_segments is None:
            from .registry import get_format

            with stage("formats.trace_t"):
                self.transposed_segments = get_format(self.format_name).transposed_trace(self)
        return self.transposed_segments

    def traced_bytes_for(self, orientation: Optional[str] = None) -> int:
        """Total bytes of the trace for ``orientation``."""
        return self.trace(orientation).total_bytes


class SparseFormat(abc.ABC):
    """Interface implemented by every storage format.

    Subclasses implement :meth:`_layout` (the value-free layout, from the
    occupancy), :meth:`_gather` (the payload, from the masked values)
    and :meth:`decode`, and may override :meth:`transposed_trace` /
    :meth:`decode_transposed`; callers use the public :meth:`encode`,
    which accepts an :class:`EncodeSpec`.
    """

    name: str = "abstract"

    def encode(self, values: np.ndarray, spec: Optional[EncodeSpec] = None) -> EncodedMatrix:
        """Encode ``values`` per ``spec``: the layout now, the payload on first read.

        Zeros are either already applied to ``values`` or given via
        ``spec.mask``.  An element is stored when its masked value is
        non-zero (``-0.0`` is a zero), and the layout is built from that
        occupancy and ``spec.tbs`` alone (stage
        ``formats.<name>.encode``).  The payload is gathered (stage
        ``formats.<name>.payload``) the first time the result's
        :attr:`~EncodedMatrix.arrays` is read, from ``values`` and
        ``spec.mask`` as they were at this call: an input no caller can
        write (:func:`repro.perf.memo.read_only`, as the weights memo's
        arrays are) is kept by reference and any other is copied, so a
        later write by the caller changes neither the payload nor the
        decode.
        """
        if spec is None:
            spec = EncodeSpec()
        with stage(f"formats.{self.name}.encode"):
            values, mask = _checked(values, spec.mask)
            values = values if read_only(values) else values.copy()
            occupancy = values != 0.0
            if mask is not None:
                mask = mask if read_only(mask) else mask.copy()
                occupancy &= mask
            encoded = self._layout(occupancy, spec)
        encoded.orientation = spec.orientation
        encoded.block_size = spec.effective_block_size
        encoded._pending = functools.partial(self._payload, values, mask)
        return encoded

    def _payload(
        self, values: np.ndarray, mask: Optional[np.ndarray], tables: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        with stage(f"formats.{self.name}.payload"):
            return self._gather(apply_mask(values, mask), tables)

    @abc.abstractmethod
    def _layout(self, occupancy: np.ndarray, spec: EncodeSpec) -> EncodedMatrix:
        """The layout of a matrix whose stored elements are ``occupancy``.

        ``occupancy`` is a fresh boolean matrix the format may keep;
        ``spec`` is always a full EncodeSpec.  Returns an
        :class:`EncodedMatrix` with ``tables`` and no payload.
        """

    @abc.abstractmethod
    def _gather(self, dense: np.ndarray, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """The payload arrays of ``dense`` (the masked float64 matrix).

        ``tables`` are the ones :meth:`_layout` built for the same
        matrix; the result holds them under the same keys.
        """

    @abc.abstractmethod
    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        """Exact inverse of :meth:`encode`."""

    def decode_transposed(self, encoded: EncodedMatrix) -> np.ndarray:
        """Decode the matrix as consumed in the transposed orientation.

        Defaults to ``decode(encoded).T``; formats with a native
        transpose path (BCSR-COO's COO index walk) override it.
        """
        return self.decode(encoded).T

    def transposed_trace(self, encoded: EncodedMatrix) -> Trace:
        """Transposed-orientation access trace, derived from ``encoded``.

        Implementations must read only the layout of ``encoded`` (its
        ``tables``, footprint and forward trace) -- never re-encode, never
        read ``arrays`` -- so any :class:`EncodedMatrix` of this format,
        however obtained, can be traced in either orientation without
        gathering its payload.
        """
        raise NotImplementedError(
            f"format {self.name!r} does not implement a transposed trace"
        )


def _checked(values, mask) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``values`` as a float64 matrix and ``mask`` as a boolean one of its shape."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    if mask is None:
        return values, None
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
    return values, mask


def apply_mask(values: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Materialise the sparse matrix ``values * mask`` as float64."""
    values, mask = _checked(values, mask)
    if mask is None:
        return values
    return np.where(mask, values, 0.0)


def merge_contiguous(
    trace: Union[Trace, Iterable[Segment]], window: Optional[int] = None
) -> Trace:
    """Coalesce address-adjacent segments (a streaming prefetcher's view).

    A merged segment starts wherever a segment's address differs from
    the previous segment's end.  ``window`` caps how many segments one
    merged segment may fuse: a contiguous chain is cut every ``window``
    segments (``None`` fuses whole chains, ``1`` fuses nothing).
    Zero-length segments take part like any other.
    """
    if window is not None and window < 1:
        raise ValueError(f"merge window must be >= 1, got {window}")
    trace = Trace.of(trace)
    n = len(trace)
    if n == 0:
        return Trace()
    addr, nbytes = trace.addr, trace.nbytes
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(addr[1:], trace.end[:-1], out=head[1:])
    if window is not None:
        chains = np.flatnonzero(head)
        rank = np.arange(n) - np.repeat(chains, np.diff(chains, append=n))
        head = rank % window == 0
    starts = np.flatnonzero(head)
    return Trace(addr[starts], np.add.reduceat(nbytes, starts))
