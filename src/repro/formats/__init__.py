"""Sparse storage formats and the adaptive codec's format conversion.

Implements the paper's Sec. V stack:

* :mod:`~repro.formats.dense` / :mod:`~repro.formats.csr` /
  :mod:`~repro.formats.sdc` -- the baseline formats whose weaknesses
  motivate DDC (Fig. 7);
* :mod:`~repro.formats.ddc` -- Dual-Dimensional Compression (Fig. 8(a));
* :mod:`~repro.formats.bcsrcoo` -- the blocked-CSR-COO hybrid that
  serves forward *and* transposed consumption from one encoding;
* :mod:`~repro.formats.conversion` -- the queue-group storage-to-
  computation conversion (Fig. 9);
* :mod:`~repro.formats.memory_model` -- the bandwidth-utilization
  analysis behind the 1.47x claim (orientation-aware);
* :mod:`~repro.formats.registry` -- the name→format registry every
  consumer resolves through;
* :mod:`~repro.formats.validate` -- trace-vs-footprint consistency
  checks.
"""

from .base import (
    DDC_INFO_BYTES,
    DEFAULT_ORIENTATION,
    ORIENTATIONS,
    VALUE_BYTES,
    EncodedMatrix,
    EncodeSpec,
    Segment,
    SparseFormat,
    Trace,
    apply_mask,
    merge_contiguous,
)
from .bcsrcoo import BCSRCOOFormat
from .bitmap import BitmapFormat
from .conversion import ConversionSchedule, StorageElement, block_storage_stream, convert_block
from .csr import CSRFormat
from .ddc import DDCFormat
from .dense import DenseFormat
from .memory_model import (
    DEFAULT_BURST_BYTES,
    TrafficReport,
    compare_formats,
    traffic_report,
    useful_bytes_floor,
)
from .registry import (
    available_formats,
    format_class,
    format_index,
    get_format,
    register_format,
)
from .sdc import SDCFormat
from .validate import TraceValidationError, trace_violations, validate_trace

__all__ = [
    "BCSRCOOFormat",
    "BitmapFormat",
    "CSRFormat",
    "ConversionSchedule",
    "DDCFormat",
    "DDC_INFO_BYTES",
    "DEFAULT_BURST_BYTES",
    "DEFAULT_ORIENTATION",
    "DenseFormat",
    "EncodeSpec",
    "EncodedMatrix",
    "ORIENTATIONS",
    "SDCFormat",
    "Segment",
    "SparseFormat",
    "StorageElement",
    "Trace",
    "TraceValidationError",
    "TrafficReport",
    "VALUE_BYTES",
    "apply_mask",
    "available_formats",
    "block_storage_stream",
    "compare_formats",
    "convert_block",
    "format_class",
    "format_index",
    "get_format",
    "merge_contiguous",
    "register_format",
    "trace_violations",
    "traffic_report",
    "useful_bytes_floor",
    "validate_trace",
]
