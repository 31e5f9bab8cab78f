"""Mask-space (MS) formulas -- Sec. III-A2, Eqs. (1)-(4).

The mask-space of a sparsity pattern is the number of distinct masks the
pattern can express on an ``X x Y`` matrix with granularity M.  The paper
uses it to explain why TBS approaches unstructured accuracy: a larger
mask-space lets the structured pattern land closer to the unstructured
optimum (Fig. 4(c)).

All quantities are astronomically large (e.g. ``2^10^5``), so the public
API returns **log2** values computed with ``lgamma``; exact big-integer
versions are provided for small matrices and used by the tests to validate
the log-domain implementations.

Notation: ``C(p, q)`` is the binomial coefficient; candidate N values are
the powers of two ``2^i`` for ``i = 0..k`` with ``k = log2(M)`` (plus the
empty choice, which the formulas fold into the sums as written).
"""

from __future__ import annotations

import math
from typing import Iterable

from .patterns import is_power_of_two, log2_choose

__all__ = [
    "log2_maskspace_ts",
    "log2_maskspace_rs_v",
    "log2_maskspace_rs_h",
    "log2_maskspace_tbs",
    "log2_maskspace_us",
    "maskspace_table",
]


def _check_dims(x: int, y: int, m: int) -> None:
    if m < 1 or not is_power_of_two(m):
        raise ValueError(f"M must be a positive power of two, got {m}")
    if x < 1 or y < 1:
        raise ValueError(f"matrix dims must be positive, got {x}x{y}")
    if x % m or y % m:
        raise ValueError(f"dims ({x}x{y}) must be multiples of M={m}")


def _log2_sum_exp(log_terms: Iterable[float]) -> float:
    """log2 of a sum given the log2 of each term (stable log-sum-exp)."""
    terms = [t for t in log_terms if t != float("-inf")]
    if not terms:
        return float("-inf")
    peak = max(terms)
    total = sum(2.0 ** (t - peak) for t in terms)
    return peak + math.log2(total)


def _candidate_exponents(m: int) -> range:
    return range(int(math.log2(m)) + 1)


def log2_maskspace_ts(x: int, y: int, m: int) -> float:
    """Eq. (1): tile-wise.  One N = 2^i shared by all X*Y/M tiles.

    ``MS_TS = sum_i C(M, 2^i) ** (X*Y / M)``
    """
    _check_dims(x, y, m)
    tiles = x * y // m
    return _log2_sum_exp(tiles * log2_choose(m, 2**i) for i in _candidate_exponents(m))


def log2_maskspace_rs_v(x: int, y: int, m: int) -> float:
    """Eq. (2): row-wise VEGETA.  Each row picks its own N = 2^i.

    ``MS_RS-V = [sum_i C(M, 2^i) ** (Y / M)] ** X``
    """
    _check_dims(x, y, m)
    per_row = _log2_sum_exp((y // m) * log2_choose(m, 2**i) for i in _candidate_exponents(m))
    return x * per_row


def log2_maskspace_rs_h(x: int, y: int, m: int) -> float:
    """Eq. (3): row-wise HighLight with hierarchical ratios.

    ``MS_RS-H = sum_{i=M}^{2M-1} [ (C(i, M) * C(M, M/2)**M) ** (X*Y/(i*M))
                                    + 2 * C(i, M) ** (X*Y/(i*M)) ]``

    The coarse level keeps M of every ``i`` tiles (``i`` sweeping M..2M-1
    gives the hierarchical ratio family); the fine level is M/2:M within
    kept tiles, with the two degenerate single-level variants contributing
    the ``2 * C(i, M) ** ...`` term.
    """
    _check_dims(x, y, m)
    terms = []
    log_fine = m * log2_choose(m, m // 2) if m >= 2 else 0.0
    for i in range(m, 2 * m):
        groups = (x * y) / (i * m)
        log_coarse = log2_choose(i, m)
        terms.append(groups * (log_coarse + log_fine))
        terms.append(1.0 + groups * log_coarse)  # the "2 *" variants
    return _log2_sum_exp(terms)


def log2_maskspace_tbs(x: int, y: int, m: int) -> float:
    """Eq. (4): transposable block-wise.

    ``MS_TBS = [sum_i 2 * C(M, 2^i) ** M] ** (X*Y / M^2)``

    Per block: pick N = 2^i, pick one of 2 directions, and choose top-N
    positions independently in each of the block's M rows (or columns).
    """
    _check_dims(x, y, m)
    per_block = _log2_sum_exp(1.0 + m * log2_choose(m, 2**i) for i in _candidate_exponents(m))
    blocks = x * y // (m * m)
    return blocks * per_block


def log2_maskspace_us(x: int, y: int, sparsity: float = 0.5) -> float:
    """Unstructured reference: ``C(X*Y, nnz)`` at the given sparsity."""
    total = x * y
    keep = total - int(round(sparsity * total))
    return log2_choose(total, keep)


def maskspace_table(x: int, y: int, m: int) -> dict:
    """All four pattern mask-spaces (log2) plus the US reference -- Fig. 4(c)."""
    return {
        "TS": log2_maskspace_ts(x, y, m),
        "RS-V": log2_maskspace_rs_v(x, y, m),
        "RS-H": log2_maskspace_rs_h(x, y, m),
        "TBS": log2_maskspace_tbs(x, y, m),
        "US": log2_maskspace_us(x, y),
    }
