"""TB-STC core algorithms: the TBS sparsity pattern and its analyses.

This subpackage is the paper's algorithmic contribution (Sec. III):

* :mod:`~repro.core.patterns` -- pattern taxonomy and N:M descriptors.
* :mod:`~repro.core.masks` -- mask generators for US / TS / RS-V / RS-H.
* :mod:`~repro.core.sparsify` -- Algorithm 1 (TBS sparsification).
* :mod:`~repro.core.maskspace` -- mask-space formulas, Eqs. (1)-(4).
* :mod:`~repro.core.similarity` -- mask similarity, block distributions.
* :mod:`~repro.core.criteria` -- magnitude / Wanda / SparseGPT criteria.
* :mod:`~repro.core.blocks` -- block partitioning shared with hw/formats.
"""

from .blocks import (
    BlockIndex,
    block_grid_shape,
    iter_blocks,
    merge_from_blocks,
    pad_to_blocks,
    split_into_blocks,
)
from .criteria import (
    sparsegpt_prune,
    sparsegpt_scores,
    wanda_scores,
)
from .masks import (
    global_threshold,
    highlight_mask,
    make_mask,
    tile_mask,
    topn_along_last,
    unstructured_mask,
    vegeta_mask,
)
from .maskspace import (
    log2_maskspace_rs_h,
    log2_maskspace_rs_v,
    log2_maskspace_tbs,
    log2_maskspace_ts,
    log2_maskspace_us,
    maskspace_table,
)
from .patterns import (
    DEFAULT_CANDIDATES,
    DEFAULT_M,
    Direction,
    NMConfig,
    PatternFamily,
    PatternSpec,
    default_candidates,
    nearest_candidates_grid,
)
from .similarity import mask_agreement, pattern_similarity_sweep
from .sparsify import TBSResult, tbs_sparsify
from .tsolvers import (
    DEFAULT_TSOLVER,
    TSOLVER_NAMES,
    resolve_tsolver,
    solve_blocks,
)
from .transposable import transposable_sparsify
from .validate import ValidationReport, Violation, validate_mask

__all__ = [
    "BlockIndex",
    "DEFAULT_CANDIDATES",
    "DEFAULT_M",
    "DEFAULT_TSOLVER",
    "TSOLVER_NAMES",
    "Direction",
    "NMConfig",
    "PatternFamily",
    "PatternSpec",
    "TBSResult",
    "ValidationReport",
    "Violation",
    "block_grid_shape",
    "default_candidates",
    "global_threshold",
    "highlight_mask",
    "iter_blocks",
    "log2_maskspace_rs_h",
    "log2_maskspace_rs_v",
    "log2_maskspace_tbs",
    "log2_maskspace_ts",
    "log2_maskspace_us",
    "make_mask",
    "mask_agreement",
    "maskspace_table",
    "merge_from_blocks",
    "nearest_candidates_grid",
    "pad_to_blocks",
    "resolve_tsolver",
    "solve_blocks",
    "pattern_similarity_sweep",
    "sparsegpt_prune",
    "sparsegpt_scores",
    "split_into_blocks",
    "tbs_sparsify",
    "tile_mask",
    "topn_along_last",
    "transposable_sparsify",
    "unstructured_mask",
    "validate_mask",
    "vegeta_mask",
    "wanda_scores",
]
