"""Algorithm 1's result does not depend on the caller's memory layout.

``tbs_sparsify`` breaks direction ties with float sums of the kept score
mass, and a float sum's rounding follows memory order.  Fortran-ordered
and transposed-view scores must still give the same mask, per-block N
and per-block direction as the C-ordered matrix, and blocks with N = 0
or N = M (which satisfy both directions) stay ROW.
"""

import numpy as np
import pytest

from repro.core.patterns import Direction
from repro.core.sparsify import tbs_sparsify
from repro.workloads.generator import synthetic_weights

_LAYOUTS = {
    "c": lambda w: w,
    "fortran": np.asfortranarray,
    "transposed_view": lambda w: w.T.copy().T,
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape,m,sparsity", [((256, 256), 8, 0.5), ((60, 44), 4, 0.75)])
def test_block_metadata_independent_of_layout(seed, shape, m, sparsity):
    weights = np.array(synthetic_weights(*shape, seed=seed))
    ref = tbs_sparsify(weights, m=m, sparsity=sparsity)
    trivial = (ref.block_n == 0) | (ref.block_n == m)
    assert trivial.any()
    for name, layout in _LAYOUTS.items():
        res = tbs_sparsify(layout(weights), m=m, sparsity=sparsity)
        np.testing.assert_array_equal(res.mask, ref.mask, err_msg=name)
        np.testing.assert_array_equal(res.block_n, ref.block_n, err_msg=name)
        np.testing.assert_array_equal(res.block_direction, ref.block_direction, err_msg=name)
        assert (res.block_direction[trivial] == Direction.ROW.value).all(), name
