"""The sparsity-aware scheduler matches its sort-based oracle at fig13 scale.

The hypothesis suite in ``tests/sim/test_vectorized_equivalence.py``
stops at 64 costs and 8 PEs.  Here the TB-STC configuration (128 PEs,
window 8) schedules the real block costs of fig13 layers at scale 8:
OPT-6.7B layer 0 is 12,288 blocks with only 7 distinct costs, so equal
costs tie at almost every step, and the small BERT and ResNet-50 layers
are tiled across B-column passes the way ``sim.engine._simulate`` tiles
them.  Every field, every assignment included, must be bit-identical.
"""

import numpy as np
import pytest

from repro.hw.scheduler import schedule_sparsity_aware
from repro.sim.baselines import ARCH_FAMILY, arch_by_name
from repro.sim.engine import _block_costs, block_segments
from repro.workloads.models import build_model_workload

from .scheduler_oracle import per_pe_busy, schedule_sparsity_aware_sort

_CONFIG = arch_by_name("TB-STC")


def _layer_costs(model, layer):
    bundle = build_model_workload(model, ARCH_FAMILY["TB-STC"], m=8, seed=0, scale=8)
    row_counts, _ = block_segments(bundle.layers[layer], _CONFIG)
    return _block_costs(row_counts, _CONFIG)


def _fields(res):
    return (
        float(res.makespan).hex(),
        float(res.total_work).hex(),
        res.num_pes,
        [float(b).hex() for b in per_pe_busy(res)],
        [(a.block, a.pe, float(a.start).hex(), float(a.end).hex()) for a in res.assignments],
    )


# (model, layer, replication): OPT layer 0 fills the array on its own;
# BERT layer 1 (144 blocks) runs twice and ResNet-50 layer 0 (4 blocks)
# 64 times, as _simulate replicates layers below 2 x num_pes blocks.
@pytest.mark.parametrize(
    "model,layer,replication", [("opt-6.7b", 0, 1), ("bert", 1, 2), ("resnet50", 0, 64)]
)
@pytest.mark.parametrize("record", [False, True])
def test_schedule_matches_reference_on_fig13_costs(model, layer, replication, record):
    costs = np.tile(_layer_costs(model, layer), replication)
    if model == "opt-6.7b":
        assert costs.size == 12288 and np.unique(costs).size == 7
    assert _CONFIG.num_pes == 128 and _CONFIG.scheduler_window == 8
    fast = schedule_sparsity_aware(
        costs, _CONFIG.num_pes, window=_CONFIG.scheduler_window, record=record
    )
    ref = schedule_sparsity_aware_sort(
        costs, _CONFIG.num_pes, window=_CONFIG.scheduler_window, record=record
    )
    assert _fields(fast) == _fields(ref)
    assert len(fast.assignments) == (costs.size if record else 0)
