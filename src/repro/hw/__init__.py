"""Hardware component models of TB-STC and its baselines.

* :mod:`~repro.hw.config` -- architecture configurations (Sec. VII-A).
* :mod:`~repro.hw.energy` -- per-op energy / power model (Table III).
* :mod:`~repro.hw.area` -- component area model (Table III, A100 1.57%).
* :mod:`~repro.hw.dram` -- DRAM timing/energy (Ramulator stand-in).
* :mod:`~repro.hw.dvpe` -- the Diverse Vector PE (Fig. 10(a)).
* :mod:`~repro.hw.mapping` -- intra-block sparsity-aware mapping.
* :mod:`~repro.hw.scheduler` -- inter-block sparsity-aware scheduling.
* :mod:`~repro.hw.codec` -- adaptive codec cycle/energy accounting.
* :mod:`~repro.hw.mbd` -- Matrix-B Distribution unit.
"""

from .area import A100_DIE_MM2, A100_TILE_RATIO, AreaParams, a100_overhead_percent, area_breakdown
from .codec import CodecStats, CodecUnit
from .config import (
    ArchConfig,
    all_baselines,
    dvpe_fan,
    highlight,
    rm_stc,
    sgcn,
    stc,
    tb_stc,
    tensor_core,
    vegeta,
)
from .dram import DRAMModel, DRAMResult
from .dvpe import DVPE, DVPEResult
from .energy import EnergyModel, EnergyParams, EnergyReport
from .mapping import (
    BlockWork,
    MappedSchedule,
    block_work_from_mask,
    map_balanced,
    map_naive,
    mapping_cycles,
)
from .mbd import MBDStats, MBDUnit
from .scheduler import ScheduleResult, schedule_direct, schedule_sparsity_aware

__all__ = [
    "A100_DIE_MM2",
    "A100_TILE_RATIO",
    "ArchConfig",
    "AreaParams",
    "BlockWork",
    "CodecStats",
    "CodecUnit",
    "DRAMModel",
    "DRAMResult",
    "DVPE",
    "DVPEResult",
    "EnergyModel",
    "EnergyParams",
    "EnergyReport",
    "MBDStats",
    "MBDUnit",
    "MappedSchedule",
    "ScheduleResult",
    "a100_overhead_percent",
    "all_baselines",
    "area_breakdown",
    "block_work_from_mask",
    "dvpe_fan",
    "highlight",
    "map_balanced",
    "map_naive",
    "mapping_cycles",
    "rm_stc",
    "schedule_direct",
    "schedule_sparsity_aware",
    "sgcn",
    "stc",
    "tb_stc",
    "tensor_core",
    "vegeta",
]
