"""Deterministic fault injection, ECC modeling and SDC campaigns.

TB-STC's correctness rests on compressed metadata (DDC Info words, CSR
row pointers, occupancy bitmaps, SDC validity flags) decoding back into
exactly the mask the DVPE computes with; one flipped bit silently
reshapes the GEMM.  This package stresses that trust boundary:

* :mod:`~repro.faults.injectors` -- seeded bit flips in encoded
  payloads, stuck-at mask faults, DRAM transaction perturbation;
* :mod:`~repro.faults.ecc`       -- parity / SECDED protection model for
  metadata words, with storage and energy overheads that flow into the
  traffic and energy reports;
* :mod:`~repro.faults.campaign`  -- reproducible Monte-Carlo campaigns
  classifying each injection as benign / corrected / detected /
  uncorrected / silent, per (format, fault model) cell;
* :mod:`~repro.faults.chaos`     -- deterministic chaos drills for the
  sweep engine's supervision layer (cells that crash, hang, raise or
  corrupt on their first N attempts), driven programmatically or via
  ``REPRO_SWEEP_CHAOS``.
"""

from .campaign import (
    CLASSES,
    FAULT_MODELS,
    CampaignResult,
    CampaignSpec,
    CellOutcome,
    classify_decode,
    render_campaign,
    run_campaign,
    run_cell,
    run_trial,
)
from .chaos import CHAOS_MODES, ChaosConfig, ChaosError, chaos_from_env
from .ecc import ECC_MODES, ECCConfig, adjudicate, ecc_overhead_bytes, ecc_words
from .injectors import (
    FAULT_TARGETS,
    BitFlip,
    InjectionRecord,
    inject_mask_stuck_at,
    inject_payload_bitflips,
    payload_targets,
)

__all__ = [
    "CHAOS_MODES",
    "CLASSES",
    "ECC_MODES",
    "FAULT_MODELS",
    "FAULT_TARGETS",
    "BitFlip",
    "CampaignResult",
    "CampaignSpec",
    "CellOutcome",
    "ChaosConfig",
    "ChaosError",
    "ECCConfig",
    "InjectionRecord",
    "adjudicate",
    "chaos_from_env",
    "classify_decode",
    "ecc_overhead_bytes",
    "ecc_words",
    "inject_mask_stuck_at",
    "inject_payload_bitflips",
    "payload_targets",
    "render_campaign",
    "run_campaign",
    "run_cell",
    "run_trial",
]
