"""Seeded Monte-Carlo fault campaigns over formats x fault models.

A campaign answers the production question the repro's energy/traffic
tables cannot: *when a bit goes wrong, does this stack notice?*  Each
trial builds a fresh TBS workload, encodes it in one storage format,
injects one fault from one model, and classifies the outcome:

* ``benign``      -- the decoded matrix is bit-identical to the truth
  (the flip landed in padding, a duplicated index slot, dead offset
  bits, or a latent stuck-at);
* ``corrected``   -- the metadata ECC repaired the flip and decode is
  exact;
* ``uncorrected`` -- the ECC *saw* the corruption but could not repair
  it (parity, or a double flip under SECDED): the access faults loudly;
* ``detected``    -- no ECC signal, but the decode crashed or the
  runtime invariant layer (:mod:`repro.runtime.checks`) flagged the
  decoded matrix (nnz bookkeeping, NaN/Inf screen, N:M pattern check);
* ``silent``      -- the decode produced a *different matrix* and
  nothing noticed: silent data corruption, the number the campaign
  exists to measure.

Classification honours the ambient check level: under ``off`` only
hard crashes count as detection, so the campaign doubles as a
measurement of how much coverage the invariant layer itself buys.

Campaigns are bit-reproducible: every trial derives its generator from
``(seed, format, model, trial)`` through ``np.random.default_rng``'s
SeedSequence, so ``repro faults --seed 0`` prints the same table on
every machine.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.patterns import PatternFamily, PatternSpec
from ..core.sparsify import tbs_sparsify
from ..formats.base import EncodedMatrix, EncodeSpec, SparseFormat
from ..formats.registry import available_formats, format_index, get_format
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..obs.state import enabled as _obs_enabled
from ..hw.dram import TransactionFaultModel, perturb_trace
from ..runtime.checks import InvariantError, check_mask, get_check_level
from .ecc import ECCConfig, adjudicate
from .injectors import (
    InjectionRecord,
    inject_mask_stuck_at,
    inject_payload_bitflips,
    payload_targets,
)

__all__ = [
    "CLASSES",
    "FAULT_MODELS",
    "CampaignSpec",
    "CellOutcome",
    "CampaignResult",
    "classify_decode",
    "run_trial",
    "run_cell",
    "run_campaign",
    "render_campaign",
]

#: Classification outcomes, worst last.
CLASSES = ("benign", "corrected", "detected", "uncorrected", "silent")

#: Fault models a campaign can sweep.  ``meta_flip_x2`` flips two bits
#: of the *same* protected word -- SECDED's detect-but-not-correct case.
FAULT_MODELS = (
    "value_flip",
    "index_flip",
    "meta_flip",
    "meta_flip_x2",
    "mask_stuck0",
    "mask_stuck1",
    "dram_drop",
    "dram_dup",
    "dram_corrupt",
)

_MODEL_TARGET = {"value_flip": "values", "index_flip": "indices", "meta_flip": "metadata",
                 "meta_flip_x2": "metadata"}


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign's shape: what to inject, where, how often."""

    formats: Tuple[str, ...] = available_formats()
    models: Tuple[str, ...] = FAULT_MODELS
    trials: int = 30
    seed: int = 0
    rows: int = 32
    cols: int = 32
    m: int = 8
    sparsity: float = 0.75
    ecc: ECCConfig = field(default_factory=ECCConfig)
    check_level: str = "warn"

    def __post_init__(self) -> None:
        for fmt in self.formats:
            if fmt not in available_formats():
                raise ValueError(f"unknown format {fmt!r}")
        for model in self.models:
            if model not in FAULT_MODELS:
                raise ValueError(f"unknown fault model {model!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class CellOutcome:
    """Aggregated classifications for one (format, fault model) cell."""

    format_name: str
    model: str
    counts: Dict[str, int] = field(default_factory=lambda: {c: 0 for c in CLASSES})
    skipped: int = 0  #: trials where the model does not apply to the format

    @property
    def trials(self) -> int:
        return sum(self.counts.values())

    @property
    def sdc_rate(self) -> float:
        """Fraction of applicable trials that corrupted data silently."""
        return self.counts["silent"] / self.trials if self.trials else 0.0

    @property
    def coverage(self) -> float:
        """Of the trials that mattered (non-benign), how many were caught."""
        harmful = self.trials - self.counts["benign"]
        if harmful <= 0:
            return 1.0
        caught = self.counts["corrected"] + self.counts["detected"] + self.counts["uncorrected"]
        return caught / harmful


@dataclass
class CampaignResult:
    """All cells of one campaign plus the spec that produced them."""

    spec: CampaignSpec
    cells: List[CellOutcome] = field(default_factory=list)
    sweep_summary: Optional[str] = None  #: engine stats when run via repro.sweep
    #: Keys of cells that failed, when run with ``allow_partial=True``.
    failed_cells: List[str] = field(default_factory=list)

    def cell(self, fmt: str, model: str) -> Optional[CellOutcome]:
        for c in self.cells:
            if c.format_name == fmt and c.model == model:
                return c
        return None


def _trial_rng(spec: CampaignSpec, fmt: str, model: str, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        [spec.seed, format_index(fmt), FAULT_MODELS.index(model), trial]
    )


def _build_case(spec: CampaignSpec, rng: np.random.Generator):
    """One fresh (values, tbs, mask, expected) TBS workload for a trial."""
    values = rng.normal(size=(spec.rows, spec.cols))
    values[values == 0] = 1.0  # keep nnz bookkeeping unambiguous
    tbs = tbs_sparsify(values, m=spec.m, sparsity=spec.sparsity)
    expected = np.where(tbs.mask, values, 0.0)
    return values, tbs, expected


def _integrity_flagged(decoded: np.ndarray, encoded: EncodedMatrix,
                       pattern_spec: Optional[PatternSpec], level: str) -> bool:
    """Would the runtime invariant layer flag this decoded matrix?

    Only checks a deployed stack could actually run without ground
    truth: the stored nnz counter, a NaN/Inf screen (the divergence
    watchdog's first test), and the declared N:M structure of the
    decoded occupancy.
    """
    if level == "off":
        return False
    if int(np.count_nonzero(decoded)) != encoded.nnz:
        return True
    if not np.all(np.isfinite(decoded)):
        return True
    if pattern_spec is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                if not check_mask(decoded != 0.0, pattern_spec, level="warn"):
                    return True
            except InvariantError:  # pragma: no cover - warn level cannot raise
                return True
    return False


def classify_decode(
    fmt: SparseFormat,
    encoded: EncodedMatrix,
    expected: np.ndarray,
    record: Optional[InjectionRecord] = None,
    ecc: Optional[ECCConfig] = None,
    pattern_spec: Optional[PatternSpec] = None,
    level: Optional[str] = None,
) -> str:
    """Classify one injected fault's end-to-end outcome (see module doc)."""
    level = get_check_level(level)
    if (
        record is not None
        and record.injected
        and record.target == "metadata"
        and ecc is not None
        and ecc.enabled
    ):
        verdict = adjudicate(record.meta_word_flips, ecc)
        if verdict == "corrected":
            record.revert(encoded)
            if _obs_enabled():
                obs_metrics.counter_add("faults.ecc_corrections")
            return _classified("corrected")
        if verdict == "detected":
            return _classified("uncorrected")
        # undetected: the corruption sails past the ECC; fall through to
        # the software-visible checks below.
    try:
        decoded = fmt.decode(encoded)
    except Exception:  # noqa: BLE001 - any decode crash is a loud detection
        return _classified("detected")
    if decoded.shape != expected.shape:
        return _classified("detected")
    if np.array_equal(decoded, expected):
        return _classified("benign")
    if _integrity_flagged(decoded, encoded, pattern_spec, level):
        return _classified("detected")
    return _classified("silent")


def _classified(outcome: str) -> str:
    """Bump the per-class counter (when obs is on) and pass through."""
    if _obs_enabled():
        obs_metrics.counter_add(f"faults.class.{outcome}")
    return outcome


def _make_format(name: str, m: int) -> SparseFormat:
    if name == "sdc":
        return get_format("sdc", group_rows=m)  # the hardware row-group variant
    return get_format(name)


def run_trial(spec: CampaignSpec, fmt_name: str, model: str, trial: int) -> Optional[str]:
    """One injection trial; returns a class or None when not applicable."""
    rng = _trial_rng(spec, fmt_name, model, trial)
    values, tbs, expected = _build_case(spec, rng)
    fmt = _make_format(fmt_name, spec.m)
    pattern_spec = PatternSpec(PatternFamily.TBS, m=spec.m, sparsity=spec.sparsity)
    tbs_arg = tbs if fmt_name in ("ddc", "bcsrcoo") else None
    enc_spec = EncodeSpec(tbs=tbs_arg, block_size=spec.m)

    if model in _MODEL_TARGET:
        target = _MODEL_TARGET[model]
        if target not in payload_targets(fmt_name):
            return None
        encoded = fmt.encode(expected, enc_spec)
        record = inject_payload_bitflips(
            encoded,
            target,
            rng,
            nbits=2 if model == "meta_flip_x2" else 1,
            same_word=model == "meta_flip_x2",
            word_bits=spec.ecc.word_bits,
        )
        if not record.injected:
            return None
        return classify_decode(
            fmt, encoded, expected, record,
            ecc=spec.ecc, pattern_spec=pattern_spec, level=spec.check_level,
        )

    if model in ("mask_stuck0", "mask_stuck1"):
        stuck = 0 if model == "mask_stuck0" else 1
        faulty_mask, _, changed = inject_mask_stuck_at(tbs.mask, rng, stuck)
        if not changed:
            return "benign"  # latent fault: the bit already held that value
        # The TBS metadata no longer matches the corrupted mask, so DDC
        # must re-infer per-block patterns from what it actually sees.
        encoded = fmt.encode(np.where(faulty_mask, values, 0.0), EncodeSpec(block_size=spec.m))
        return classify_decode(
            fmt, encoded, expected, None,
            ecc=None, pattern_spec=pattern_spec, level=spec.check_level,
        )

    # DRAM transaction faults: exactly one faulted transaction per trial.
    encoded = fmt.encode(expected, enc_spec)
    if not encoded.segments:
        return None
    kind = {"dram_drop": "drop", "dram_dup": "duplicate", "dram_corrupt": "corrupt"}[model]
    idx = int(rng.integers(len(encoded.segments)))
    model_probs = TransactionFaultModel(**{f"p_{kind}": 1.0})
    one = perturb_trace([encoded.segments[idx]], model_probs, rng)
    trace = list(encoded.segments[:idx]) + one.segments + list(encoded.segments[idx + 1:])
    perturbed = replace(one, segments=trace)
    if perturbed.dropped:
        # Missing bytes trip the DMA byte counter: always a loud fault.
        return "detected" if perturbed.length_check_fails(encoded.traced_bytes) else "silent"
    if perturbed.duplicated:
        return "benign"  # same bytes land twice; only bandwidth is wasted
    # In-flight corruption: garble payload bits of the transferred data.
    target = "values" if "values" in payload_targets(fmt_name) else "metadata"
    record = inject_payload_bitflips(encoded, target, rng, nbits=1)
    if not record.injected:
        return None
    return classify_decode(
        fmt, encoded, expected, record,
        ecc=None,  # link corruption happens past the storage-side ECC
        pattern_spec=pattern_spec, level=spec.check_level,
    )


def run_cell(spec: CampaignSpec, fmt_name: str, model: str) -> CellOutcome:
    """All trials of one (format, fault model) cell."""
    outcome = CellOutcome(fmt_name, model)
    with obs_tracer.span(f"faults.cell.{fmt_name}.{model}", trials=spec.trials):
        for trial in range(spec.trials):
            result = run_trial(spec, fmt_name, model, trial)
            if result is None:
                outcome.skipped += 1
            else:
                outcome.counts[result] += 1
    return outcome


def run_campaign(
    spec: CampaignSpec,
    workers: Optional[int] = None,
    cache_dir=None,
    resume: bool = False,
    options=None,
    allow_partial: bool = False,
) -> CampaignResult:
    """Sweep every (format, model) cell through the sweep engine.

    ``allow_partial=True`` degrades cell failures from an exception to
    an omission: failed cells are skipped in the aggregated table (and
    listed in ``result.failed_cells``) instead of raising
    :class:`repro.sweep.SweepCellsFailed`.

    Cells shard across ``workers`` processes (:mod:`repro.sweep`); every
    trial seeds from ``(seed, format, model, trial)``, so the table is
    bit-identical at any worker count.  With ``cache_dir``, finished
    cells persist on disk and ``resume=True`` replays them, so a killed
    campaign restarts where it left off.  ``options`` (a
    :class:`repro.sweep.SweepOptions`) threads the supervised-executor
    knobs -- per-cell ``timeout``, transient ``retries``, executor
    choice -- through to :func:`repro.sweep.run_sweep`.
    """
    from ..sweep import SweepCell, SweepSpec, configured_workers, run_sweep

    cells = [
        SweepCell(
            key=f"faults-{fmt_name}-{model}",
            fn=run_cell,
            kwargs={"spec": spec, "fmt_name": fmt_name, "model": model},
        )
        for fmt_name in spec.formats
        for model in spec.models
    ]
    sweep = run_sweep(
        SweepSpec("faults", tuple(cells)),
        workers=configured_workers(workers),
        cache_dir=cache_dir,
        resume=resume,
        strict=not allow_partial,
        options=options,
    )
    result = CampaignResult(spec)
    result.sweep_summary = sweep.summary()
    result.failed_cells = [c.key for c in sweep.failures]
    settled = sweep.values()
    for fmt_name in spec.formats:
        for model in spec.models:
            key = f"faults-{fmt_name}-{model}"
            if allow_partial and key not in settled:
                continue
            result.cells.append(sweep.value(key))
    return result


def render_campaign(result: CampaignResult) -> str:
    """The per-cell SDC-rate / detection-coverage table."""
    from ..analysis import render_table

    header = ["format", "fault model", "trials", *CLASSES, "SDC rate", "coverage"]
    rows = []
    for cell in result.cells:
        if cell.trials == 0:
            continue
        rows.append([
            cell.format_name,
            cell.model,
            str(cell.trials),
            *[str(cell.counts[c]) for c in CLASSES],
            f"{cell.sdc_rate:.1%}",
            f"{cell.coverage:.1%}",
        ])
    ecc = result.spec.ecc
    lines = [render_table(header, rows)]
    lines.append(
        f"ecc={ecc.mode} (+{ecc.check_bits} check bits / {ecc.word_bits}-bit word)"
        if ecc.enabled else "ecc=none (metadata unprotected)"
    )
    return "\n".join(lines)
