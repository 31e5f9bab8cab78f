"""The :class:`SimOptions` bundle -- ``simulate()``'s redesigned front door.

``simulate()`` historically grew one keyword argument per subsystem
(energy calibration, the SGCN row-overhead model, quantization, ECC,
fault injection, the stall guard) until every new feature widened a
nine-parameter signature and every sweep had to plumb loose kwargs
across call layers.  ``SimOptions`` freezes those knobs into one
immutable, picklable, hashable value object:

* pass it positionally or as ``options=`` to :func:`repro.sim.engine
  .simulate` / :func:`repro.sim.baselines.simulate_arch`;
* ship it across process boundaries inside sweep cells (it pickles, and
  its :meth:`to_dict` round-trips through JSON for cache keys);
* derive variants with :func:`dataclasses.replace` instead of mutating.

``simulate()`` takes no loose knob keywords: every knob is a field here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional

from ..hw.energy import EnergyParams

__all__ = ["SimOptions"]


@dataclass(frozen=True)
class SimOptions:
    """Every non-(config, workload) knob of one ``simulate()`` call.

    Defaults reproduce a plain fault-free FP16 simulation; see
    ``simulate()``'s docstring for each field's semantics.
    """

    #: Per-operation energy calibration; None means :class:`EnergyParams()`.
    energy_params: Optional[EnergyParams] = None
    #: Per-non-empty-row cycle overhead of CSR-style machines (SGCN model).
    row_overhead_cycles: float = 0.0
    #: Weight payload width; < 16 models quantized weights (Fig. 15(b)).
    weight_bits: int = 16
    #: Metadata ECC (:class:`repro.faults.ecc.ECCConfig`); None defers to
    #: ``config.metadata_ecc``.
    ecc: Optional[Any] = None
    #: Fault-injection target ('values' | 'indices' | 'metadata'), or None.
    fault: Optional[str] = None
    #: Seed for the injected flip (only read when ``fault`` is set).
    fault_seed: int = 0
    #: Raise ``SimStallError`` when modeled cycles exceed this budget.
    cycle_budget: Optional[int] = None
    #: Transposable-mask solver backend used when the simulated
    #: workload's masks are (re)built ('greedy' | 'exact' | 'tsenor');
    #: None defers to ``$REPRO_TSOLVER`` and then 'greedy'.  Inert for
    #: workloads whose masks were built elsewhere.
    tsolver: Optional[str] = None
    #: Consumption orientation of the A operand ('forward' |
    #: 'transposed').  'transposed' models the backward pass draining
    #: the transpose of the same stored encoding -- the format is never
    #: re-encoded, so formats whose layouts transpose poorly (CSR, SDC)
    #: pay their honest traffic penalty.
    orientation: str = "forward"

    _FAULT_TARGETS = ("values", "indices", "metadata")

    def __post_init__(self) -> None:
        if not 2 <= self.weight_bits <= 16:
            raise ValueError(f"weight_bits must be in [2, 16], got {self.weight_bits}")
        if self.row_overhead_cycles < 0:
            raise ValueError(f"row_overhead_cycles must be >= 0, got {self.row_overhead_cycles}")
        if self.fault is not None and self.fault not in self._FAULT_TARGETS:
            raise ValueError(
                f"fault must be one of {self._FAULT_TARGETS} or None, got {self.fault!r}"
            )
        if self.cycle_budget is not None and self.cycle_budget < 1:
            raise ValueError(f"cycle_budget must be >= 1, got {self.cycle_budget}")
        if self.tsolver is not None:
            from ..core.tsolvers import TSOLVER_NAMES

            if self.tsolver not in TSOLVER_NAMES:
                raise ValueError(
                    f"tsolver must be one of {TSOLVER_NAMES} or None, got {self.tsolver!r}"
                )
        from ..formats.base import ORIENTATIONS

        if self.orientation not in ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )

    def with_(self, **changes: Any) -> "SimOptions":
        """A copy with ``changes`` applied (thin ``dataclasses.replace``)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict (nested dataclasses expand to dicts)."""
        out: Dict[str, Any] = {
            "row_overhead_cycles": self.row_overhead_cycles,
            "weight_bits": self.weight_bits,
            "fault": self.fault,
            "fault_seed": self.fault_seed,
            "cycle_budget": self.cycle_budget,
            "tsolver": self.tsolver,
            "orientation": self.orientation,
        }
        out["energy_params"] = None if self.energy_params is None else asdict(self.energy_params)
        if self.ecc is None:
            out["ecc"] = None
        elif hasattr(self.ecc, "mode"):
            out["ecc"] = {"mode": self.ecc.mode}
        else:  # pragma: no cover - ecc is always an ECCConfig in-repo
            out["ecc"] = repr(self.ecc)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimOptions":
        data = dict(data)
        params = data.get("energy_params")
        if isinstance(params, dict):
            data["energy_params"] = EnergyParams(**params)
        ecc = data.get("ecc")
        if isinstance(ecc, dict):
            from ..faults.ecc import ECCConfig

            data["ecc"] = ECCConfig(mode=ecc["mode"])
        return cls(**data)
