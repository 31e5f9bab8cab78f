"""Timing reads the layout only; the payload is gathered where it is read.

``SparseFormat.encode`` returns the layout at once and gathers the
payload on the first read of ``EncodedMatrix.arrays``.  These tests
count every format's gathers to show that:

* ``simulate()`` on every Fig. 13 architecture, in both orientations,
  and a scenario cell gather none;
* the strict round-trip check and ``SimOptions(fault=...)`` still gather,
  and classify exactly as the eager encode did;
* a write into the caller's arrays after ``encode()`` changes neither the
  payload nor the decode (``encode`` keeps only arrays no caller can
  write, and copies the rest);
* timing does not depend on the stored values: two workloads with equal
  mask and TBS metadata but different non-zero values simulate to the
  same ``SimResult.to_dict()``.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis.experiments import _fig13_cell, _scenario_cell
from repro.core import tbs_sparsify
from repro.faults import payload_targets
from repro.formats import ORIENTATIONS, EncodeSpec, available_formats, format_class, get_format
from repro.runtime.checks import check_level
from repro.sim.baselines import ARCH_FAMILY, arch_by_name
from repro.sim.engine import simulate
from repro.sim.options import SimOptions
from repro.workloads.generator import GEMMWorkload, build_workload
from repro.workloads.layers import LayerSpec
from repro.workloads.scenarios import SCENARIO_FAMILIES, SCENARIO_PATTERNS

from ..formats.eager_encode_oracle import EAGER_ENCODES, as_encode, eager_encode

FIG13_ARCHS = ("TC", "STC", "VEGETA", "HighLight", "RM-STC", "TB-STC")


@contextmanager
def counted_gathers():
    """Count every registered format's payload gathers, by format name."""
    counts = {name: 0 for name in available_formats()}
    with pytest.MonkeyPatch.context() as mp:
        for name in available_formats():
            cls = format_class(name)

            def gather(self, dense, tables, _original=cls._gather, _name=name):
                counts[_name] += 1
                return _original(self, dense, tables)

            mp.setattr(cls, "_gather", gather)
        yield counts


@contextmanager
def eager_encodes():
    """Every format encodes eagerly, through its pre-split body."""
    with pytest.MonkeyPatch.context() as mp:
        for name in available_formats():
            mp.setattr(format_class(name), "encode", as_encode(EAGER_ENCODES[name]))
        yield


def _workload(arch, seed=0, rows=48, cols=40):
    layer = LayerSpec("deferral", rows, cols, 16)
    return build_workload(layer, ARCH_FAMILY[arch], sparsity=0.75, m=8, seed=seed)


@pytest.mark.parametrize("model", ["resnet50", "bert", "opt-6.7b"])
def test_fig13_cells_gather_no_payload(model):
    with counted_gathers() as counts:
        for arch in FIG13_ARCHS:
            _fig13_cell(model, arch, scale=32, seed=0)
    assert counts == dict.fromkeys(available_formats(), 0)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("arch", FIG13_ARCHS)
def test_simulate_gathers_no_payload(arch, orientation):
    workload = _workload(arch)
    with counted_gathers() as counts:
        simulate(arch_by_name(arch), workload, SimOptions(orientation=orientation))
    assert sum(counts.values()) == 0


@pytest.mark.parametrize("pattern", SCENARIO_PATTERNS)
@pytest.mark.parametrize("family", SCENARIO_FAMILIES)
def test_scenario_cell_gathers_no_payload(family, pattern):
    with counted_gathers() as counts:
        _scenario_cell(family, pattern, scale=64, seed=0)
    assert sum(counts.values()) == 0


@pytest.mark.parametrize("arch", FIG13_ARCHS)
def test_strict_checks_gather_and_round_trip(arch):
    config = arch_by_name(arch)
    workload = _workload(arch, seed=1)
    plain = simulate(config, workload)
    with check_level("strict"), counted_gathers() as counts:
        strict = simulate(config, workload)
    assert counts[config.storage_format] == 1
    assert strict.to_dict() == plain.to_dict()


@pytest.mark.parametrize("target", ["values", "indices", "metadata"])
@pytest.mark.parametrize("arch", FIG13_ARCHS)
def test_faults_gather_and_classify_as_the_eager_encode(arch, target):
    config = arch_by_name(arch)
    workload = _workload(arch, seed=2)
    for seed in range(4):
        options = SimOptions(fault=target, fault_seed=seed)
        with counted_gathers() as counts:
            lazy = simulate(config, workload, options)
        with eager_encodes():
            eager = simulate(config, workload, options)
        assert lazy.to_dict() == eager.to_dict()
        applicable = target in payload_targets(config.storage_format)
        assert counts[config.storage_format] == int(applicable)


@pytest.mark.parametrize("name", available_formats())
def test_a_later_write_reaches_neither_payload_nor_decode(name):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(24, 40))
    tbs = tbs_sparsify(values, m=8, sparsity=0.75)
    mask = tbs.mask.copy()
    fmt = get_format(name)
    spec = EncodeSpec(mask=mask, tbs=tbs if name in ("ddc", "bcsrcoo") else None)
    expected = np.where(mask, values, 0.0)
    ref = eager_encode(fmt, values.copy(), EncodeSpec(mask=mask.copy(), tbs=spec.tbs))

    # A caller's writeable arrays, and a read-only view of a writeable
    # array: the caller can still write through its base.
    base = values.copy()
    view = base.view()
    view.setflags(write=False)
    for given, written in ((values, values), (view, base)):
        enc = fmt.encode(given, spec)
        written[:] = rng.normal(size=written.shape)
        mask[:] = ~mask
        for key, want in ref.arrays.items():
            assert enc.arrays[key].tobytes() == want.tobytes(), key
        assert np.array_equal(fmt.decode(enc), expected)
        mask[:] = ~mask


def test_a_read_only_owner_is_kept_not_copied():
    """The weights memo's arrays are read-only owners: nothing can write them."""
    weights = _workload("TB-STC").values
    assert not weights.flags.writeable and weights.base is None
    enc = get_format("ddc").encode(weights)
    assert enc._pending.args[0] is weights


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("arch", FIG13_ARCHS)
def test_timing_ignores_the_stored_values(arch, orientation):
    first = _workload(arch, seed=4)
    rng = np.random.default_rng(5)
    other = np.where(first.values != 0.0, rng.uniform(0.5, 2.0, size=first.shape), 0.0)
    second = GEMMWorkload(
        name=first.name,
        values=other,
        mask=first.mask,
        b_cols=first.b_cols,
        m=first.m,
        family=first.family,
        tbs=first.tbs,
    )
    config = arch_by_name(arch)
    options = SimOptions(orientation=orientation)
    assert simulate(config, first, options).to_dict() == simulate(
        config, second, options
    ).to_dict()
