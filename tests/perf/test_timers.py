"""Stage timers under the one instrumentation switch, ``repro.obs``.

With obs on, ``stage()`` and ``@timed`` record a trace span and a timer
in the installed metrics registry, and ``simulate()`` reports both its
metrics and its stage split.  With obs off they record nothing anywhere.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core.patterns import PatternFamily
from repro.hw.config import tb_stc
from repro.hw.scheduler import SimStallError
from repro.perf import timers
from repro.sim.engine import simulate
from repro.workloads.generator import build_workload
from repro.workloads.layers import LayerSpec


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _timers():
    return obs.metrics_dict()["timers"]


def _phases():
    return [(e["name"], e["ph"]) for e in obs.events()]


def _workload():
    return build_workload(
        LayerSpec("t", 32, 32, 8), PatternFamily.TBS, sparsity=0.5, m=8, seed=0
    )


def test_the_obs_switch_is_the_only_switch():
    import repro.perf
    from repro.obs import state

    assert timers.enabled is state.enabled
    assert sorted(repro.perf.__all__) == ["stage", "timed"]


def test_disabled_records_nothing():
    assert not obs.enabled()
    with timers.stage("off.outer"):
        with timers.stage("off.inner"):
            pass
    assert obs.registry().is_empty()
    assert obs.events() == []


def test_disabled_stage_is_shared_null_object():
    # The disabled fast path must not allocate per call.
    assert timers.stage("a") is timers.stage("b")


def test_stage_and_timed_record_span_and_timer_under_obs():
    @timers.timed("unit.timed")
    def fn():
        return 7

    with obs.enabled_scope():
        with timers.stage("unit.stage"):
            pass
        assert fn() == 7
    for name in ("unit.stage", "unit.timed"):
        assert (name, "B") in _phases() and (name, "E") in _phases()
        assert _timers()[name]["calls"] == 1


def test_stage_records_calls_and_seconds():
    with obs.enabled_scope():
        for _ in range(3):
            with timers.stage("unit.work"):
                time.sleep(0.001)
    snap = _timers()
    assert snap["unit.work"]["calls"] == 3
    assert snap["unit.work"]["seconds"] >= 0.003


def test_nested_stages_both_accumulate():
    with obs.enabled_scope():
        with timers.stage("outer"):
            with timers.stage("inner"):
                time.sleep(0.001)
    snap = _timers()
    assert snap["outer"]["calls"] == 1
    assert snap["inner"]["calls"] == 1
    # Parent total includes the child's time.
    assert snap["outer"]["seconds"] >= snap["inner"]["seconds"]


def test_a_stage_inside_one_of_the_same_name_is_part_of_it():
    """``build_model_workload`` times as ``workloads.build`` around each
    ``build_workload``, which times under the same name: the layer
    builds are part of the model build, not counted a second time."""
    from repro.workloads.models import build_model_workload

    with obs.enabled_scope():
        with timers.stage("outer"):
            with timers.stage("outer"):
                time.sleep(0.001)
            with timers.stage("inner"):
                pass
        build_model_workload("bert", PatternFamily.TS, m=8, seed=0, scale=16)
    snap = _timers()
    assert snap["outer"]["calls"] == 1
    assert snap["inner"]["calls"] == 1
    assert snap["workloads.build"]["calls"] == 1
    assert snap["core.mask.make_mask"]["calls"] == 4  # one per BERT layer
    with obs.enabled_scope():
        with timers.stage("outer"):
            pass
    assert _timers()["outer"]["calls"] == 2  # the name closes with its stage


def test_timed_decorator_counts_only_when_enabled():
    @timers.timed("deco.fn")
    def fn(x):
        return x + 1

    assert fn(1) == 2
    assert obs.registry().is_empty()
    with obs.enabled_scope():
        assert fn(2) == 3
    assert _timers()["deco.fn"]["calls"] == 1


def test_timed_preserves_function_metadata():
    @timers.timed("deco.named")
    def documented():
        """doc."""

    assert documented.__name__ == "documented"
    assert documented.__doc__ == "doc."


def test_stage_records_survive_exceptions():
    with obs.enabled_scope():
        with pytest.raises(ValueError):
            with timers.stage("raises"):
                raise ValueError("boom")
    assert _timers()["raises"]["calls"] == 1
    assert ("raises", "E") in _phases()


def test_simulate_attaches_perf_breakdown_only_when_enabled():
    workload = _workload()
    config = tb_stc()

    off = simulate(config, workload)
    assert off.perf_breakdown is None
    assert off.metrics is None
    assert obs.registry().is_empty()
    assert obs.events() == []

    with obs.enabled_scope():
        on = simulate(config, workload)
    assert on.metrics is not None
    assert "sim.simulate" in on.perf_breakdown
    assert "sim.schedule" in on.perf_breakdown
    assert on.perf_breakdown["sim.simulate"]["calls"] == 1
    # The timing split must not perturb the simulation itself.
    assert on.cycles == off.cycles
    assert on.dram_bytes == off.dram_bytes


class _GrowingStream:
    """A garbled block stream that always claims one more block than it
    has served (as in ``tests/hw/test_scheduler.py``)."""

    def __init__(self, real):
        self.real = real
        self.reads = 0

    def __len__(self):
        return self.real + self.reads + 1

    def __getitem__(self, i):
        self.reads += 1
        return 1


def test_stall_error_carries_perf_records_only_when_enabled(monkeypatch):
    from repro.hw import scheduler
    from repro.sim import engine

    def garbled(costs, num_pes, window):
        return scheduler.schedule_sparsity_aware(_GrowingStream(len(costs)), num_pes, window)

    monkeypatch.setattr(engine, "schedule_sparsity_aware", garbled)
    with pytest.raises(SimStallError) as off:
        simulate(tb_stc(), _workload())
    assert "perf" not in off.value.state

    with obs.enabled_scope():
        with pytest.raises(SimStallError) as on:
            simulate(tb_stc(), _workload())
    # The stall is raised inside simulate()'s capture, so the records are
    # the stages this call finished before the scheduler stalled.
    assert "sim.block_costs" in on.value.state["perf"]
    assert "perf" not in str(on.value)
