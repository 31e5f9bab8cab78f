"""The reachability keep list names real defs and knobs, each with a
known tag of its kind.

``python -m tests.reachability --check`` runs every entry point and is
too slow for tier-1 (CI runs it as its own job); this checks only what
the code of ``src/`` can settle without a drive, so a renamed or
deleted def or knob cannot leave a stale keep entry behind.
"""

import pytest

from .reachability import (
    DEF_TAGS,
    KNOB_TAGS,
    ROADMAP_TAGS,
    is_knob,
    knob_defaults,
    load_keep,
    src_defs,
)


def test_keep_list_names_existing_defs_with_known_tags():
    keep = {name: tag for name, tag in load_keep().items() if not is_knob(name)}
    defs = src_defs()
    assert keep, "empty keep list"
    assert sorted(set(keep.values()) - set(DEF_TAGS) - set(ROADMAP_TAGS)) == []
    assert sorted(name for name in keep if name not in defs) == []


def test_knob_entries_name_existing_knobs_with_knob_tags():
    """Each knob entry is an argument of build_parser(), a field of an
    option dataclass or a REPRO_* literal in src/, tagged as a knob."""
    keep = {name: tag for name, tag in load_keep().items() if is_knob(name)}
    knobs = knob_defaults()
    assert keep, "no knob entries"
    assert sorted(set(keep.values()) - set(KNOB_TAGS) - set(ROADMAP_TAGS)) == []
    assert sorted(name for name in keep if name not in knobs) == []


def test_knob_defaults_cover_every_surface():
    knobs = knob_defaults()
    assert knobs["cli:simulate:--weight-bits"] == 16
    assert knobs["field:SimOptions.weight_bits"] == 16
    assert knobs["env:REPRO_SWEEP_CHAOS"] is None
    assert {name.split(":")[0] for name in knobs} == {"cli", "field", "env"}


def test_keep_list_rejects_unknown_tag(tmp_path):
    bad = tmp_path / "keep.txt"
    bad.write_text("repro.cli._fail mystery\n")
    with pytest.raises(ValueError, match="unknown tag"):
        load_keep(bad)


@pytest.mark.parametrize("line, message", [
    ("cli:serve:--host error", "needs a knob tag"),
    ("field:SimOptions deploy", "malformed knob name"),
    ("cli:serve input", "malformed knob name"),
    ("env:TSOLVER input", "malformed knob name"),
    ("repro.cli._fail input", "needs a def tag"),
])
def test_keep_list_rejects_malformed_knob_entry(tmp_path, line, message):
    bad = tmp_path / "keep.txt"
    bad.write_text(line + "\n")
    with pytest.raises(ValueError, match=message):
        load_keep(bad)


def test_keep_list_rejects_repeated_name(tmp_path):
    bad = tmp_path / "keep.txt"
    bad.write_text("repro.cli._fail error\nrepro.cli._fail error  # again\n")
    with pytest.raises(ValueError, match="twice"):
        load_keep(bad)


def test_src_defs_names_methods_and_nested_defs():
    defs = src_defs()
    assert "repro.sim.engine.simulate" in defs
    assert "repro.hw.scheduler.schedule_sparsity_aware._stall_state" in defs
    assert "repro.sweep.executors.Supervisor.run" in defs
