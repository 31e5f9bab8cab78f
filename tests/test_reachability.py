"""The reachability keep list names real defs, each with a known tag.

``python -m tests.reachability --check`` runs every entry point and is
too slow for tier-1 (CI runs it as its own job); this checks only what
an AST of ``src/`` can settle, so a renamed or deleted def cannot leave
a stale keep entry behind.
"""

import pytest

from .reachability import TAGS, load_keep, src_defs


def test_keep_list_names_existing_defs_with_known_tags():
    keep = load_keep()
    defs = src_defs()
    assert keep, "empty keep list"
    assert sorted(set(keep.values()) - set(TAGS)) == []
    assert sorted(name for name in keep if name not in defs) == []


def test_keep_list_rejects_unknown_tag(tmp_path):
    bad = tmp_path / "keep.txt"
    bad.write_text("repro.cli._fail mystery\n")
    with pytest.raises(ValueError, match="unknown tag"):
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
