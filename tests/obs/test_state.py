"""The instrumentation switch (repro.obs.state): on/off and scoped use."""

import pytest

from repro.obs import state


@pytest.fixture(autouse=True)
def _switch_off():
    was_enabled = state.enabled()
    state.disable()
    try:
        yield
    finally:
        if was_enabled:
            state.enable()
        else:
            state.disable()


def test_enable_disable_roundtrip():
    assert not state.enabled()
    state.enable()
    assert state.enabled()
    state.disable()
    assert not state.enabled()


def test_enabled_scope_restores_previous_state():
    with state.enabled_scope():
        assert state.enabled()
        with state.enabled_scope():
            assert state.enabled()
        assert state.enabled()  # inner exit restores "enabled", not "off"
    assert not state.enabled()


def test_enabled_scope_restores_on_exception():
    with pytest.raises(RuntimeError):
        with state.enabled_scope():
            raise RuntimeError("boom")
    assert not state.enabled()
