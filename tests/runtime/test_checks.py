"""Invariant-check layer: levels, mask validity, format round-trips."""

import numpy as np
import pytest

from repro.core.patterns import PatternFamily, PatternSpec
from repro.formats import SDCFormat
from repro.runtime.checks import (
    InvariantError,
    InvariantWarning,
    check_format_roundtrip,
    check_level,
    check_mask,
    check_workload,
    get_check_level,
    reset_warning_counts,
    set_check_level,
    warning_counts,
)

# Lower-triangular 4x4: row counts {1,2,3,4}, col counts {1,2,3,4} --
# valid N:M in neither dimension, so a guaranteed TBS violation.
BAD_TBS = np.tril(np.ones((4, 4), dtype=bool))
# Every row keeps the same 2 of 4: uniform 2:4 along rows.
GOOD_TBS = np.tile(np.array([True, True, False, False]), (4, 1))
SPEC = PatternSpec(PatternFamily.TBS, m=4, sparsity=0.5)


@pytest.fixture(autouse=True)
def _reset_level():
    set_check_level(None)
    yield
    set_check_level(None)


class TestLevels:
    def test_default_is_off(self):
        assert get_check_level() == "off"

    def test_global_setting(self):
        set_check_level("warn")
        assert get_check_level() == "warn"

    def test_explicit_override_wins(self):
        set_check_level("strict")
        assert get_check_level("off") == "off"

    def test_context_manager_restores(self):
        set_check_level("warn")
        with check_level("strict"):
            assert get_check_level() == "strict"
        assert get_check_level() == "warn"

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            set_check_level("loud")
        with pytest.raises(ValueError):
            get_check_level("loud")


class TestCheckMask:
    def test_off_never_inspects(self):
        assert check_mask(BAD_TBS, SPEC) is True

    def test_strict_raises(self):
        with pytest.raises(InvariantError, match="mask invariant"):
            check_mask(BAD_TBS, SPEC, level="strict")

    def test_warn_warns_and_continues(self):
        with pytest.warns(InvariantWarning):
            assert check_mask(BAD_TBS, SPEC, level="warn") is False

    def test_valid_mask_passes_strict(self):
        assert check_mask(GOOD_TBS, SPEC, level="strict") is True

    def test_context_includes_call_site(self):
        with pytest.raises(InvariantError, match="layer 7"):
            check_mask(BAD_TBS, SPEC, context="layer 7", level="strict")

    def test_global_strict_applies(self):
        set_check_level("strict")
        with pytest.raises(InvariantError):
            check_mask(BAD_TBS, SPEC)


class TestWarnDedup:
    def test_repeat_violations_warn_once_per_site(self):
        """A sweep tripping the same invariant at the same call site
        emits ONE warning; the rest are tallied."""
        with pytest.warns(InvariantWarning) as caught:
            for _ in range(5):
                check_mask(BAD_TBS, SPEC, context="layer 3", level="warn")
        assert len(caught) == 1
        assert warning_counts() == {"mask:layer 3": 5}

    def test_distinct_sites_each_warn(self):
        with pytest.warns(InvariantWarning) as caught:
            check_mask(BAD_TBS, SPEC, context="layer 1", level="warn")
            check_mask(BAD_TBS, SPEC, context="layer 2", level="warn")
        assert len(caught) == 2
        assert set(warning_counts()) == {"mask:layer 1", "mask:layer 2"}

    def test_contextless_calls_always_warn(self):
        """No call-site key -> no dedup (nothing sane to key on)."""
        with pytest.warns(InvariantWarning) as caught:
            check_mask(BAD_TBS, SPEC, level="warn")
            check_mask(BAD_TBS, SPEC, level="warn")
        assert len(caught) == 2
        assert warning_counts() == {}

    def test_first_warning_mentions_suppression(self):
        with pytest.warns(InvariantWarning, match="counted, not re-warned"):
            check_mask(BAD_TBS, SPEC, context="layer 9", level="warn")

    def test_reset_reopens_the_site(self):
        with pytest.warns(InvariantWarning):
            check_mask(BAD_TBS, SPEC, context="site", level="warn")
        reset_warning_counts()
        assert warning_counts() == {}
        with pytest.warns(InvariantWarning):
            check_mask(BAD_TBS, SPEC, context="site", level="warn")

    def test_set_check_level_resets_dedup(self):
        with pytest.warns(InvariantWarning):
            check_mask(BAD_TBS, SPEC, context="site", level="warn")
        set_check_level("warn")
        assert warning_counts() == {}

    def test_strict_still_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(InvariantError):
                check_mask(BAD_TBS, SPEC, context="site", level="strict")

    def test_roundtrip_sites_dedupe_too(self):
        with pytest.warns(InvariantWarning) as caught:
            for _ in range(3):
                check_format_roundtrip(
                    _LossyFormat(), np.ones((4, 4)), context="sweep", level="warn"
                )
        assert len(caught) == 1
        assert warning_counts() == {"roundtrip:lossy:sweep": 3}


class _FakeWorkload:
    name = "fake"
    family = PatternFamily.TBS
    m = 4
    sparsity = 0.5
    mask = BAD_TBS
    tbs = None


class TestCheckWorkload:
    def test_bad_workload_mask_caught(self):
        with pytest.raises(InvariantError):
            check_workload(_FakeWorkload(), level="strict")

    def test_us_workload_always_passes(self):
        wl = _FakeWorkload()
        wl.family = PatternFamily.US
        assert check_workload(wl, level="strict") is True

    def test_real_workload_passes(self):
        from repro.workloads.generator import build_workload
        from repro.workloads.layers import LayerSpec

        wl = build_workload(LayerSpec("t", 16, 16, 8), PatternFamily.TBS, 0.5, seed=0)
        assert check_workload(wl, level="strict") is True


class _LossyFormat:
    name = "lossy"

    def encode(self, values, spec):
        mask = spec.mask
        return np.where(mask, values, 0.0) if mask is not None else np.asarray(values, float)

    def decode(self, encoded):
        return encoded + 1.0


class _CrashingFormat:
    name = "crashy"

    def encode(self, values, spec):
        raise RuntimeError("boom")

    def decode(self, encoded):  # pragma: no cover - encode already raised
        return encoded


class TestFormatRoundtrip:
    def test_real_format_passes_strict(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(16, 16))
        mask = rng.random((16, 16)) < 0.5
        assert check_format_roundtrip(SDCFormat(), values, mask=mask, level="strict")

    def test_lossy_format_caught(self):
        with pytest.raises(InvariantError, match="round-trip mismatch"):
            check_format_roundtrip(_LossyFormat(), np.ones((4, 4)), level="strict")

    def test_crash_becomes_invariant_report(self):
        with pytest.raises(InvariantError, match="round-trip crashed"):
            check_format_roundtrip(_CrashingFormat(), np.ones((4, 4)), level="strict")

    def test_off_skips_the_encode(self):
        # Would crash if executed: "off" must not even attempt it.
        assert check_format_roundtrip(_CrashingFormat(), np.ones((4, 4))) is True
