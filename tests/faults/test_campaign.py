"""Tests for the Monte-Carlo fault campaign and its classification."""

import pytest

from repro.faults import (
    CLASSES,
    FAULT_MODELS,
    CampaignSpec,
    ECCConfig,
    render_campaign,
    run_campaign,
    run_cell,
    run_trial,
)

SMALL = dict(trials=6, rows=16, cols=16, m=8, sparsity=0.75)


class TestSpec:
    def test_defaults_cover_everything(self):
        from repro.formats import available_formats

        spec = CampaignSpec()
        assert set(spec.models) == set(FAULT_MODELS)
        assert spec.formats == available_formats()
        assert len(spec.formats) == 6

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            CampaignSpec(formats=("coo",))

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            CampaignSpec(models=("row_hammer",))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            CampaignSpec(trials=0)


class TestClassification:
    def test_every_trial_lands_in_a_class(self):
        spec = CampaignSpec(**SMALL)
        for fmt in spec.formats:
            for model in spec.models:
                for trial in range(spec.trials):
                    result = run_trial(spec, fmt, model, trial)
                    assert result is None or result in CLASSES

    def test_index_models_skip_formats_without_indices(self):
        spec = CampaignSpec(**SMALL)
        assert run_trial(spec, "dense", "index_flip", 0) is None
        assert run_trial(spec, "bitmap", "index_flip", 0) is None

    def test_dram_drop_is_always_loud(self):
        """Missing bytes always trip the DMA byte counter."""
        spec = CampaignSpec(**SMALL)
        for fmt in spec.formats:
            cell = run_cell(spec, fmt, "dram_drop")
            assert cell.counts["detected"] == cell.trials

    def test_dram_duplicate_is_benign(self):
        spec = CampaignSpec(**SMALL)
        cell = run_cell(spec, "ddc", "dram_dup")
        assert cell.counts["benign"] == cell.trials

    def test_checks_off_reduces_coverage(self):
        """The invariant layer is where most non-crash detection comes
        from: turning it off must not *increase* coverage anywhere."""
        on = CampaignSpec(models=("meta_flip",), check_level="warn", **SMALL)
        off = CampaignSpec(models=("meta_flip",), check_level="off", **SMALL)
        for fmt in ("csr", "sdc", "bitmap"):
            assert run_cell(off, fmt, "meta_flip").coverage <= run_cell(on, fmt, "meta_flip").coverage


class TestECC:
    def test_secded_corrects_all_single_metadata_flips(self):
        """The acceptance criterion: with SECDED, single-bit metadata
        flips must show zero uncorrected and zero silent outcomes."""
        spec = CampaignSpec(
            models=("meta_flip",), ecc=ECCConfig(mode="secded"), trials=12,
            rows=16, cols=16, m=8, sparsity=0.75,
        )
        for fmt in ("csr", "sdc", "ddc", "bitmap"):
            cell = run_cell(spec, fmt, "meta_flip")
            assert cell.counts["uncorrected"] == 0, fmt
            assert cell.counts["silent"] == 0, fmt
            assert cell.counts["corrected"] == cell.trials, fmt

    def test_secded_detects_double_flips_in_one_word(self):
        spec = CampaignSpec(
            models=("meta_flip_x2",), ecc=ECCConfig(mode="secded"), trials=8,
            rows=16, cols=16, m=8, sparsity=0.75,
        )
        cell = run_cell(spec, "csr", "meta_flip_x2")
        assert cell.counts["uncorrected"] == cell.trials
        assert cell.coverage == 1.0

    def test_parity_detects_but_never_corrects(self):
        spec = CampaignSpec(
            models=("meta_flip",), ecc=ECCConfig(mode="parity"), trials=8,
            rows=16, cols=16, m=8, sparsity=0.75,
        )
        cell = run_cell(spec, "csr", "meta_flip")
        assert cell.counts["corrected"] == 0
        assert cell.counts["uncorrected"] == cell.trials

    def test_ecc_does_not_shield_values(self):
        """ECC covers metadata only: value flips classify identically."""
        base = CampaignSpec(models=("value_flip",), **SMALL)
        protected = CampaignSpec(
            models=("value_flip",), ecc=ECCConfig(mode="secded"), **SMALL
        )
        assert run_cell(base, "csr", "value_flip").counts == \
            run_cell(protected, "csr", "value_flip").counts


class TestReproducibility:
    def test_same_seed_same_table(self):
        spec = CampaignSpec(formats=("ddc", "csr"), **SMALL)
        a = render_campaign(run_campaign(spec))
        b = render_campaign(run_campaign(spec))
        assert a == b

    def test_different_seed_may_differ_but_stays_classified(self):
        spec = CampaignSpec(formats=("ddc",), seed=1, **SMALL)
        result = run_campaign(spec)
        for cell in result.cells:
            assert cell.trials + cell.skipped == spec.trials

    def test_trial_isolation(self):
        """Trial k's outcome must not depend on which trials ran before."""
        spec = CampaignSpec(**SMALL)
        direct = run_trial(spec, "ddc", "meta_flip", 4)
        _ = [run_trial(spec, "ddc", "meta_flip", t) for t in range(4)]
        assert run_trial(spec, "ddc", "meta_flip", 4) == direct


class TestSweepCaching:
    def test_resumed_campaign_serves_cells_from_cache(self, tmp_path):
        spec = CampaignSpec(formats=("csr",), models=("meta_flip",), **SMALL)
        first = run_campaign(spec, cache_dir=tmp_path)
        second = run_campaign(spec, cache_dir=tmp_path, resume=True)
        assert "(1 computed, 0 from cache" in first.sweep_summary
        assert "(0 computed, 1 from cache" in second.sweep_summary
        assert first.cells[0].counts == second.cells[0].counts


class TestRendering:
    def test_table_has_all_classes_and_rates(self):
        spec = CampaignSpec(formats=("sdc",), models=("meta_flip",), **SMALL)
        text = render_campaign(run_campaign(spec))
        for cls in CLASSES:
            assert cls in text
        assert "SDC rate" in text and "coverage" in text
        assert "ecc=none" in text

    def test_ecc_footer_names_the_mode(self):
        spec = CampaignSpec(
            formats=("sdc",), models=("meta_flip",), ecc=ECCConfig(mode="secded"), **SMALL
        )
        text = render_campaign(run_campaign(spec))
        assert "ecc=secded" in text and "+6 check bits" in text
