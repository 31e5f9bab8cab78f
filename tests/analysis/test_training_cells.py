"""One training cell for every experiment that trains a model.

Table I, Fig. 1, Fig. 15(a) and Fig. 18 build their models through
``experiments._training``, whose kwargs (and cell key) are normalized to
the work ``train()`` does.  These tests pin that the normalization is
exact, that a shared cache then trains a model once across experiments,
and that every experiment reaches the sweep engine through the module's
one ``run_sweep`` binding.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    EXPERIMENTS,
    run_experiment,
    run_fig1_pareto,
    run_fig18_convergence,
    run_table1,
)
from repro.nn.train import train
from repro.sweep import SweepOptions


class _Stop(Exception):
    """Raised by a stand-in ``run_sweep`` once it has seen the spec."""


def _capture_specs(monkeypatch):
    specs = []

    def capture(spec, *args, **kwargs):
        specs.append(spec)
        raise _Stop

    monkeypatch.setattr(experiments, "run_sweep", capture)
    return specs


def _hex(values):
    return [float.hex(float(v)) for v in values]


class TestNormalization:
    @pytest.mark.parametrize(
        "family, sparsity, m, ts_cap, normalized",
        [
            ("Dense", 0.75, 4, 0.5, (0.0, 8)),
            ("US", 0.75, 8, 0.5, (0.75, 8)),
            ("TS", 0.75, 8, 0.5, (0.5, 8)),
        ],
    )
    def test_normalized_cell_trains_like_the_raw_arguments(
        self, family, sparsity, m, ts_cap, normalized
    ):
        cell = experiments._training("mlp", family, sparsity, seed=0, epochs=2, m=m, ts_cap=ts_cap)
        assert (cell.kwargs["sparsity"], cell.kwargs["m"]) == normalized
        assert "ts_cap" not in cell.kwargs

        model, data = experiments._proxy("mlp", 0)
        raw = train(
            model,
            data,
            family=experiments._family_by_name(family),
            sparsity=sparsity,
            m=m,
            ts_cap=ts_cap,
            epochs=2,
            seed=0,
        )
        cooked = experiments._train_cell(**cell.kwargs)
        assert float.hex(cooked["test_accuracy"]) == float.hex(raw.test_accuracy)
        assert _hex(cooked["loss_history"]) == _hex(raw.loss_history)
        assert _hex(cooked["sparsity_history"]) == _hex(raw.sparsity_history)


class TestSharing:
    def test_fig18_trains_nothing_after_table1(self, tmp_path, monkeypatch):
        cold = run_fig18_convergence(epochs=1, workers=1)
        cache = str(tmp_path)
        run_table1(
            tasks=(("mlp", 0.75),), seeds=(0,), epochs=1, workers=1, cache_dir=cache, resume=True
        )

        calls = []
        real_train = experiments.train

        def counting_train(*args, **kwargs):
            calls.append(kwargs)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(experiments, "train", counting_train)
        statuses = []
        warm = run_fig18_convergence(
            epochs=1,
            workers=1,
            cache_dir=cache,
            resume=True,
            options=SweepOptions(progress=lambda cell, done, total: statuses.append(cell.status)),
        )
        assert calls == []
        assert statuses == ["cached"] * 3
        assert warm == cold

    def test_fig1_builds_ten_training_cells_per_seed(self, monkeypatch):
        specs = _capture_specs(monkeypatch)
        with pytest.raises(_Stop):
            run_fig1_pareto(seeds=(0, 1), sparsities=(0.5, 0.75), epochs=1)
        (spec,) = specs
        trained = [cell for cell in spec.cells if cell.fn.endswith(":_train_cell")]
        assert len(trained) == 2 * 10
        edp = [cell for cell in spec.cells if cell.fn.endswith(":_fig1_edp_cell")]
        assert len(edp) == 1 + 5 * 2  # TC once, every other design at both sparsities
        ts = [cell for cell in trained if cell.kwargs["family"] == "TS"]
        assert [(c.kwargs["seed"], c.kwargs["sparsity"]) for c in ts] == [(0, 0.5), (1, 0.5)]


class TestOneSweepCall:
    def test_every_experiment_reaches_the_module_run_sweep(self, monkeypatch):
        """Rebinding ``experiments.run_sweep`` reaches every experiment: the
        one ``_sweep`` call reads it from the module globals at call time."""
        specs = _capture_specs(monkeypatch)
        for name in EXPERIMENTS:
            with pytest.raises(_Stop):
                run_experiment(name, seeds=(0,), epochs=1, scale=16, workers=1)
        assert len(specs) == len(EXPERIMENTS)
        assert all(spec.cells for spec in specs)

    def test_unknown_experiment_names_the_known_ones(self):
        with pytest.raises(ValueError, match="known: table1, table2"):
            run_experiment("fig99")
