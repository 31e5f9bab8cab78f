"""One training cell for every experiment that trains a model.

Every experiment builds its models through ``experiments._training``,
whose kwargs (and cell key) are normalized to the work ``train()``
does, and Table II and Fig. 15(b) prune or quantize the model that
cell holds.  These tests pin that the normalization is exact, that a
shared cache then trains a model once across experiments, that a
cache cannot serve a cell on the wrong model, and that every
experiment reaches the sweep engine through the module's one
``run_sweep`` binding.
"""

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    EXPERIMENTS,
    run_experiment,
    run_fig1_pareto,
    run_fig15_quantization,
    run_fig18_convergence,
    run_table1,
    run_table2,
)
from repro.cli import main
from repro.nn.train import train
from repro.runtime.cellcache import CellCache, cache_key
from repro.sweep import SweepCellResult, SweepOptions, SweepResult


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


def _count_train(monkeypatch):
    """Record every ``train()`` call a training cell makes in process."""
    calls = []
    real_train = experiments.train

    def counting_train(*args, **kwargs):
        calls.append(kwargs)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(experiments, "train", counting_train)
    return calls


def _statuses():
    statuses = []
    return statuses, SweepOptions(progress=lambda cell, done, total: statuses.append(cell.status))


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
        cooked = experiments._model_cell(**cell.kwargs)
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

        calls = _count_train(monkeypatch)
        statuses, options = _statuses()
        warm = run_fig18_convergence(
            epochs=1, workers=1, cache_dir=cache, resume=True, options=options
        )
        assert calls == []
        assert statuses == ["cached"] * 3
        assert warm == cold

    def test_fig1_builds_ten_training_cells_per_seed(self, monkeypatch):
        specs = _capture_specs(monkeypatch)
        with pytest.raises(_Stop):
            run_fig1_pareto(seeds=(0, 1), sparsities=(0.5, 0.75), epochs=1)
        (spec,) = specs
        trained = [cell for cell in spec.cells if cell.fn.endswith(":_model_cell")]
        assert len(trained) == 2 * 10
        edp = [cell for cell in spec.cells if cell.fn.endswith(":_fig1_edp_cell")]
        assert len(edp) == 1 + 5 * 2  # TC once, every other design at both sparsities
        ts = [cell for cell in trained if cell.kwargs["family"] == "TS"]
        assert [(c.kwargs["seed"], c.kwargs["sparsity"]) for c in ts] == [(0, 0.5), (1, 0.5)]

    def test_report_all_trains_each_model_once(self, tmp_path, monkeypatch, capsys):
        """25 distinct models at one seed: Table I's 18, Fig. 1's four
        encoders at 75% and Fig. 15(a)'s TBS MLPs at M = 4, 16 and 32.
        Table II, Fig. 15(b) and Fig. 18 train nothing of their own."""
        calls = _count_train(monkeypatch)
        argv = ["report", "all", "--seeds", "1", "--epochs", "1", "--scale", "16",
                "--workers", "1", "--checkpoint-dir", str(tmp_path), "--resume"]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 25

    def test_table2_after_table1_trains_nothing(self, tmp_path, monkeypatch, capsys):
        argv = ["--seeds", "1", "--epochs", "1", "--workers", "1", "--json",
                "--checkpoint-dir", str(tmp_path)]
        assert main(["report", "table1", *argv]) == 0
        calls = _count_train(monkeypatch)
        assert main(["report", "table2", *argv, "--resume"]) == 0
        assert calls == []
        warm = capsys.readouterr().out.splitlines()[-1]
        assert main(["report", "table2", "--seeds", "1", "--epochs", "1", "--json"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == warm


class TestCacheSafety:
    def test_an_entry_without_a_model_is_not_served(self, tmp_path, monkeypatch):
        """A training-cell entry from before the cell held its model (the
        ``_train_cell`` payload) is a miss: Fig. 15(b) retrains."""
        cell = experiments._training("mlp", "TBS", 0.75, seed=0, epochs=1)
        old_payload = {"fn": "repro.analysis.experiments:_train_cell",
                       "kwargs": cell.kwargs, "seed": None}
        cache = CellCache(tmp_path)
        cache.write(cache.path(cell.key, old_payload), {"test_accuracy": 0.0})

        calls = _count_train(monkeypatch)
        statuses, options = _statuses()
        res = run_fig15_quantization(epochs=1, scale=16, workers=1, cache_dir=str(tmp_path),
                                     resume=True, options=options)
        assert len(calls) == 1
        assert "cached" not in statuses
        assert res["sparse_accuracy"] > 0.0

    def test_second_stage_cells_key_on_the_training_kwargs(self):
        """The cache hashes an array by its numpy ``repr``, which elides
        past 1,000 elements, so two models can hash alike; the training
        kwargs beside them are what keeps their cells apart."""
        a = np.zeros((48, 48))
        b = a.copy()
        b[24, 24] = 1.0
        assert cache_key("k", {"model": {"w": a}}) == cache_key("k", {"model": {"w": b}})

        keys = []
        for epochs, model in ((1, a), (2, b)):
            trained = experiments._training("mlp", "Dense", 0.0, seed=0, epochs=epochs)
            models = SweepResult("t", workers=1, cells=[
                SweepCellResult(trained.key, "ok", value={"model": {"w": model}})
            ])
            cell = experiments._on_model("p", experiments._prune_cell, trained, models,
                                         sparsity=0.5, criteria=("magnitude",))
            keys.append(cache_key(cell.key, cell.payload()))
        assert keys[0] != keys[1]

    def test_an_epochs_1_cache_serves_no_prune_cell_at_epochs_2(self, tmp_path):
        kwargs = dict(tasks=(("mlp", 0.5),), criteria=("magnitude",), seeds=(0,),
                      workers=1, cache_dir=str(tmp_path), resume=True)
        run_table2(epochs=1, **kwargs)
        statuses, options = _statuses()
        run_table2(epochs=2, options=options, **kwargs)
        assert statuses == ["ok", "ok"]


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
