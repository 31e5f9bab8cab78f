"""High-level experiment drivers -- one per paper table/figure.

Every driver is deterministic given its seed(s), returns plain dicts the
benchmarks/examples can assert on and render, and accepts size knobs so
the benches run in seconds while the examples can run bigger instances.

:data:`EXPERIMENTS` is the one ordered table of paper experiments: each
name maps to how ``repro report``'s seeds/epochs/scale/families knobs
call its driver, and :func:`run_experiment` looks names up there.
Every driver runs its cells through :func:`_sweep`, this module's one
call into the sweep engine (:mod:`repro.sweep`): ``workers=N`` shards
the grid across processes, ``workers=1`` (the default) runs the same
cell bodies inline, and aggregation always folds cell values in grid
order -- never in completion order -- so results are bit-identical at
any worker count.  The single-shot drivers (Table III, Fig. 4/6/12/14
and both Fig. 16 ablations) run as one-cell sweeps.

Every proxy model is trained in one place, :func:`_model_cell`, built by
:func:`_training` with its kwargs normalized to the work ``train()``
does; its value holds the trained model beside its accuracy and curves,
and Table II and Fig. 15(b) prune or quantize that model in a second
sweep of :func:`_on_model` cells.  The same model is therefore the same
cell, and one cell cache trains it once whichever experiment asks first.
Cell functions are module-level (and so picklable); simulator cells ship
their results across the process boundary as versioned
``SimResult.to_dict()`` payloads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.criteria import sparsegpt_scores, wanda_scores
from ..core.maskspace import maskspace_table
from ..core.patterns import PatternFamily
from ..core.similarity import pattern_similarity_sweep
from ..core.sparsify import tbs_sparsify
from ..core.transposable import transposable_sparsify
from ..hw.area import a100_overhead_percent, area_breakdown
from ..hw.config import tb_stc
from ..hw.energy import EnergyModel
from ..nn.data import cluster_dataset, image_dataset, sequence_dataset
from ..nn.layers import Conv2d, Linear
from ..nn.models import TransformerClassifier, make_cnn, make_mlp, prunable_layers
from ..nn.quantize import quantize_model
from ..nn.train import evaluate, one_shot_prune, train
from ..runtime.state import capture_masks, capture_model, restore_masks, restore_model
from ..sim.baselines import ARCH_FAMILY, arch_by_name
from ..sim.breakdown import codec_overhead_fraction, cycle_breakdown
from ..sim.engine import simulate
from ..sim.metrics import SimResult, aggregate, normalized_edp, speedup
from ..sim.options import SimOptions
from ..sweep import SweepCell, SweepOptions, SweepResult, SweepSpec, configured_workers, run_sweep
from ..workloads.generator import build_workload, synthetic_weights
from ..workloads.layers import LayerSpec, bert_layers, resnet50_layers
from ..workloads.models import build_model_workload
from ..workloads.scenarios import (
    SCENARIO_ARCH,
    SCENARIO_FAMILIES,
    SCENARIO_PATTERNS,
    build_scenario,
)
from .pareto import ParetoPoint, pareto_frontier

__all__ = [
    "ACCURACY_FAMILIES",
    "EXPERIMENTS",
    "run_experiment",
    "capture_layer_inputs",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig1_pareto",
    "run_fig4_maskspace",
    "run_fig6_datapath_power",
    "run_fig7_both_passes",
    "run_fig12_layerwise",
    "run_fig13_end2end",
    "run_fig14_breakdown",
    "run_fig15_block_size",
    "run_fig15_quantization",
    "run_fig15_bandwidth",
    "run_fig15_sparsity_sweep",
    "run_fig16_codec_ablation",
    "run_fig16_scheduling_ablation",
    "run_fig17_distribution",
    "run_fig18_convergence",
    "run_scenarios",
    "run_wide_oneshot",
]

#: The pattern families compared throughout the accuracy evaluation.
ACCURACY_FAMILIES = [
    PatternFamily.US,
    PatternFamily.TS,
    PatternFamily.RS_V,
    PatternFamily.RS_H,
    PatternFamily.TBS,
]


class _Knobs(NamedTuple):
    """``repro report``'s size knobs, as the :data:`EXPERIMENTS` entries read them."""

    seeds: Tuple[int, ...]
    epochs: int
    scale: int
    families: Optional[Sequence[str]]


#: Every paper experiment, in report order: the one registry
#: ``run_experiment`` (and through it the CLI and the service) looks
#: names up in.  Each entry calls its driver from the report knobs ``k``
#: and the four sweep arguments ``sweep``.
EXPERIMENTS: Dict[str, Callable[[_Knobs, Dict[str, Any]], Any]] = {
    "table1": lambda k, sweep: run_table1(seeds=k.seeds, epochs=k.epochs, **sweep),
    "table2": lambda k, sweep: run_table2(seeds=k.seeds, epochs=k.epochs, **sweep),
    "table3": lambda k, sweep: _one_cell("table3", run_table3, {}, sweep),
    "fig1": lambda k, sweep: run_fig1_pareto(
        seeds=k.seeds, epochs=k.epochs, scale=k.scale, **sweep
    ),
    "fig4": lambda k, sweep: _one_cell("fig4", run_fig4_maskspace, {}, sweep),
    "fig6": lambda k, sweep: _one_cell("fig6", run_fig6_datapath_power, {}, sweep),
    "fig7both": lambda k, sweep: run_fig7_both_passes(**sweep),
    "fig12": lambda k, sweep: _one_cell("fig12", run_fig12_layerwise, {"scale": k.scale}, sweep),
    "fig13": lambda k, sweep: run_fig13_end2end(scale=max(k.scale, 8), **sweep),
    "fig14": lambda k, sweep: _one_cell("fig14", run_fig14_breakdown, {"scale": k.scale}, sweep),
    "fig15": lambda k, sweep: {
        "block_size": run_fig15_block_size(scale=k.scale, epochs=k.epochs, **sweep),
        "quantization": run_fig15_quantization(epochs=k.epochs, scale=k.scale, **sweep),
        "bandwidth": run_fig15_bandwidth(scale=k.scale, **sweep),
        "sparsity_sweep": run_fig15_sparsity_sweep(scale=k.scale, **sweep),
    },
    "fig16": lambda k, sweep: {
        "codec": _one_cell("fig16-codec", run_fig16_codec_ablation, {"scale": k.scale}, sweep),
        "scheduling": _one_cell(
            "fig16-scheduling", run_fig16_scheduling_ablation, {"scale": k.scale}, sweep
        ),
    },
    "fig17": lambda k, sweep: run_fig17_distribution(**sweep),
    "fig18": lambda k, sweep: run_fig18_convergence(epochs=k.epochs, **sweep),
    "wide": lambda k, sweep: run_wide_oneshot(scale=k.scale, **sweep),
    "scenarios": lambda k, sweep: run_scenarios(
        scale=max(k.scale, 8), families=k.families, **sweep
    ),
}


def run_experiment(
    name: str,
    seeds: Sequence[int] = (0,),
    epochs: int = 8,
    scale: int = 4,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
    families: Optional[Sequence[str]] = None,
):
    """Compute the raw data behind one paper table/figure by name.

    Looks ``name`` up in :data:`EXPERIMENTS` and calls its driver with
    the three size knobs every experiment understands (``families``
    reaches only the scenario sweep).  Returns whatever the driver
    returns (plain dicts/lists, picklable); rendering stays in
    :mod:`repro.cli`.

    ``workers``/``cache_dir``/``resume``/``options`` reach every sweep
    unchanged, so every caller gets the same cell cache, supervision,
    cancellation and failure rule (a cell that raises is never retried).
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}")
    sweep = dict(workers=workers, cache_dir=cache_dir, resume=resume, options=options)
    return EXPERIMENTS[name](_Knobs(tuple(seeds), epochs, scale, families), sweep)


def _sweep(
    name: str,
    cells: Iterable[SweepCell],
    workers: Optional[int],
    cache_dir: Optional[str],
    resume: bool,
    options: Optional[SweepOptions],
) -> SweepResult:
    """Run ``cells`` as sweep ``name``: this module's one ``run_sweep`` call.

    ``run_sweep`` is read from the module globals at call time, so
    rebinding ``experiments.run_sweep`` reaches every experiment.  A
    failed cell raises :class:`~repro.sweep.SweepCellsFailed` once the
    sweep has settled.
    """
    return run_sweep(
        SweepSpec(name, tuple(cells)),
        workers=configured_workers(workers),
        cache_dir=cache_dir,
        resume=resume,
        options=options,
        strict=True,
    )


def _one_cell(key: str, driver: Callable[..., Any], kwargs: Dict[str, Any], sweep: Dict[str, Any]):
    """Run the single-shot ``driver(**kwargs)`` as the one-cell sweep ``key``."""
    return _sweep(key, (SweepCell(key=key, fn=driver, kwargs=kwargs),), **sweep).value(key)


# ---------------------------------------------------------------------------
# Model state helpers
# ---------------------------------------------------------------------------


def capture_layer_inputs(model, x: np.ndarray) -> Dict[int, np.ndarray]:
    """Calibration activations per prunable layer (for Wanda/SparseGPT).

    Runs one forward pass and reads each layer's cached GEMM input: the
    raw input for Linear, the im2col patch matrix for Conv2d -- exactly
    the reduction-dimension activations the criteria need.
    """
    model.eval()
    model(x)
    model.train()
    activations: Dict[int, np.ndarray] = {}
    for layer in prunable_layers(model):
        if isinstance(layer, Linear):
            acts = layer._x.reshape(-1, layer.in_features)
        elif isinstance(layer, Conv2d):
            acts = layer._cache[1].reshape(-1, layer._cache[1].shape[-1])
        else:  # pragma: no cover - only Linear/Conv2d are maskable
            continue
        activations[id(layer)] = acts
    return activations


# ---------------------------------------------------------------------------
# Accuracy experiments (Tables I / II, Fig. 18)
# ---------------------------------------------------------------------------


def _proxy(task: str, seed: int):
    """(model, data) pair for one proxy task."""
    if task == "cnn":
        data = image_dataset(n_samples=320, channels=3, size=16, n_classes=4, seed=seed)
        model = make_cnn(channels=3, width=12, n_classes=4, seed=100 + seed)
    elif task == "encoder":
        data = sequence_dataset(n_samples=384, seq_len=16, vocab=32, n_classes=4, seed=seed)
        model = TransformerClassifier(vocab=32, dim=32, heads=4, depth=2, n_classes=4, seed=100 + seed)
    elif task == "mlp":
        data = cluster_dataset(n_samples=640, n_features=48, n_classes=8, seed=seed, noise=1.3)
        model = make_mlp(48, 48, 8, depth=3, seed=100 + seed)
    else:
        raise ValueError(f"unknown proxy task {task!r}")
    return model, data


def _family_by_name(name: str) -> Optional[PatternFamily]:
    """``"Dense"`` -> ``None``, else the named pattern family."""
    return None if name == "Dense" else PatternFamily[name]


def _model_cell(
    task: str, family: str, sparsity: float, m: int, seed: int, epochs: int
) -> Dict[str, Any]:
    """Train one proxy model with the paper's sparse-training protocol.

    The one place a proxy model is trained; build it with
    :func:`_training`, which normalizes its kwargs.  The value holds the
    trained model under ``"model"`` (:mod:`repro.runtime.state` arrays)
    for :func:`_on_model` cells to restore.
    """
    model, data = _proxy(task, seed)
    res = train(
        model,
        data,
        family=_family_by_name(family),
        sparsity=sparsity,
        epochs=epochs,
        m=m,
        seed=seed,
        ts_cap=None,
    )
    return {
        "test_accuracy": res.test_accuracy,
        "loss_history": res.loss_history,
        "sparsity_history": res.sparsity_history,
        "model": {**capture_model(model), **capture_masks(prunable_layers(model))},
    }


def _training(
    task: str,
    family: str,
    sparsity: float,
    seed: int,
    epochs: int,
    m: int = 8,
    ts_cap: Optional[float] = None,
) -> SweepCell:
    """The :func:`_model_cell` for one model, its kwargs and key
    normalized to the work ``train()`` does, so every experiment builds
    the same cell (and cache entry) for the same model:

    * Dense trains no mask, so its sparsity is 0.0 and its M is 8;
    * ``ts_cap`` acts only on TS and is folded in as
      ``min(sparsity, ts_cap)`` (the cell trains with ``ts_cap=None``).
    """
    sparsity = float(sparsity)
    if family == "Dense":
        sparsity, m = 0.0, 8
    elif family == "TS" and ts_cap is not None:
        sparsity = min(sparsity, ts_cap)
    return SweepCell(
        key=f"{task}@{sparsity}/m={m}/seed{seed}/{family}",
        fn=_model_cell,
        kwargs={
            "task": task,
            "family": family,
            "sparsity": sparsity,
            "m": m,
            "seed": seed,
            "epochs": epochs,
        },
    )


def _on_model(
    key: str, fn: Callable[..., Any], trained: SweepCell, models: SweepResult, **kwargs: Any
) -> SweepCell:
    """Second-stage cell ``fn(trained=..., model=..., **kwargs)`` on the
    model of the training cell ``trained`` in ``models``.  The training
    kwargs ride beside the arrays because the cell cache hashes an array
    by its ``repr``, which numpy elides past 1,000 elements.
    """
    model = models.value(trained.key)["model"]
    return SweepCell(key, fn, {"trained": trained.kwargs, "model": model, **kwargs})


def _load(net, model: Dict[str, np.ndarray]) -> None:
    """Put the trained parameters and masks ``model`` into ``net``."""
    restore_model(net, model)
    restore_masks(prunable_layers(net), model)


def _restored(trained: Dict[str, Any], model: Dict[str, np.ndarray]):
    """(net, data): the proxy of training cell kwargs ``trained``, holding ``model``."""
    net, data = _proxy(trained["task"], trained["seed"])
    _load(net, model)
    return net, data


def _mean_accuracy(sweep: SweepResult, cells: Iterable[SweepCell]) -> float:
    """Mean test accuracy of the training ``cells``, folded in their order."""
    return float(np.mean([sweep.value(cell.key)["test_accuracy"] for cell in cells]))


def run_table1(
    tasks: Sequence[Tuple[str, float]] = (("cnn", 0.75), ("encoder", 0.5), ("mlp", 0.75)),
    seeds: Sequence[int] = (0, 1, 2),
    epochs: int = 10,
    ts_cap: Optional[float] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, Dict[str, float]]:
    """Table I -- sparse-training accuracy per pattern family.

    Proxy substitutions: TinyResNet on the image task stands in for
    ResNet-50/18 (75% sparsity), the encoder classifier for BERT (50%).
    ``ts_cap=None`` runs TS at matched sparsity (iso-sparsity protocol);
    pass ``0.5`` for the paper's hardware-pinned 4:8 footnote variant.
    Returns ``{task: {family_or_Dense: mean accuracy}}``.

    One training cell per (task, seed, family); per-family means always
    fold accuracies in seed order, so the result is bit-identical at any
    worker count.
    """
    family_names = ["Dense"] + [family.name for family in ACCURACY_FAMILIES]
    cells = {
        (task, seed, family): _training(task, family, sparsity, seed, epochs, ts_cap=ts_cap)
        for task, sparsity in tasks
        for seed in seeds
        for family in family_names
    }
    sweep = _sweep("table1", cells.values(), workers, cache_dir, resume, options)
    return {
        task: {
            family: _mean_accuracy(sweep, [cells[task, seed, family] for seed in seeds])
            for family in family_names
        }
        for task, _ in tasks
    }


def _prune_cell(
    trained: Dict[str, Any], model: Dict[str, np.ndarray], sparsity: float, criteria: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """One Table II grid point: one-shot prune the dense model of the
    training cell ``trained`` with every criterion x family, each from
    the trained weights.  Returns ``{criterion: {family: accuracy}}``.
    """
    net, data = _restored(trained, model)
    acts = capture_layer_inputs(net, data[0][:64])

    per_criterion: Dict[str, Dict[str, float]] = {}
    for criterion in criteria:

        def score_fn(layer, _criterion=criterion):
            w2d = layer.weight_matrix()
            layer_acts = acts[id(layer)]
            if _criterion == "wanda":
                return wanda_scores(w2d, layer_acts)
            if _criterion == "sparsegpt":
                return sparsegpt_scores(w2d, layer_acts)
            if _criterion == "magnitude":
                return np.abs(w2d)
            raise ValueError(f"unknown criterion {_criterion!r}")

        accs: Dict[str, float] = {}
        for family in ACCURACY_FAMILIES:
            _load(net, model)
            one_shot_prune(net, family, sparsity, score_fn=score_fn, ts_cap=None)
            accs[family.name] = evaluate(net, data[2], data[3])
        per_criterion[criterion] = accs
    return per_criterion


def run_table2(
    tasks: Sequence[Tuple[str, float]] = (("mlp", 0.5), ("encoder", 0.5)),
    criteria: Sequence[str] = ("wanda", "sparsegpt"),
    seeds: Sequence[int] = (0, 1, 2),
    epochs: int = 10,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, Dict[str, float]]:
    """Table II -- one-shot pruning accuracy per (criterion, family).

    Proxies stand in for OPT-6.7B / Llama2-7B: a model is trained dense,
    then pruned one-shot at 50% with each criterion x pattern and
    evaluated without retraining.  Returns
    ``{f"{task}/{criterion}": {family_or_Dense: mean accuracy}}``.

    Two sweeps: the Dense training cells (Table I's, for the same task
    and seed), then one prune cell per (task, sparsity, seed) on each
    trained model; aggregation folds accuracies in seed order for
    bit-identical means at any worker count.
    """
    criteria = tuple(criteria)
    trained = {
        (task, seed): _training(task, "Dense", 0.0, seed, epochs)
        for task, _ in tasks
        for seed in seeds
    }
    models = _sweep("table2", trained.values(), workers, cache_dir, resume, options)
    pruned = {
        (task, sparsity, seed): _on_model(
            f"{task}@{sparsity}/seed{seed}", _prune_cell, trained[task, seed], models,
            sparsity=sparsity, criteria=criteria,
        )
        for task, sparsity in tasks
        for seed in seeds
    }
    sweep = _sweep("table2-prune", pruned.values(), workers, cache_dir, resume, options)
    results: Dict[str, Dict[str, List[float]]] = {}
    for task, sparsity in tasks:
        for seed in seeds:
            dense = models.value(trained[task, seed].key)["test_accuracy"]
            accs = sweep.value(pruned[task, sparsity, seed].key)
            for criterion in criteria:
                bucket = results.setdefault(f"{task}/{criterion}", {})
                bucket.setdefault("Dense", []).append(dense)
                for family in ACCURACY_FAMILIES:
                    bucket.setdefault(family.name, []).append(accs[criterion][family.name])
    return {key: {n: float(np.mean(v)) for n, v in bucket.items()} for key, bucket in results.items()}


def run_fig18_convergence(
    task: str = "mlp",
    sparsity: float = 0.75,
    epochs: int = 12,
    seed: int = 0,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, List[float]]:
    """Fig. 18 -- loss curves for dense / US / TBS training.

    Three training cells, the same models as Table I's cells for that
    task, sparsity and seed.
    """
    cells = {
        name: _training(task, family, sparsity, seed, epochs)
        for name, family in (("dense", "Dense"), ("US", "US"), ("TBS", "TBS"))
    }
    sweep = _sweep("fig18", cells.values(), workers, cache_dir, resume, options)
    curves = {name: sweep.value(cell.key)["loss_history"] for name, cell in cells.items()}
    curves["TBS_sparsity"] = sweep.value(cells["TBS"].key)["sparsity_history"]
    return curves


# ---------------------------------------------------------------------------
# Wide-layer one-shot transposable pruning (tsolver scenario)
# ---------------------------------------------------------------------------


def _wide_cell(
    backend: str, rows: int, cols: int, m: int, sparsity: float, seed: int
) -> Dict[str, float]:
    """One wide-pruning grid point: magnitude one-shot NM-T pruning of a
    synthetic layer with one solver backend.  Cell values are retained
    |score| fractions -- pure functions of the kwargs, so the sweep is
    bit-identical at any worker count (no wall-clock in the payload)."""
    weights = synthetic_weights(rows, cols, seed=seed)
    scores = np.abs(weights)
    mask, _ = transposable_sparsify(scores, m=m, sparsity=sparsity, backend=backend)
    return {
        "retained_score": float((scores * mask).sum() / scores.sum()),
        "density": float(mask.mean()),
    }


def run_wide_oneshot(
    sparsity: float = 0.75,
    seed: int = 0,
    scale: int = 4,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, Dict[str, float]]:
    """Wide-layer one-shot pruning across transposable-solver backends.

    Three scenarios, each magnitude-pruned to the strictly transposable
    NM-T pattern (:func:`repro.core.transposable.transposable_sparsify`):

    * ``ref`` -- a small M=8 layer where the ``exact`` min-cost-flow
      oracle is tractable; all three backends run and the greedy/tsenor
      rows carry their retained-score ratio against exact.
    * ``wide`` -- a wide M=32 layer (projection-style shape) where exact
      is intractable; greedy and ``tsenor`` (the batched Sinkhorn
      backend) are compared head to head.
    * ``wide64`` -- a wider-still M=64 layer that only the vectorized
      tsenor backend solves in reasonable time.

    Returns ``{scenario: {backend: retained_score, ...}}`` plus the
    quality ratios; one sweep cell per (scenario, backend).
    """
    scale = max(int(scale), 1)
    shapes = {
        "ref": (max(8, 512 // scale), max(8, 1024 // scale), 8),
        "wide": (max(32, 1024 // scale), max(32, 4096 // scale), 32),
        "wide64": (max(64, 2048 // scale), max(64, 8192 // scale), 64),
    }
    grid = [
        ("ref", "greedy"),
        ("ref", "exact"),
        ("ref", "tsenor"),
        ("wide", "greedy"),
        ("wide", "tsenor"),
        ("wide64", "tsenor"),
    ]
    cells = [
        SweepCell(
            key=f"{scenario}/{backend}",
            fn=_wide_cell,
            kwargs={
                "backend": backend,
                "rows": shapes[scenario][0],
                "cols": shapes[scenario][1],
                "m": shapes[scenario][2],
                "sparsity": sparsity,
                "seed": seed,
            },
        )
        for scenario, backend in grid
    ]
    sweep = _sweep("wide-oneshot", cells, workers, cache_dir, resume, options)
    out: Dict[str, Dict[str, float]] = {}
    for scenario, backend in grid:
        cell = sweep.value(f"{scenario}/{backend}")
        row = out.setdefault(scenario, {})
        row[backend] = cell["retained_score"]
        row.setdefault("density", cell["density"])
    exact = out["ref"]["exact"]
    for backend in ("greedy", "tsenor"):
        out["ref"][f"{backend}_vs_exact"] = out["ref"][backend] / exact
    out["wide"]["tsenor_vs_greedy"] = out["wide"]["tsenor"] / out["wide"]["greedy"]
    for scenario, (rows, cols, m) in shapes.items():
        out[scenario]["m"] = float(m)
        out[scenario]["rows"] = float(rows)
        out[scenario]["cols"] = float(cols)
    return out


# ---------------------------------------------------------------------------
# Pattern analyses (Fig. 4, Fig. 17)
# ---------------------------------------------------------------------------


def run_fig4_maskspace(x: int = 64, y: int = 64, m: int = 8, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Fig. 4(b)/(c) -- mask similarity with US and log2 mask-space."""
    weights = synthetic_weights(256, 256, seed=seed)
    return {
        "similarity": pattern_similarity_sweep(weights, sparsity=0.75, m=m),
        "log2_maskspace": maskspace_table(x, y, m),
    }


def _fig17_cell(sparsity: float, seed: int) -> List[Dict[str, int]]:
    """One Fig. 17 grid point: per-layer direction histograms at one
    sparsity (plain int counts, cheap to ship across processes)."""
    histograms: List[Dict[str, int]] = []
    for i, layer in enumerate(resnet50_layers()[:6]):
        spec = layer.scaled(4)
        weights = synthetic_weights(spec.rows, spec.cols, seed=seed + i)
        histograms.append(tbs_sparsify(weights, m=8, sparsity=sparsity).direction_histogram())
    return histograms


def _histogram_fractions(histograms: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """Fold per-layer direction histograms into Fig. 17 fractions
    (integer sums, so the result is independent of fold order)."""
    totals = {"row": 0, "col": 0, "other": 0}
    for hist in histograms:
        for key in totals:
            totals[key] += hist[key]
    count = sum(totals.values())
    if count == 0:
        return {key: 0.0 for key in totals}
    return {key: value / count for key, value in totals.items()}


def run_fig17_distribution(
    sparsities: Sequence[float] = (0.5, 0.75, 0.875),
    seed: int = 0,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 17 -- block-direction distribution of TBS-pruned layers.

    One sweep cell per sparsity degree; cells return integer block
    counts, so both the per-sparsity and the pooled "Total" rows are
    exact whatever order the cells finished in.
    """
    cells = [
        SweepCell(
            key=f"sparsity={sparsity}",
            fn=_fig17_cell,
            kwargs={"sparsity": sparsity, "seed": seed},
        )
        for sparsity in sparsities
    ]
    sweep = _sweep("fig17", cells, workers, cache_dir, resume, options)
    out: Dict[str, Dict[str, float]] = {}
    all_histograms: List[Dict[str, int]] = []
    for sparsity in sparsities:
        histograms = sweep.value(f"sparsity={sparsity}")
        out[f"sparsity={sparsity:.0%}"] = _histogram_fractions(histograms)
        all_histograms.extend(histograms)
    out["Total"] = _histogram_fractions(all_histograms)
    return out


# ---------------------------------------------------------------------------
# Hardware experiments
# ---------------------------------------------------------------------------


def run_table3() -> Dict[str, Dict[str, float]]:
    """Table III -- area/power breakdown plus the A100 integration figure."""
    cfg = tb_stc()
    return {
        "area_mm2": area_breakdown(cfg),
        "power_mw": EnergyModel(cfg).peak_dynamic_power_mw(),
        "a100_overhead_percent": {"value": a100_overhead_percent(cfg)},
    }


def run_fig6_datapath_power() -> Dict[str, float]:
    """Fig. 6(d) -- peak datapath power, RM-STC vs TB-STC."""
    ours = EnergyModel(tb_stc()).peak_dynamic_power_mw()["Total"]
    theirs = EnergyModel(arch_by_name("RM-STC")).peak_dynamic_power_mw()["Total"]
    return {"TB-STC_mw": ours, "RM-STC_mw": theirs, "ratio": theirs / ours}


def _fig7both_cell(sparsity: float, seed: int, size: int) -> Dict[str, Dict[str, float]]:
    """One both-passes grid point: every registered format encoded ONCE,
    then traced and traffic-analysed in both orientations.

    The transposed ("backward") numbers come from the same encoding --
    :meth:`EncodedMatrix.trace` derives the transposed walk, so formats
    whose layouts transpose poorly (CSR's per-element scatter, SDC's
    per-block-column re-fetch) pay their honest penalty while BCSR-COO's
    COO side table keeps its payload runs intact.
    """
    from ..formats.base import ORIENTATIONS, EncodeSpec
    from ..formats.memory_model import traffic_report
    from ..formats.registry import available_formats, get_format

    weights = synthetic_weights(size, size, seed=seed)
    res = tbs_sparsify(weights, m=8, sparsity=sparsity)
    spec = EncodeSpec(mask=res.mask, tbs=res, block_size=8)
    out: Dict[str, Dict[str, float]] = {}
    for name in available_formats():
        encoded = get_format(name).encode(weights, spec)
        row: Dict[str, float] = {}
        for orient in ORIENTATIONS:
            key = "forward" if orient == "forward" else "backward"
            rep = traffic_report(encoded, orientation=orient)
            row[f"{key}_util"] = rep.bandwidth_utilization
            row[f"{key}_traced_bytes"] = float(encoded.traced_bytes_for(orient))
            row[f"{key}_fetched_bytes"] = float(rep.fetched_bytes)
        out[name] = row
    return out


def run_fig7_both_passes(
    sparsities: Sequence[float] = (0.5, 0.75, 0.875),
    seed: int = 0,
    size: int = 256,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 7 analogue extended with the backward (transposed) pass.

    One sweep cell per sparsity; each cell encodes every registered
    format once and reports both consumption orientations, so the table
    directly shows what the forward/backward duality of TB-STC's
    transposable masks costs each storage format.
    """
    cells = [
        SweepCell(
            key=f"sparsity={sparsity}",
            fn=_fig7both_cell,
            kwargs={"sparsity": sparsity, "seed": seed, "size": size},
        )
        for sparsity in sparsities
    ]
    sweep = _sweep("fig7both", cells, workers, cache_dir, resume, options)
    out: Dict[str, Dict[str, float]] = {}
    for sparsity in sparsities:
        cell = sweep.value(f"sparsity={sparsity}")
        for name, row in cell.items():
            out[f"sparsity={sparsity:.0%} {name}"] = row
    return out


def run_fig12_layerwise(
    layers: Optional[Sequence[LayerSpec]] = None,
    sparsities: Sequence[float] = (0.5, 0.625, 0.75, 0.875),
    arch_names: Sequence[str] = ("TC", "STC", "VEGETA", "HighLight", "RM-STC", "TB-STC"),
    scale: int = 4,
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 12 -- layer-wise speedup and normalized EDP vs sparsity.

    Returns ``{layer: {f"sparsity={s}": {arch: speedup}, ...}}`` with the
    EDP table under the ``"edp"`` suffix keys.
    """
    from ..sim.baselines import simulate_layer_sweep

    if layers is None:
        layers = [resnet50_layers()[8], bert_layers()[2]]
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for layer in layers:
        layer_out: Dict[str, Dict[str, float]] = {}
        for sparsity in sparsities:
            results = simulate_layer_sweep(
                layer, sparsity, arch_names=list(arch_names), scale=scale, seed=seed
            )
            base = results["TC"]
            layer_out[f"speedup@{sparsity:.0%}"] = {
                name: speedup(res, base) for name, res in results.items()
            }
            layer_out[f"edp@{sparsity:.0%}"] = {
                name: normalized_edp(res, base) for name, res in results.items()
            }
        out[layer.name] = layer_out
    return out


def _fig13_cell(model: str, arch: str, scale: int, seed: int) -> Dict[str, Any]:
    """One Fig. 13 grid point: a whole model on one architecture.

    Ships the aggregated :class:`SimResult` across the process boundary
    as its versioned ``to_dict()`` payload.
    """
    config = arch_by_name(arch)
    family = ARCH_FAMILY[arch]
    bundle = build_model_workload(model, family, m=8, seed=seed, scale=scale)
    layer_results = [simulate(config, wl) for wl in bundle.layers]
    return aggregate(layer_results, bundle.repeats).to_dict()


def run_fig13_end2end(
    models: Sequence[str] = ("resnet50", "bert", "opt-6.7b"),
    arch_names: Sequence[str] = ("TC", "STC", "VEGETA", "HighLight", "RM-STC", "TB-STC"),
    scale: int = 8,
    seed: int = 0,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 13 -- end-to-end iso-accuracy speedup and normalized EDP.

    One sweep cell per (model, architecture); normalization against the
    TC baseline happens after the sweep, from the spec-ordered results.
    """
    cells = [
        SweepCell(
            key=f"{model}/{name}",
            fn=_fig13_cell,
            kwargs={"model": model, "arch": name, "scale": scale, "seed": seed},
        )
        for model in models
        for name in arch_names
    ]
    sweep = _sweep("fig13", cells, workers, cache_dir, resume, options)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for model in models:
        per_arch: Dict[str, SimResult] = {
            name: SimResult.from_dict(sweep.value(f"{model}/{name}")) for name in arch_names
        }
        base = per_arch["TC"]
        out[model] = {
            "speedup": {n: speedup(r, base) for n, r in per_arch.items()},
            "edp": {n: normalized_edp(r, base) for n, r in per_arch.items()},
        }
    return out


def run_fig14_breakdown(scale: int = 4, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Fig. 14 -- execution-cycle breakdown of the BERT layer GEMMs."""
    out: Dict[str, Dict[str, float]] = {}
    config = tb_stc()
    for layer in bert_layers():
        workload = build_workload(layer, PatternFamily.TBS, 0.625, seed=seed, scale=scale)
        result = simulate(config, workload)
        shares = cycle_breakdown(result)
        shares["codec_fraction"] = codec_overhead_fraction(result)
        out[layer.name] = shares
    return out


# ---------------------------------------------------------------------------
# Sensitivity studies (Fig. 15)
# ---------------------------------------------------------------------------


def _fig15_block_cell(m: int, sparsity: float, seed: int, scale: int) -> float:
    """One Fig. 15(a) speedup point at one block size.  Each cell
    recomputes the cheap dense baseline so it stays a pure function of
    its kwargs."""
    layer = resnet50_layers()[8]
    base_workload = build_workload(layer, PatternFamily.US, 0.0, seed=seed, scale=scale)
    dense = simulate(arch_by_name("TC"), base_workload)
    workload = build_workload(layer, PatternFamily.TBS, sparsity, m=m, seed=seed, scale=scale)
    return speedup(simulate(tb_stc(), workload), dense)


def run_fig15_block_size(
    block_sizes: Sequence[int] = (4, 8, 16, 32),
    sparsity: float = 0.75,
    seed: int = 0,
    epochs: int = 8,
    scale: int = 4,
    with_accuracy: bool = True,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[int, Dict[str, float]]:
    """Fig. 15(a) -- block size vs speedup and accuracy.

    One speedup cell per block size plus, ``with_accuracy``, one TBS
    training cell of the MLP proxy per block size (at M=8 that is Table
    I's MLP TBS model).
    """
    cells = [
        SweepCell(
            key=f"m={m}",
            fn=_fig15_block_cell,
            kwargs={"m": m, "sparsity": sparsity, "seed": seed, "scale": scale},
        )
        for m in block_sizes
    ]
    trained = {
        m: _training("mlp", "TBS", sparsity, seed, epochs, m=m)
        for m in block_sizes
        if with_accuracy
    }
    sweep = _sweep(
        "fig15-block-size", [*cells, *trained.values()], workers, cache_dir, resume, options
    )
    out = {m: {"speedup": sweep.value(f"m={m}")} for m in block_sizes}
    for m, cell in trained.items():
        out[m]["accuracy"] = sweep.value(cell.key)["test_accuracy"]
    return out


def _quantize_cell(trained: Dict[str, Any], model: Dict[str, np.ndarray]) -> float:
    """Fig. 15(b)'s accuracy side: the test accuracy of the training
    cell ``trained``'s model with its weights fake-quantized to 8 bits."""
    net, data = _restored(trained, model)
    quantize_model(net, bits=8)
    return evaluate(net, data[2], data[3])


def _int8_speedup_cell(sparsity: float, seed: int, scale: int) -> float:
    """Fig. 15(b)'s performance side: INT8 over FP16 weights (halved
    weight traffic) on the TBS-pruned ResNet-50 layer."""
    layer = resnet50_layers()[8]
    workload = build_workload(layer, PatternFamily.TBS, sparsity, seed=seed, scale=scale)
    fp16 = simulate(tb_stc(), workload)
    int8 = simulate(tb_stc(), workload, options=SimOptions(weight_bits=8))
    return speedup(int8, fp16)


def run_fig15_quantization(
    task: str = "mlp",
    sparsity: float = 0.75,
    epochs: int = 10,
    seed: int = 0,
    scale: int = 4,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, float]:
    """Fig. 15(b) -- weight-8-bit quantization on TBS-pruned models.

    Returns the extra speedup from INT8 weights and the accuracy delta.
    Two sweeps: the TBS training cell (Table I's model at M=8) beside
    the speedup cell, then one cell that quantizes the trained model.
    """
    trained = _training(task, "TBS", sparsity, seed, epochs)
    perf = SweepCell(
        "int8-speedup", _int8_speedup_cell, {"sparsity": sparsity, "seed": seed, "scale": scale}
    )
    models = _sweep("fig15-quantization", (trained, perf), workers, cache_dir, resume, options)
    quantized = _on_model("int8-accuracy", _quantize_cell, trained, models)
    sweep = _sweep("fig15-quantized", (quantized,), workers, cache_dir, resume, options)
    sparse_acc = models.value(trained.key)["test_accuracy"]
    quant_acc = sweep.value(quantized.key)
    return {
        "sparse_accuracy": sparse_acc,
        "quantized_accuracy": quant_acc,
        "accuracy_drop": sparse_acc - quant_acc,
        "extra_speedup": models.value(perf.key),
    }


def _fig15_bandwidth_cell(bw: float, sparsity: float, seed: int, scale: int) -> float:
    """One Fig. 15(c) grid point: simulated cycles at one DRAM bandwidth."""
    layer = bert_layers()[2]
    workload = build_workload(layer, PatternFamily.TBS, sparsity, seed=seed, scale=scale)
    return simulate(tb_stc(dram_bandwidth_gbs=float(bw)), workload).cycles


def run_fig15_bandwidth(
    bandwidths: Sequence[float] = (32, 64, 128, 256, 512),
    sparsity: float = 0.75,
    seed: int = 0,
    scale: int = 4,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[float, float]:
    """Fig. 15(c) -- normalized speedup vs off-chip bandwidth.

    Cells return raw cycle counts; normalization against the lowest
    bandwidth point happens after the sweep.
    """
    cells = [
        SweepCell(
            key=f"bw={bw}",
            fn=_fig15_bandwidth_cell,
            kwargs={"bw": bw, "sparsity": sparsity, "seed": seed, "scale": scale},
        )
        for bw in bandwidths
    ]
    sweep = _sweep("fig15-bandwidth", cells, workers, cache_dir, resume, options)
    cycles = {bw: sweep.value(f"bw={bw}") for bw in bandwidths}
    base_cycles = cycles[bandwidths[0]]
    return {bw: base_cycles / c for bw, c in cycles.items()}


def _fig15_sparsity_cell(sparsity: float, seed: int, scale: int) -> Dict[str, float]:
    """One Fig. 15(d) grid point: TB-STC vs SGCN at one sparsity."""
    layer = bert_layers()[2]
    tb_wl = build_workload(layer, PatternFamily.TBS, sparsity, seed=seed, scale=scale)
    us_wl = build_workload(layer, PatternFamily.US, sparsity, seed=seed, scale=scale)
    tb = simulate(tb_stc(), tb_wl)
    sg = simulate(arch_by_name("SGCN"), us_wl)
    return {
        "TB-STC_cycles": float(tb.cycles),
        "SGCN_cycles": float(sg.cycles),
        "tb_over_sgcn": sg.cycles / tb.cycles,
    }


def run_fig15_sparsity_sweep(
    sparsities: Sequence[float] = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95),
    seed: int = 0,
    scale: int = 4,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[float, Dict[str, float]]:
    """Fig. 15(d) -- TB-STC vs SGCN across sparsity degrees."""
    cells = [
        SweepCell(
            key=f"sparsity={sparsity}",
            fn=_fig15_sparsity_cell,
            kwargs={"sparsity": sparsity, "seed": seed, "scale": scale},
        )
        for sparsity in sparsities
    ]
    sweep = _sweep("fig15-sparsity", cells, workers, cache_dir, resume, options)
    return {sparsity: sweep.value(f"sparsity={sparsity}") for sparsity in sparsities}


# ---------------------------------------------------------------------------
# Ablations (Fig. 16)
# ---------------------------------------------------------------------------


def run_fig16_codec_ablation(
    sparsity: float = 0.75, seed: int = 0, scale: int = 4
) -> Dict[str, float]:
    """Fig. 16(a) -- the TBS model on architectures without the codec.

    All variants share the TB-STC fabric; only the storage/codec stack
    changes.  Returns cycles normalized to full TB-STC (higher = slower).
    """
    layer = resnet50_layers()[8]
    workload = build_workload(layer, PatternFamily.TBS, sparsity, seed=seed, scale=scale)
    variants = {
        "TB-STC (DDC+codec)": tb_stc(),
        "SDC no codec": tb_stc(storage_format="sdc", has_codec=False),
        "CSR no codec": tb_stc(storage_format="csr", has_codec=False),
        "Dense stream": tb_stc(storage_format="dense", has_codec=False),
    }
    results = {name: simulate(cfg, workload) for name, cfg in variants.items()}
    base = results["TB-STC (DDC+codec)"].cycles
    return {name: res.cycles / base for name, res in results.items()}


def run_fig16_scheduling_ablation(
    sparsity: float = 0.75, seed: int = 0, scale: int = 4
) -> Dict[str, Dict[str, float]]:
    """Fig. 16(b) -- scheduling strategies on the TB-STC fabric.

    Compares compute utilization (vs non-scheduled direct mapping) and
    normalized EDP of the DVPE+FAN variant.
    """
    layer = resnet50_layers()[8]
    workload = build_workload(layer, PatternFamily.TBS, sparsity, seed=seed, scale=scale)
    full = simulate(tb_stc(), workload)
    # The non-scheduled baseline keeps the PE datapath identical and only
    # drops the inter-block scheduler (lockstep direct mapping) and the
    # intra-block packing -- the two halves of the hierarchical strategy.
    unscheduled = simulate(
        tb_stc(inter_block_scheduling=False, intra_block_mapping=False), workload
    )
    fan = simulate(arch_by_name("DVPE+FAN"), workload)
    return {
        "utilization": {
            "scheduled": full.compute_utilization,
            "non_scheduled": unscheduled.compute_utilization,
            "gain": full.compute_utilization / max(1e-9, unscheduled.compute_utilization),
        },
        "fan_edp": {"normalized": fan.edp / full.edp},
    }


# ---------------------------------------------------------------------------
# Fig. 1 -- the accuracy-EDP Pareto frontier
# ---------------------------------------------------------------------------


def _fig1_edp_cell(arch: str, sparsity: float, seed: int, scale: int) -> float:
    """One Fig. 1 design point's EDP: the BERT layer pruned with the
    architecture's own pattern family, simulated on it."""
    workload = build_workload(bert_layers()[2], ARCH_FAMILY[arch], sparsity, seed=seed, scale=scale)
    return simulate(arch_by_name(arch), workload).edp


def run_fig1_pareto(
    seeds: Sequence[int] = (0, 1),
    sparsities: Sequence[float] = (0.5, 0.75),
    epochs: int = 8,
    scale: int = 4,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, List[ParetoPoint]]:
    """Fig. 1 -- accuracy (proxy encoder) vs EDP (simulator) per design.

    Each architecture is evaluated at each sparsity with its own pattern
    family; the dense TC anchors the right edge of the plot.  One EDP
    cell per design (simulated at the first seed) plus the training
    cells its accuracy averages over seeds.  Training keeps TS at the
    4:8 hardware ratio (``ts_cap=0.5``), so STC's 75% point reuses the
    TS model at 50%: the spec holds each shared model once.
    """
    designs = [("TC", "TC", 0.0)] + [
        (f"{arch}@{sparsity:.0%}", arch, sparsity)
        for arch in ("STC", "VEGETA", "HighLight", "RM-STC", "TB-STC")
        for sparsity in sparsities
    ]
    edp_cells: Dict[str, SweepCell] = {}
    trained: Dict[str, List[SweepCell]] = {}
    for label, arch, sparsity in designs:
        edp_cells[label] = SweepCell(
            key=f"edp/{label}",
            fn=_fig1_edp_cell,
            kwargs={"arch": arch, "sparsity": sparsity, "seed": seeds[0], "scale": scale},
        )
        family = "Dense" if arch == "TC" else ARCH_FAMILY[arch].name
        trained[label] = [
            _training("encoder", family, sparsity, seed, epochs, ts_cap=0.5) for seed in seeds
        ]
    unique = {cell.key: cell for cells in trained.values() for cell in cells}
    sweep = _sweep(
        "fig1", [*edp_cells.values(), *unique.values()], workers, cache_dir, resume, options
    )
    points = [
        ParetoPoint(sweep.value(edp_cells[label].key), _mean_accuracy(sweep, trained[label]), label)
        for label, _, _ in designs
    ]
    return {"points": points, "frontier": pareto_frontier(points)}


# ---------------------------------------------------------------------------
# Scenario diversity: stencil / MoE / 2:4-inference win-loss sweep
# ---------------------------------------------------------------------------


def _scenario_cell(family: str, pattern: str, scale: int, seed: int) -> Dict[str, Any]:
    """One scenario grid point: a whole workload family under one pattern
    regime, simulated on that regime's architecture AND encoded in every
    registered storage format with both consumption orientations traced.

    Ships the aggregated :class:`SimResult` as its versioned
    ``to_dict()`` payload plus plain per-format traffic floats -- pure
    function of the kwargs, picklable both ways.
    """
    from ..formats.base import ORIENTATIONS, EncodeSpec
    from ..formats.memory_model import traffic_report
    from ..formats.registry import available_formats, get_format

    bundle = build_scenario(family, pattern, seed=seed, scale=scale)
    config = arch_by_name(SCENARIO_ARCH[pattern])
    layer_results = [simulate(config, wl) for wl in bundle.layers]
    agg = aggregate(layer_results, bundle.repeats)

    fmt_wl = bundle.format_workload
    spec = EncodeSpec(mask=fmt_wl.mask, tbs=fmt_wl.tbs, block_size=fmt_wl.m)
    formats: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in available_formats():
        encoded = get_format(name).encode(fmt_wl.values, spec)
        per_orient: Dict[str, Dict[str, float]] = {}
        for orient in ORIENTATIONS:
            rep = traffic_report(encoded, m=fmt_wl.m, orientation=orient)
            per_orient[orient] = {
                "fetched_bytes": float(rep.fetched_bytes),
                "bandwidth_utilization": float(rep.bandwidth_utilization),
            }
        formats[name] = per_orient
    return {
        "sim": agg.to_dict(),
        "formats": formats,
        "mask_sparsity": float(fmt_wl.sparsity),
        "target_sparsity": float(bundle.target_sparsity),
    }


def _winner(patterns: Sequence[str], costs) -> str:
    """The regime with the strictly lowest cost, or ``"tie"`` on a draw."""
    best = min(costs[p] for p in patterns)
    leaders = [p for p in patterns if costs[p] == best]
    return leaders[0] if len(leaders) == 1 else "tie"


def run_scenarios(
    families: Optional[Sequence[str]] = None,
    patterns: Sequence[str] = SCENARIO_PATTERNS,
    seed: int = 0,
    scale: int = 8,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    options: Optional[SweepOptions] = None,
) -> Dict[str, Dict[str, Any]]:
    """The scenario-diversity win/loss sweep: which scenarios does TBS win?

    Every workload family (stencil / moe / inference24) runs under every
    pattern regime (TBS on TB-STC, 2:4 on STC, dense on TC); each cell
    also encodes the family's representative matrix in every registered
    storage format and traces both consumption orientations.  Returns
    per family::

        {"patterns": {regime: {cycles, edp, mask_sparsity, macs}},
         "speedup_vs_dense": {regime: x},
         "cycle_winner": regime,
         "formats": {fmt: {orientation: {regime: fetched_bytes...,
                                         "winner": regime}}}}

    ``winner`` marks the regime moving the fewest bytes for that
    (format, orientation); ``cycle_winner`` the fastest regime end to
    end; exact draws report ``"tie"``.  One sweep cell per (family,
    regime); aggregation folds in grid order, so the table is
    byte-identical at any worker count.
    """
    if families is None:
        families = SCENARIO_FAMILIES
    families = tuple(families)
    for family in families:
        if family not in SCENARIO_FAMILIES:
            raise ValueError(
                f"unknown workload family {family!r}; known: {', '.join(SCENARIO_FAMILIES)}"
            )
    patterns = tuple(patterns)
    for pattern in patterns:
        if pattern not in SCENARIO_PATTERNS:
            raise ValueError(
                f"unknown scenario pattern {pattern!r}; known: {', '.join(SCENARIO_PATTERNS)}"
            )
    cells = [
        SweepCell(
            key=f"{family}/{pattern}",
            fn=_scenario_cell,
            kwargs={"family": family, "pattern": pattern, "scale": scale, "seed": seed},
        )
        for family in families
        for pattern in patterns
    ]
    sweep = _sweep("scenarios", cells, workers, cache_dir, resume, options)
    out: Dict[str, Dict[str, Any]] = {}
    for family in families:
        cells_by_pattern = {p: sweep.value(f"{family}/{p}") for p in patterns}
        sims = {p: SimResult.from_dict(cell["sim"]) for p, cell in cells_by_pattern.items()}
        pattern_rows = {
            p: {
                "cycles": float(sims[p].cycles),
                "edp": float(sims[p].edp),
                "mask_sparsity": cells_by_pattern[p]["mask_sparsity"],
                "macs": float(sims[p].macs),
            }
            for p in patterns
        }
        entry: Dict[str, Any] = {
            "target_sparsity": cells_by_pattern[patterns[0]]["target_sparsity"],
            "patterns": pattern_rows,
            "cycle_winner": _winner(patterns, {p: sims[p].cycles for p in patterns}),
        }
        if "dense" in patterns:
            dense_cycles = sims["dense"].cycles
            entry["speedup_vs_dense"] = {p: dense_cycles / sims[p].cycles for p in patterns}
        formats: Dict[str, Dict[str, Dict[str, Any]]] = {}
        fmt_names = list(cells_by_pattern[patterns[0]]["formats"])
        for fmt in fmt_names:
            per_orient: Dict[str, Dict[str, Any]] = {}
            for orient in ("forward", "transposed"):
                row: Dict[str, Any] = {
                    p: cells_by_pattern[p]["formats"][fmt][orient]["fetched_bytes"]
                    for p in patterns
                }
                row["winner"] = _winner(patterns, row)
                per_orient[orient] = row
            formats[fmt] = per_orient
        entry["formats"] = formats
        out[family] = entry
    return out
