"""End-to-end pipeline: train sparse, then run THAT model on TB-STC.

The complete paper workflow in one script: train proxies with different
sparsity patterns, lower each *trained* model's actual masks to GEMM
workloads, simulate them on the matching architecture, and place every
design on the accuracy-vs-EDP plane (your own Fig. 1 point cloud).

Run:  python examples/model_to_hardware.py
"""

from repro.analysis import render_table
from repro.analysis.pareto import ParetoPoint, pareto_frontier
from repro.core.patterns import PatternFamily
from repro.nn import cluster_dataset, make_mlp, train
from repro.sim import aggregate, simulate
from repro.sim.baselines import arch_by_name
from repro.workloads import workloads_from_model

#: (display name, pattern the model trains with, architecture that runs it)
DESIGNS = [
    ("TC (dense)", None, "TC"),
    ("STC", PatternFamily.TS, "STC"),
    ("VEGETA", PatternFamily.RS_V, "VEGETA"),
    ("RM-STC", PatternFamily.US, "RM-STC"),
    ("TB-STC", PatternFamily.TBS, "TB-STC"),
]

SPARSITY = 0.875
BATCH = 256


def main() -> None:
    data = cluster_dataset(n_samples=640, n_features=48, n_classes=8, seed=0, noise=1.4)
    rows = []
    points = []
    for name, family, arch_name in DESIGNS:
        model = make_mlp(48, 128, 8, depth=3, seed=100)
        result = train(model, data, family=family, sparsity=SPARSITY, epochs=12, seed=0)

        sim_family = family if family is not None else PatternFamily.US
        workloads = workloads_from_model(model, sim_family, batch=BATCH)
        config = arch_by_name(arch_name)
        sim = aggregate([simulate(config, wl) for wl in workloads])

        achieved = result.sparsity_history[-1] if family else 0.0
        rows.append([
            name,
            f"{achieved:.1%}",
            f"{result.test_accuracy:.3f}",
            sim.cycles,
            f"{sim.energy.total_j * 1e6:.2f}",
            f"{sim.edp:.3e}",
        ])
        points.append(ParetoPoint(cost=sim.edp, quality=result.test_accuracy, label=name))

    print(render_table(
        ["design", "sparsity", "accuracy", "cycles", "energy (uJ)", "EDP (J*s)"],
        rows,
        title=f"Trained models on their matching hardware (target {SPARSITY:.0%} sparsity)",
    ))
    frontier = pareto_frontier(points)
    print("\naccuracy-EDP Pareto frontier:", [p.label for p in frontier])


if __name__ == "__main__":
    main()
