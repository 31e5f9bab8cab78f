"""Architecture exploration with the cycle-level simulator.

Sweeps a BERT FFN layer across sparsity degrees and all baseline
architectures (the Fig. 12 experiment), then explores TB-STC design
knobs: off-chip bandwidth (Fig. 15(c)), the scheduling/codec ablations
(Fig. 16) and the Table III area/power budget.

Run:  python examples/hardware_exploration.py
"""

from repro.analysis import (
    compare_energy_breakdown,
    render_dict_table,
    render_table,
    ridge_intensity,
    roofline_point,
    run_table3,
)
from repro.core.patterns import PatternFamily
from repro.hw import tb_stc
from repro.sim import normalized_edp, simulate, simulate_layer_sweep, speedup
from repro.workloads import bert_layers, build_workload


def sweep_baselines() -> None:
    layer = bert_layers()[2]  # ffn_up: 3072 x 768
    print(f"=== Fig. 12 style sweep on {layer.name} "
          f"({layer.rows}x{layer.cols} @ K={layer.b_cols}) ===")
    table = {}
    for sparsity in (0.5, 0.75, 0.875):
        results = simulate_layer_sweep(layer, sparsity, scale=2)
        base = results["TC"]
        table[f"speedup@{sparsity:.0%}"] = {
            name: round(speedup(res, base), 2) for name, res in results.items()
        }
        table[f"norm.EDP@{sparsity:.0%}"] = {
            name: round(normalized_edp(res, base), 3) for name, res in results.items()
        }
    print(render_dict_table(table, key_header="metric"))


def sweep_bandwidth() -> None:
    print("\n=== Fig. 15(c): bandwidth sensitivity of TB-STC ===")
    layer = bert_layers()[2]
    workload = build_workload(layer, PatternFamily.TBS, 0.75, seed=0, scale=2)
    rows = []
    base = None
    for bw in (32, 64, 128, 256, 512):
        result = simulate(tb_stc(dram_bandwidth_gbs=float(bw)), workload)
        base = base or result
        rows.append([f"{bw} GB/s", result.cycles, f"{base.cycles / result.cycles:.2f}x"])
    print(render_table(["bandwidth", "cycles", "speedup vs 32 GB/s"], rows))


def ablations() -> None:
    print("\n=== Fig. 16 ablations on a TBS workload ===")
    layer = bert_layers()[2]
    workload = build_workload(layer, PatternFamily.TBS, 0.75, seed=0, scale=2)
    variants = {
        "full TB-STC": tb_stc(),
        "no inter-block scheduling": tb_stc(inter_block_scheduling=False),
        "no intra-block mapping": tb_stc(intra_block_mapping=False),
        "no codec (SDC storage)": tb_stc(storage_format="sdc", has_codec=False),
    }
    base = simulate(tb_stc(), workload)
    rows = []
    for name, cfg in variants.items():
        result = simulate(cfg, workload)
        rows.append([
            name,
            result.cycles,
            f"{result.cycles / base.cycles:.2f}x",
            f"{result.compute_utilization:.1%}",
        ])
    print(render_table(["variant", "cycles", "slowdown", "compute util"], rows))


def budget() -> None:
    print("\n=== Table III: area / power budget ===")
    res = run_table3()
    print(render_dict_table(
        {"area_mm2": res["area_mm2"], "power_mw": res["power_mw"]}, key_header="metric"
    ))
    print(f"A100-scale integration overhead: "
          f"{res['a100_overhead_percent']['value']:.2f}% of the die")


def roofline() -> None:
    print("\n=== Roofline: why Fig. 15(c) saturates ===")
    layer = bert_layers()[2]
    cfg = tb_stc()
    print(f"TB-STC ridge point: {ridge_intensity(cfg):.1f} MACs/byte at 64 GB/s")
    rows = []
    for sparsity in (0.5, 0.75, 0.875):
        workload = build_workload(layer, PatternFamily.TBS, sparsity, seed=0, scale=2)
        result = simulate(cfg, workload)
        point = roofline_point(workload, cfg, result)
        rows.append([
            f"{sparsity:.0%}",
            f"{point.intensity:.1f}",
            "memory" if point.memory_bound else "compute",
            f"{point.roofline_efficiency:.1%}",
        ])
    print(render_table(["sparsity", "MACs/byte", "bound by", "roofline efficiency"], rows))


def energy_stacks() -> None:
    print("\n=== Energy breakdown per architecture (Sparseloop view) ===")
    table = compare_energy_breakdown(bert_layers()[2], sparsity=0.75, scale=2)
    print(render_dict_table(table, key_header="arch"))


if __name__ == "__main__":
    sweep_baselines()
    sweep_bandwidth()
    ablations()
    roofline()
    energy_stacks()
    budget()
