"""Set-up probe: start, import the program, build the workload's grid, and
print ``ready`` as the first sweep cell is entered, then exit at once.

Usage: ``python3 e2ebench/probe.py <workload> <seed>``.  The parent times
it from process start to the ``ready`` line (``harness.measure_setup``).
"""

import os
import sys

import harness


def main() -> None:
    workload, seed = harness.WORKLOADS[sys.argv[1]], int(sys.argv[2])
    harness.use_program()
    from repro.analysis import experiments

    run_sweep = experiments.run_sweep

    def first_cell_ready(**kwargs):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)

    def probe_sweep(spec, *args, **kwargs):
        # The engine resolves "module:qualname" when the cell runs.
        module, _, name = spec.cells[0].fn.partition(":")
        setattr(sys.modules[module], name, first_cell_ready)
        return run_sweep(spec, *args, **kwargs)

    experiments.run_sweep = probe_sweep
    workload.run(seed)


if __name__ == "__main__":
    main()
