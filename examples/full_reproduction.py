"""Run the complete paper reproduction: every table and figure.

The same as ``python -m repro report all``, at its default sizes (one
seed, 8 epochs, scale 4); ``--full`` runs the benchmark-grade
configuration (three seeds, 12 epochs, scale 2; several minutes).

Run:  python examples/full_reproduction.py [--full]
"""

import sys

from repro.cli import main

FULL = ["--seeds", "3", "--epochs", "12", "--scale", "2"]

if __name__ == "__main__":
    sys.exit(main(["report", "all", *(FULL if "--full" in sys.argv[1:] else [])]))
