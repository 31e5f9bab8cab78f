"""Pin the output digests the benchmark checks every repetition against.

Usage (from the repository root)::

    python3 e2ebench/pin_digests.py --seeds 0-19 [--workloads fig13 table1]

Runs each workload once per seed and writes ``e2ebench/digests.json``
(entries for other seeds and workloads are kept).  Only a change that is
meant to alter experiment outputs re-pins; a performance change must
leave every digest as it is.
"""

import argparse
import json
import sys

import harness


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[0, 1])
    parser.add_argument("--workloads", nargs="+", choices=sorted(harness.WORKLOADS), default=sorted(harness.WORKLOADS))
    args = parser.parse_args(argv)
    harness.prepare_environment()
    harness.use_program()
    pinned = harness.load_digests()
    for name in args.workloads:
        for seed in args.seeds:
            rep = harness.run_rep(harness.WORKLOADS[name], seed, traced=False)
            if rep.problems or rep.failed:
                print(f"{name} seed {seed}: not pinned: {rep.problems}", file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = rep.digests
            print(f"{name} seed {seed}: {rep.digests}", file=sys.stderr)
            harness.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
