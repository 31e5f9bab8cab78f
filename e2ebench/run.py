"""End-to-end benchmark: host time of whole paper experiments.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fig13 --seed 0 --seconds 35 --trace 0

Workloads are ``fig13``, ``scenarios`` and ``table1`` (see
``e2ebench/layers.json`` for why each was chosen).  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced repetition.  A readable summary goes to standard error; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not harness.program_present():
        print(f"error: no program to measure at {harness.SRC / 'repro'}", file=sys.stderr)
        return 2

    cleared = harness.prepare_environment()
    if cleared:
        print(f"cleared {', '.join(cleared)} (each changes the measured program)", file=sys.stderr)
    harness.use_program()
    expected = harness.load_digests().get(args.workload, {}).get(str(args.seed))
    # Anything the program prints must not land after the result line.
    with contextlib.redirect_stdout(sys.stderr):
        result, summary = harness.measure(
            harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), expected
        )
    for line in summary:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
