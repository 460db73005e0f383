"""One benchmark rep in a fresh process; prints one JSON line.

    python3 perfbench/rep.py --workload NAME --seed N [--size tiny] [--trace]

``run.py`` starts one of these per rep, one at a time, so every rep pays
interpreter start and imports the way a CLI run does and has its own peak
RSS.  A tripped correctness gate is reported in the JSON (``"gate"``), not
as an exit code; any other error exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from clock import NormalizedClock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tamper", action="store_true",
                    help="corrupt one parity byte after the drain so the "
                         "gates must trip (self-test only)")
    args = ap.parse_args(argv)
    # Started before the simulator's imports: setup_s counts them.  A
    # traced rep keeps raw CPU only: the reference loop would be profiled.
    clock = NormalizedClock()
    clock.start(sample=not args.trace)
    try:
        from workloads import WORKLOADS, run_rep

        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; known: "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        out = run_rep(args.workload, args.seed, args.size, args.trace,
                      args.tamper, clock)
    finally:
        clock.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
