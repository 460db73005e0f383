#!/usr/bin/env python
"""Events/sec floor check: fresh bench perf vs the committed baseline.

Wall-clock perf is machine-dependent by design (each cell's ``perf``
block is excluded from every determinism gate), but a *hard* engine
regression — an accidental O(n^2) in the kernel, a fast path silently
disabled — shows up as a collapse in ``events_per_sec`` that no host
difference explains.  This check compares the ``<scenario>/<method>``
cells that carry a ``perf`` block in both a fresh run and the committed
``BENCH_scenarios.json`` and fails if any fresh cell's events/sec drops
below ``(1 - tolerance)`` of the committed value.  The
default tolerance is deliberately generous (50%): CI runners differ from
the snapshot host, and rows may run concurrently under ``--jobs``; the
check is a tripwire for hard regressions, not a benchmark.

Usage:
    python benchmarks/check_perf_floor.py \
        --baseline BENCH_scenarios.json --fresh /tmp/BENCH_smoke.json \
        [--tolerance 0.5] [--rows steady/tsue hot_stripe/tsue]
"""

from __future__ import annotations

import argparse
import json
import sys


def _perf_blocks(path: str) -> dict:
    """``{cell: perf}`` for every cell of a bench JSON that carries perf."""
    with open(path) as fh:
        cells = json.load(fh).get("cells", {})
    return {key: row["perf"] for key, row in cells.items() if "perf" in row}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="committed bench JSON (the floor)")
    ap.add_argument("--fresh", required=True,
                    help="bench JSON from this run")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed fractional drop (default 0.5 = 50%%)")
    ap.add_argument("--rows", nargs="*", default=None,
                    metavar="SCENARIO/METHOD",
                    help="restrict the check to these cells "
                         "(default: every cell with perf in both files)")
    ap.add_argument("--metric", choices=["events_per_sec",
                                         "events_per_cpu_sec"],
                    default="events_per_sec",
                    help="throughput metric to floor-check; the CPU-time "
                         "variant is steadier on shared/1-core runners "
                         "where wall time includes preemption "
                         "(default: %(default)s)")
    args = ap.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        print(f"tolerance must be in [0, 1), got {args.tolerance}",
              file=sys.stderr)
        return 2

    try:
        baseline = _perf_blocks(args.baseline)
        fresh = _perf_blocks(args.fresh)
    except (OSError, ValueError) as exc:
        print(f"cannot load perf blocks: {exc}", file=sys.stderr)
        return 2

    shared = sorted(set(baseline) & set(fresh))
    if args.rows is not None:
        missing = [r for r in args.rows if r not in shared]
        if missing:
            print(f"requested cells missing from one side: {missing} "
                  f"(shared: {shared})", file=sys.stderr)
            return 2
        shared = args.rows
    if not shared:
        print("no perf cells shared between baseline and fresh run",
              file=sys.stderr)
        return 2

    metric = args.metric
    unit = "ev/s" if metric == "events_per_sec" else "ev/cpu-s"
    lacking = [r for r in shared
               if metric not in baseline[r] or metric not in fresh[r]]
    if lacking:
        # A baseline written before the metric existed cannot provide a
        # floor for it; failing loudly beats silently checking nothing.
        print(f"metric {metric!r} missing from cells {lacking}; regenerate "
              f"the baseline (repro bench --json) or use --metric "
              f"events_per_sec", file=sys.stderr)
        return 2

    failures = []
    for row in shared:
        floor = baseline[row][metric] * (1.0 - args.tolerance)
        got = fresh[row][metric]
        status = "ok" if got >= floor else "REGRESSED"
        print(f"{row:24s} {got:>12,.0f} {unit} (floor {floor:>12,.0f}, "
              f"committed {baseline[row][metric]:>12,.0f}) "
              f"{status}")
        if got < floor:
            failures.append(row)
    if failures:
        print(f"PERF FLOOR FAILED for {failures}: {metric} fell more "
              f"than {args.tolerance:.0%} below the committed baseline",
              file=sys.stderr)
        return 1
    print(f"perf floor ok over {len(shared)} cell(s) "
          f"(metric {metric}, tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
