"""Command-line runner: ``python -m repro <subcommand>``.

Subcommands map one-to-one onto the paper's artifacts plus a free-form
experiment cell:

* ``run``    — one experiment cell (method x trace x geometry x clients);
* ``fig5``   — one throughput panel;
* ``fig6a`` / ``fig6b`` — recycle-overhead series / memory sweep;
* ``fig7``   — the O1..O5 breakdown;
* ``fig8a`` / ``fig8b`` — HDD throughput / recovery bandwidth;
* ``table1`` / ``table2`` — workload counters / residency;
* ``lifespan`` — flash wear comparison;
* ``scenario`` — one named open-loop workload scenario (including the
  failure axis — ``degraded_read``, ``rebuild_under_load``,
  ``double_fault`` — and the live-change axis — ``fail_slow``,
  ``congested_fabric``, ``rolling_restart``, ``scale_out_live``,
  ``scale_in_live``);
* ``bench`` — a table of ``<scenario>/<method>`` cells: by default the
  scenario registry on tsue plus every method on the contention scenario
  (stripe-lock serialization cost), one failure scenario (Fig. 8b-style
  recovery rows), both scale tiers and the live-change scenarios
  (straggler/migration rows), with an optional JSON baseline.
"""

from __future__ import annotations

import argparse
import os
import sys


def _add_scale(p: argparse.ArgumentParser, clients: int, updates: int) -> None:
    p.add_argument("--clients", type=int, default=clients)
    p.add_argument("--updates", type=int, default=updates)
    p.add_argument("--seed", type=int, default=7)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="one experiment cell")
    run.add_argument("--method", default="tsue",
                     choices=["fo", "fl", "pl", "plr", "parix", "cord", "tsue"])
    run.add_argument("--trace", default="ten",
                     help='"ali", "ten" or "msr:<volume>"')
    run.add_argument("--k", type=int, default=6)
    run.add_argument("--m", type=int, default=2)
    run.add_argument("--device", default="ssd", choices=["ssd", "hdd"])
    run.add_argument("--no-verify", action="store_true")
    _add_scale(run, 16, 100)

    f5 = sub.add_parser("fig5", help="one Fig.5 throughput panel")
    f5.add_argument("--trace", default="ten", choices=["ali", "ten"])
    f5.add_argument("--k", type=int, default=6)
    f5.add_argument("--m", type=int, default=2)
    f5.add_argument("--client-sweep", type=int, nargs="+", default=[4, 16, 64])
    f5.add_argument("--updates", type=int, default=100)
    f5.add_argument("--seed", type=int, default=7)

    sub.add_parser("fig6a", help="recycle overhead over time")
    sub.add_parser("fig6b", help="throughput/memory vs unit quota")

    f7 = sub.add_parser("fig7", help="O1..O5 breakdown")
    f7.add_argument("--trace", default="ten", choices=["ali", "ten"])
    f7.add_argument("--m", type=int, default=4)

    sub.add_parser("fig8a", help="HDD update throughput (MSR volumes)")
    sub.add_parser("fig8b", help="HDD recovery bandwidth")
    sub.add_parser("table1", help="storage workload & network traffic")
    sub.add_parser("table2", help="residency per log layer")
    sub.add_parser("lifespan", help="flash wear comparison")

    li = sub.add_parser(
        "lint",
        help="static analysis: engine-invariant rules over the sources",
    )
    li.add_argument("paths", nargs="*", default=["src"],
                    help="files/directories to analyze (default: src)")
    li.add_argument("--format", choices=["text", "json", "github"],
                    default="text",
                    help="report format (default: text; github emits "
                         "::error annotations for Actions)")
    li.add_argument("--strict", action="store_true",
                    help="exit 1 on ANY unsuppressed finding, unused "
                         "suppression, or suppression without a reason "
                         "(the CI gate)")
    li.add_argument("--rules", nargs="+", default=None, metavar="RULE",
                    help="restrict the run to these rule ids")
    li.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    li.add_argument("--show-suppressed", action="store_true",
                    help="include suppressed findings (and their reasons) "
                         "in the text report")
    li.add_argument("--ipd", dest="ipd", action="store_true", default=True,
                    help="run the whole-program (ipd/rpc) families "
                         "(default: on)")
    li.add_argument("--no-ipd", dest="ipd", action="store_false",
                    help="per-file rules only (PR 6 behavior: no call "
                         "graph, no summaries, no cache)")
    li.add_argument("--cache", default=None, metavar="PATH",
                    help="summary-cache file (default: .repro-lint-cache "
                         "next to the first analyzed path)")
    li.add_argument("--no-cache", action="store_true",
                    help="cold run: neither read nor write the summary "
                         "cache")
    li.add_argument("--graph-dump", nargs="?", const="repro-lint-graph.json",
                    default=None, metavar="PATH",
                    help="write the resolved call graph + solved summaries "
                         "as JSON (default PATH: repro-lint-graph.json)")
    li.add_argument("--changed", action="store_true",
                    help="report only findings in git-changed files plus "
                         "their reverse summary dependents (analysis still "
                         "covers the whole tree; --strict CI runs "
                         "unscoped)")

    sc = sub.add_parser("scenario", help="one named open-loop workload scenario")
    sc.add_argument("name", help='scenario name, or "list" to enumerate')
    sc.add_argument("--method", default="tsue",
                    choices=["fo", "fl", "pl", "plr", "parix", "cord", "tsue"])
    sc.add_argument("--device", default="ssd", choices=["ssd", "hdd"])
    sc.add_argument("--clients", type=int, default=None,
                    help="override the scenario's native client count "
                         "(default: scenario-defined, 4 for smoke rows)")
    sc.add_argument("--requests", type=int, default=None,
                    help="override requests per client (default: scenario-"
                         "defined, 200 for smoke rows)")
    sc.add_argument("--seed", type=int, default=7)

    be = sub.add_parser("bench", help="scenario x method cell table; "
                                      "smoke perf baseline")
    be.add_argument("--clients", type=int, default=None,
                    help="override every scenario's client count (default: "
                         "native sizes — 4 for smoke rows, 32 for scale_up)")
    be.add_argument("--requests", type=int, default=None,
                    help="override requests per client (default: native "
                         "sizes — 200 for smoke rows, 2000 for scale_up)")
    be.add_argument("--seed", type=int, default=7)
    be.add_argument("--cells", nargs="+", default=None,
                    metavar="SCENARIO/METHOD",
                    help="cells to run; METHOD * means every method "
                         "(default: every scenario on tsue, plus every "
                         "method on hot_stripe, rebuild_under_load, "
                         "scale_up, scale_out and the live-change "
                         "scenarios)")
    be.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                    help="fan cells out over N worker processes, a fresh "
                         "one per cell so each peak_rss_kb is its own "
                         "(rows are merged deterministically, so output is "
                         "identical to --jobs 1, the in-process reference "
                         "path, which reports cumulative RSS); above the "
                         "CPUs this process may use no perf blocks are "
                         "written")
    be.add_argument("--json", nargs="?", const="BENCH_scenarios.json",
                    default=None, metavar="PATH",
                    help="also write a JSON baseline (default PATH: "
                         "BENCH_scenarios.json; written atomically via "
                         "temp file + rename)")
    be.add_argument("--profile", nargs="?",
                    const="benchmarks/results/bench_profile.txt",
                    default=None, metavar="PATH",
                    help="run under cProfile and write a cumulative-time "
                         "report to PATH")
    be.add_argument("--check-baseline", nargs="?",
                    const="BENCH_scenarios.json", default=None,
                    metavar="PATH",
                    help="after the run, diff every cell's simulated "
                         "output (each cell's machine-dependent perf block "
                         "is ignored) against an existing baseline, "
                         "reporting the first differing JSON leaves; exit "
                         "3 on drift")
    return ap


def _git_changed_files():
    """Absolute paths of files changed vs HEAD (staged, unstaged, new).

    Returns None when not in a git checkout — ``lint --changed`` is a
    pre-commit convenience and refuses to guess.
    """
    import subprocess

    def run(*argv: str) -> str:
        return subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True,
        ).stdout

    try:
        top = run("rev-parse", "--show-toplevel").strip()
        listed = run("diff", "--name-only", "HEAD") + \
            run("ls-files", "--others", "--exclude-standard")
    except (OSError, subprocess.CalledProcessError):
        return None
    return {
        os.path.join(top, line.strip())
        for line in listed.splitlines() if line.strip()
    }


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), not the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _leaf_diffs(path: str, a, b, out: list) -> None:
    """Append ``path: old -> new`` lines for every differing JSON *leaf*.

    Recurses through nested dicts so a changed leaf inside, say, a row's
    ``recovery`` sub-table reports the exact dotted path
    (``rebuild_under_load/tsue.recovery.drain_s: 0.1 -> 0.2``) instead of
    dumping both whole row dicts.  Keys only one side has are leaves too
    (reported with the sentinel ``<absent>``); mismatched shapes (dict vs
    scalar) bottom out at the current path.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                _leaf_diffs(sub, "<absent>", b[key], out)
            elif key not in b:
                _leaf_diffs(sub, a[key], "<absent>", out)
            else:
                _leaf_diffs(sub, a[key], b[key], out)
        return
    if a != b:
        old = a if isinstance(a, str) and a == "<absent>" else repr(a)
        new = b if isinstance(b, str) and b == "<absent>" else repr(b)
        out.append(f"{path}: {old} -> {new}")


def _baseline_drift(baseline: dict, payload: dict) -> list:
    """Leaf cells that changed vs an existing baseline (the determinism gate).

    Compares every cell present in both the baseline and this run,
    recursing to the first differing JSON leaf so a drifted run reports
    exact dotted paths and old/new values, not wholesale row dumps.  Each
    cell's machine-dependent ``perf`` block is ignored, and cells only
    this run has (e.g. a freshly added scenario) are additions, not drift.
    A baseline cell this run did not produce is drift too: a silent loss
    of coverage must not read as clean, so check against the full default
    cell set the baseline was made from.  ``baseline`` is the decoded JSON,
    loaded by the caller *before* any ``--json`` write, so checking
    against the same path that is being regenerated still compares old vs
    new.
    """
    old = baseline["cells"]
    new = payload["cells"]
    drift = [
        f"{cell}: present in baseline, missing from this run"
        for cell in sorted(set(old) - set(new))
    ]
    for cell in sorted(set(old) & set(new)):
        _leaf_diffs(
            cell,
            {k: v for k, v in old[cell].items() if k != "perf"},
            {k: v for k, v in new[cell].items() if k != "perf"},
            drift,
        )
    return drift


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.cmd == "lint":
        # Self-contained: the analysis package must not drag the engine
        # (numpy, harness) into a lint run.
        from repro.analysis import (
            analyze_paths,
            render_github,
            render_json,
            render_text,
            rules_by_id,
        )
        from repro.analysis.core import ProjectRule

        try:
            selected = list(rules_by_id(args.rules).values())
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        rules = [r for r in selected if not isinstance(r, ProjectRule)]
        prules = [r for r in selected if isinstance(r, ProjectRule)]
        if not args.ipd:
            prules = []
        if args.list_rules:
            for rule in rules + prules:
                print(f"{rule.id:26s} [{rule.family}] {rule.description}")
            return 0
        missing = [p for p in args.paths if not os.path.exists(p)]
        if missing:
            print(f"no such path(s): {missing}", file=sys.stderr)
            return 2

        changed = None
        if args.changed:
            changed = _git_changed_files()
            if changed is None:
                print("--changed needs a git checkout (git diff failed)",
                      file=sys.stderr)
                return 2

        if prules or args.graph_dump:
            from repro.analysis.cache import DEFAULT_CACHE_NAME
            from repro.analysis.graph import graph_dump
            from repro.analysis.project import analyze_project

            cache_path = None
            if not args.no_cache:
                cache_path = args.cache
                if cache_path is None:
                    root = args.paths[0]
                    base = root if os.path.isdir(root) \
                        else os.path.dirname(root) or "."
                    cache_path = os.path.join(
                        os.path.dirname(os.path.abspath(base)) or ".",
                        DEFAULT_CACHE_NAME,
                    )
            result = analyze_project(
                args.paths, rules, prules,
                cache_path=cache_path, changed=changed,
            )
            findings = result.findings
            if args.graph_dump:
                import json as _json

                with open(args.graph_dump, "w", encoding="utf-8") as fh:
                    _json.dump(graph_dump(result.project), fh, indent=2,
                               sort_keys=True)
                    fh.write("\n")
                print(f"wrote {args.graph_dump}", file=sys.stderr)
        else:
            findings = analyze_paths(args.paths, rules)
            if changed is not None:
                real = {os.path.realpath(c) for c in changed}
                findings = [f for f in findings
                            if os.path.realpath(f.path) in real]
        if args.format == "json":
            print(render_json(findings))
        elif args.format == "github":
            print(render_github(findings))
        else:
            print(render_text(findings, show_suppressed=args.show_suppressed))
        from repro.analysis.core import (
            SUPPRESSION_MISSING_REASON,
            SUPPRESSION_SYNTAX,
            UNUSED_SUPPRESSION,
        )

        active = [f for f in findings if not f.suppressed]
        if args.strict:
            # Strict is the CI gate: suppression-audit findings (unused
            # allows, allows without a reason, malformed allows) fail too.
            return 1 if active else 0
        # Non-strict: suppression-audit findings print but do not set the
        # exit code.  A parse error is NOT audit noise — the file was not
        # analyzed at all, so it fails in both modes.
        audit = (SUPPRESSION_MISSING_REASON, UNUSED_SUPPRESSION,
                 SUPPRESSION_SYNTAX)
        return 1 if [f for f in active if f.rule not in audit] else 0

    # Imports deferred so `--help` stays instant.
    from repro import harness

    if args.cmd == "run":
        cfg = harness.ExperimentConfig(
            method=args.method,
            trace=args.trace,
            k=args.k,
            m=args.m,
            device_kind=args.device,
            n_clients=args.clients,
            updates_per_client=args.updates,
            seed=args.seed,
            verify=not args.no_verify,
        )
        res = harness.run_experiment(cfg)
        print(f"method={args.method} trace={args.trace} RS({args.k},{args.m}) "
              f"{args.clients} clients")
        print(f"  aggregate IOPS : {res.agg_iops:,.0f}")
        print(f"  mean latency   : {res.mean_latency * 1e6:,.1f} us "
              f"(p99 {res.p99_latency * 1e6:,.1f} us)")
        print(f"  device ops     : {res.rw_ops:,} "
              f"({res.overwrite_ops:,} overwrites)")
        print(f"  network        : {res.net_bytes / 1e6:,.1f} MB")
        print(f"  erase ops      : {res.erase_ops:,.1f}")
        if res.consistent is not None:
            print(f"  verified       : {res.consistent}")
            return 0 if res.consistent else 1
        return 0

    if args.cmd == "scenario":
        from repro.workload import (
            SCENARIOS,
            InconsistentDrainError,
            PostRecoveryScrubError,
            run_scenario,
        )

        if args.name == "list":
            for name in sorted(SCENARIOS):
                print(f"{name:12s} {SCENARIOS[name].description}")
            return 0
        if args.name not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            print(f"unknown scenario {args.name!r}; known: {known} "
                  f"(or \"list\")", file=sys.stderr)
            return 2
        try:
            res = run_scenario(
                args.name,
                seed=args.seed,
                n_clients=args.clients,
                requests_per_client=args.requests,
                method=args.method,
                device=args.device,
            )
        except (InconsistentDrainError, PostRecoveryScrubError) as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print(res.render())
        return 0

    if args.cmd == "bench":
        import json

        from repro.workload import (
            InconsistentDrainError,
            PostRecoveryScrubError,
            bench_cells,
            cells_to_json,
            run_bench_cells,
        )

        # Validate the selection before simulating anything: a typo must
        # not cost minutes of cell runs and end in a raw traceback.
        try:
            cells = bench_cells(args.cells)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.jobs < 1:
            print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
            return 2
        if args.profile and args.jobs > 1:
            print("--profile needs --jobs 1 (cells run in worker processes "
                  "the parent profiler cannot see)", file=sys.stderr)
            return 2
        # Oversubscribed workers time each other's preemption, not the
        # engine: such numbers must never become a committed perf floor.
        n_cpus = _usable_cpus()
        keep_perf = args.jobs <= n_cpus
        if not keep_perf:
            print(f"--jobs {args.jobs} exceeds the {n_cpus} CPU(s) this "
                  "process may use: writing cells without perf blocks",
                  file=sys.stderr)

        # Load the baseline BEFORE simulating (fail fast on a bad path) and
        # before any --json write — `bench --json --check-baseline` with
        # both at the default path must diff old vs new, not new vs itself.
        baseline = None
        if args.check_baseline:
            try:
                with open(args.check_baseline) as fh:
                    baseline = json.load(fh)
            except (OSError, ValueError) as exc:
                print(f"cannot load baseline {args.check_baseline}: {exc}",
                      file=sys.stderr)
                return 2
            if baseline.get("bench") != "cells":
                print(f"baseline {args.check_baseline} is not a cells "
                      "table (regenerate it with repro bench --json)",
                      file=sys.stderr)
                return 2

        profiler = None
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()

        try:
            results = run_bench_cells(
                cells,
                jobs=args.jobs,
                seed=args.seed,
                n_clients=args.clients,
                requests_per_client=args.requests,
            )
        except (InconsistentDrainError, PostRecoveryScrubError) as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1

        if profiler is not None:
            import io
            import pstats

            profiler.disable()
            buf = io.StringIO()
            stats = pstats.Stats(profiler, stream=buf)
            stats.sort_stats("cumulative").print_stats(60)
            stats.sort_stats("tottime").print_stats(60)
            with open(args.profile, "w") as fh:
                fh.write(buf.getvalue())
            print(f"wrote {args.profile}")

        for res in results.values():
            print(res.render())
        payload = cells_to_json(results, perf=keep_perf)
        if args.json:
            import tempfile

            # Atomic write (temp file + rename in the destination
            # directory): a crashed or interrupted run can truncate a
            # plain open(..., "w"), silently destroying the committed
            # baseline the determinism gates diff against.
            dest = os.path.abspath(args.json)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(dest),
                prefix=os.path.basename(dest) + ".",
                suffix=".tmp",
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp, dest)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            print(f"wrote {args.json}")
        if baseline is not None:
            drift = _baseline_drift(baseline, payload)
            if drift:
                print(f"BASELINE DRIFT ({len(drift)} leaf cell(s) changed):",
                      file=sys.stderr)
                for line in drift[:40]:
                    print(f"  {line}", file=sys.stderr)
                if len(drift) > 40:
                    print(f"  ... and {len(drift) - 40} more", file=sys.stderr)
                return 3
            print(f"baseline check ok against {args.check_baseline}")
        return 0

    if args.cmd == "fig5":
        panel = harness.run_panel(
            args.k, args.m, args.trace, clients=tuple(args.client_sweep),
            updates_per_client=args.updates, seed=args.seed,
        )
        print(panel.render())
    elif args.cmd == "fig6a":
        print(harness.run_fig6a().render())
    elif args.cmd == "fig6b":
        print(harness.run_fig6b().render())
    elif args.cmd == "fig7":
        print(harness.run_fig7(trace=args.trace, m=args.m).render())
    elif args.cmd == "fig8a":
        print(harness.run_fig8a().render())
    elif args.cmd == "fig8b":
        print(harness.run_fig8b().render())
    elif args.cmd == "table1":
        print(harness.run_table1().render())
    elif args.cmd == "table2":
        print(harness.run_table2().render())
    elif args.cmd == "lifespan":
        print(harness.run_lifespan().render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
