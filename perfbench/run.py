"""Benchmark entry point: host cost and simulated update metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts one fresh, single-threaded ``rep.py`` process per rep, one after
another, until ``--seconds`` have passed (at least ``MIN_REPS``).  Host
metrics are the median over the untraced reps; simulated metrics are exact
per seed and must be identical in every rep, the traced one included.
``--trace 1`` adds one profiled rep and reports the per-layer metrics.

Prints a human-readable report, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Exit codes: 0 all gates
held; 1 a gate tripped (every op of the run counts as failed); 2 the
benchmark itself could not run (no result printed).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import REPORTED_LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

MIN_REPS = 2
# A run must finish well inside 180 s even when one rep is slow.
HARD_LIMIT_S = 150.0
MIB = 1 << 20

# name -> (unit, better).  BENCHMARK.json mirrors these (the self-test
# checks); bounds live only there.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "host_us_per_req": ("us", "lower"),
    "check_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_update_iops": ("ops/s", "higher"),
    "sim_update_p50_us": ("us", "lower"),
    "sim_update_p99_us": ("us", "lower"),
    "write_amp": ("ratio", "lower"),
    "erase_per_gib": ("erases/GiB", "lower"),
    "net_bytes_per_update": ("B", "lower"),
}

PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in REPORTED_LAYERS},
    "sim.events_per_req": ("count", "lower"),
    "lock.contended_frac": ("ratio", "lower"),
    "lock.wait_p99_us": ("us", "lower"),
    "rpc.calls_per_req": ("count", "lower"),
    "net.msgs_per_req": ("count", "lower"),
    "devices.ios_per_update": ("count", "lower"),
    "devices.rand_write_frac": ("ratio", "lower"),
    "devices.busy_frac": ("ratio", "lower"),
    "devices.overwrite_bytes_per_update": ("B", "lower"),
    "logstruct.seals_per_kupdate": ("count", "lower"),
    "tsue.peak_log_mb": ("MiB", "lower"),
    "ec.calls_per_update": ("count", "lower"),
    "cluster.placement_calls_per_req": ("count", "lower"),
    "fs.read_log_hit_frac": ("ratio", "higher"),
    "fs.update_retries": ("count", "lower"),
    "fs.degraded_reads": ("count", "lower"),
    "fs.read_p99_us": ("us", "lower"),
    "recovery.rebuild_sim_ms": ("ms", "lower"),
    "recovery.recovered_mb": ("MiB", "lower"),
    "workload.setup_self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result (not a correctness gate)."""


def run_rep(workload: str, seed: int, size: str, trace: bool, tamper: bool,
            timeout: float) -> dict:
    """One rep in a fresh process; returns its JSON report."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "rep.py"),
           "--workload", workload, "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    if tamper:
        cmd.append("--tamper")
    # One thread: numpy's BLAS pool would otherwise add CPU the clock misses.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    # Imports load cached bytecode, as an installed CLI does, whatever the
    # caller's environment says; only the first rep in a checkout compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"rep exceeded {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"rep exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def collect(args) -> "tuple[list, dict | None]":
    """Untraced reps for ``args.seconds`` (plus one traced rep)."""
    t0 = time.monotonic()

    def rep(trace: bool) -> dict:
        remaining = HARD_LIMIT_S - (time.monotonic() - t0)
        if remaining <= 0:
            raise BenchError("out of time before the minimum reps ran")
        return run_rep(args.workload, args.seed, args.size, trace,
                       args.tamper, remaining)

    traced = rep(True) if args.trace else None
    untraced = []
    while True:
        start = time.monotonic()
        untraced.append(rep(False))
        if untraced[-1]["gate"]:
            break
        now = time.monotonic()
        if len(untraced) >= MIN_REPS and now - t0 >= args.seconds:
            break
        if len(untraced) >= MIN_REPS and now + (now - start) - t0 > HARD_LIMIT_S:
            break
    return untraced, traced


def first_failure(reps: list) -> "tuple[str, str] | None":
    """(gate, detail) of the first tripped gate, including determinism."""
    for r in reps:
        if r["gate"]:
            return r["gate"], r["detail"]
    ref = reps[0]["sim"]
    for r in reps[1:]:
        if r["sim"] != ref:
            diff = sorted(k for k in ref if r["sim"].get(k) != ref[k])
            return "determinism", (
                f"simulated outputs differ between reps at seed "
                f"{r['seed']}: {diff}"
            )
    return None


def end_to_end(untraced: list) -> dict:
    sim = untraced[0]["sim"]
    host = {
        k: statistics.median(r["host"][k] for r in untraced)
        for k in ("setup_s", "host_us_per_req", "check_s", "peak_rss_mb")
    }
    values = {**host, **{k: sim[k] for k in (
        "sim_update_iops", "sim_update_p50_us", "sim_update_p99_us",
        "write_amp", "erase_per_gib", "net_bytes_per_update",
    )}}
    return {k: values[k] for k in END_TO_END}


def per_layer(untraced: list, traced: dict) -> dict:
    sim = traced["sim"]
    lay = traced["layers"]
    updates = sim["updates"]
    reqs = updates + sim["reads"]

    def frac(a, b):
        return a / b if b else 0.0

    values = {f"{layer}.self_s": lay["self_s"][layer] for layer in REPORTED_LAYERS}
    values.update({
        "sim.events_per_req": sim["events"] / reqs,
        "lock.contended_frac": frac(sim["lock_contended"], sim["lock_acquisitions"]),
        "lock.wait_p99_us": sim["lock_wait_p99_us"],
        "rpc.calls_per_req": lay["rpc_calls_in"] / reqs,
        "net.msgs_per_req": sim["net_msgs"] / reqs,
        "devices.ios_per_update": sim["dev_ios"] / updates,
        "devices.rand_write_frac": frac(sim["dev_rand_write_ops"], sim["dev_write_ops"]),
        "devices.busy_frac": lay["device_busy_frac"],
        "devices.overwrite_bytes_per_update": sim["dev_overwrite_bytes"] / updates,
        "logstruct.seals_per_kupdate": sim["log_seals"] / updates * 1000.0,
        "tsue.peak_log_mb": sim["tsue_peak_log_bytes"] / MIB,
        "ec.calls_per_update": lay["ec_calls_in"] / updates,
        "cluster.placement_calls_per_req": lay["placement_calls"] / reqs,
        "fs.read_log_hit_frac": frac(sim["osd_cache_hits"], sim["osd_reads_served"]),
        "fs.update_retries": sim["update_retries"],
        "fs.degraded_reads": sim["degraded_reads"],
        "fs.read_p99_us": sim["sim_read_p99_us"],
        "recovery.rebuild_sim_ms": sim["rebuild_sim_s"] * 1e3,
        "recovery.recovered_mb": sim["recovered_bytes"] / MIB,
        "workload.setup_self_s": lay["setup_self_s"].get("workload", 0.0),
        # Raw CPU on both sides: the traced rep does not sample the
        # reference speed (its loop would land in the profile).
        "trace.overhead_frac": traced["host_raw"]["host_us_per_req"]
        / statistics.median(r["host_raw"]["host_us_per_req"] for r in untraced)
        - 1.0,
    })
    return {k: values[k] for k in PER_LAYER}


def report(args, untraced, traced, e2e, layer_metrics) -> None:
    """The human-readable part of the output."""
    print(f"workload={args.workload} seed={args.seed} size={args.size} "
          f"untraced_reps={len(untraced)} traced={bool(traced)}")
    print("end-to-end (host: median of reps, normalized CPU [raw CPU]; "
          "sim: exact per seed)")
    for name, value in e2e.items():
        unit, better = END_TO_END[name]
        raw = ""
        if name in untraced[0]["host_raw"]:
            raw = statistics.median(r["host_raw"][name] for r in untraced)
            raw = f"[{raw:.6g}]"
        print(f"  {name:<24} {value:>16.6g} {unit:<11} {raw:<12} ({better} is better)")
    print(f"  {'failed_frac':<24} {0.0:>16.6g} {'ratio':<11} {'':<12} (lower is better)")
    sim = untraced[0]["sim"]
    print(f"  requests: {sim['updates']} updates + {sim['reads']} reads "
          f"of {sim['issued']} issued; sim_read_p99_us "
          f"{sim['sim_read_p99_us']:.6g}")
    if traced is None:
        return
    lay = traced["layers"]
    total = sum(lay["self_s"].values()) + sum(lay["other_self_s"].values())
    print("per-layer self time (profiled s, share of profiled total)")
    for layer, secs in sorted({**lay["self_s"], **lay["other_self_s"]}.items(),
                              key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {secs:>9.4f} {100 * secs / total:6.1f}%")
    print("top layer edges of the simulation phase (caller -> callee: calls)")
    for a, b, n in lay["sim_edges"][:12]:
        print(f"  {a:>12} -> {b:<12} {n:>12.0f}")
    print("per-layer metrics")
    for name, value in layer_metrics.items():
        unit, _ = PER_LAYER[name]
        print(f"  {name:<36} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the self-test size")
    ap.add_argument("--tamper", action="store_true",
                    help="corrupt one parity byte after the drain so the "
                         "gates must trip (self-test only)")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    try:
        untraced, traced = collect(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    reps = untraced + ([traced] if traced else [])
    attempted = sum(r["issued"] for r in reps)
    failure = first_failure(reps)
    if failure:
        gate, detail = failure
        print(f"GATE FAILED ({gate}): {detail}")
        print(f"  failed_frac 1 ({attempted} of {attempted} ops)")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    e2e = end_to_end(untraced)
    layer_metrics = per_layer(untraced, traced) if traced else None
    report(args, untraced, traced, e2e, layer_metrics)
    chosen, spec = (layer_metrics, PER_LAYER) if traced else (e2e, END_TO_END)
    metrics = {k: {"value": v, "unit": spec[k][0]} for k, v in chosen.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
