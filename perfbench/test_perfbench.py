"""Self-tests of the benchmark: layer-map coverage, BENCHMARK.json, gates, smoke.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
for path in (SRC, BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from clock import NormalizedClock, reference_loop  # noqa: E402

RUN_PY = os.path.join(BENCH_DIR, "run.py")


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN_PY, *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


def _modules_under_src():
    out = set()
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for f in files:
            if f.endswith(".py"):
                out.add(layers.module_of(os.path.join(dirpath, f), SRC))
    return out


def test_layer_map_covers_every_module():
    modules = _modules_under_src()
    unmapped = sorted(modules - set(layers.LAYER_MAP))
    stale = sorted(set(layers.LAYER_MAP) - modules)
    assert not unmapped, f"map these modules in perfbench/layers.py: {unmapped}"
    assert not stale, f"these mapped modules no longer exist: {stale}"
    assert set(layers.REPORTED_LAYERS) <= set(layers.LAYER_MAP.values())


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = bounds.pop("setup_s")
    assert all(setup > b for b in bounds.values())


@pytest.mark.parametrize("name", ["hot_stripe_fo", "scale_out_parix", "rebuild_tsue"])
def test_open_loop_driver_matches_run_scenario(name):
    from repro.workload.scenarios import run_scenario

    w = workloads.WORKLOADS[name]
    clients, requests = w.size("tiny")
    r = workloads.Run(w, 3, "tiny")
    r.simulate()
    r.check()
    got = r.sim_metrics()
    ref = run_scenario(w.scenario, seed=3, n_clients=clients,
                       requests_per_client=requests, method=w.method)
    assert (got["updates"], got["reads"]) == (ref.updates, ref.reads)
    assert r.horizon == ref.horizon
    assert got["sim_update_p50_us"] == ref.p50_latency * 1e6
    assert got["sim_update_p99_us"] == ref.p99_latency * 1e6
    assert got["lock_acquisitions"] == ref.lock_acquisitions
    assert got["lock_contended"] == ref.lock_contended


def test_closed_loop_driver_matches_run_experiment():
    from repro.harness.experiment import run_experiment

    r = workloads.Run(workloads.WORKLOADS["ali_tsue"], 3, "tiny")
    r.simulate()
    r.check()
    got = r.sim_metrics()
    ref = run_experiment(r.cfg)
    assert ref.consistent
    assert got["updates"] == ref.n_updates
    assert r.horizon == ref.horizon
    assert got["sim_update_p99_us"] == ref.p99_latency * 1e6
    assert got["net_bytes"] == ref.net_bytes
    assert got["erase_ops"] == ref.erase_ops
    assert got["tsue_peak_log_bytes"] == ref.peak_log_memory


@pytest.mark.parametrize("name,gate", [("ali_tsue", "shadow"),
                                       ("hot_stripe_fo", "consistency")])
def test_corrupted_parity_trips_a_gate(name, gate):
    r = workloads.Run(workloads.WORKLOADS[name], 1, "tiny")
    r.simulate()
    r.corrupt_parity()
    with pytest.raises(workloads.GateError) as info:
        r.check()
    assert info.value.gate == gate


def test_tripped_gate_fails_every_op_and_exits_nonzero():
    proc, last = _run("--workload", "hot_stripe_fo", "--seed", "1",
                      "--seconds", "0", "--trace", "0", "--size", "tiny",
                      "--tamper")
    assert proc.returncode == 1, proc.stderr
    out = json.loads(last)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] > 0
    assert "GATE FAILED (consistency)" in proc.stdout


def test_differing_reps_trip_the_determinism_gate():
    rep = {"seed": 1, "gate": None, "detail": "", "sim": {"events": 10}}
    other = {**rep, "sim": {"events": 11}}
    assert bench.first_failure([rep, dict(rep)]) is None
    gate, detail = bench.first_failure([rep, other])
    assert gate == "determinism" and "events" in detail


def test_attribution_conserves_profiled_time():
    prof = cProfile.Profile()
    prof.enable()
    r = workloads.Run(workloads.WORKLOADS["rebuild_tsue"], 1, "tiny")
    r.simulate()
    r.check()
    prof.disable()
    stats = pstats.Stats(prof)
    att = layers.Attribution(stats, SRC, BENCH_DIR)
    total = sum(entry[2] for entry in stats.stats.values())
    assert sum(att.self_s.values()) == pytest.approx(total, rel=1e-9)
    for layer in ("sim", "rpc", "fs", "recovery", "tsue", "logstruct", "ec"):
        assert att.self_s[layer] > 0, layer
    assert att.edges[("sim", "rpc")] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name):
    for trace, spec in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
        proc, last = _run("--workload", name, "--seed", "2", "--seconds", "0",
                          "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(last)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0
        assert set(out["metrics"]) == set(spec)
        for key, m in out["metrics"].items():
            assert m["unit"] == spec[key][0]
        if trace == 0:
            assert all(m["value"] > 0 for m in out["metrics"].values()), out


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ali_tsue",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_clock_excludes_its_reference_loops():
    clock = NormalizedClock()
    clock.start()
    try:
        t0 = time.thread_time()
        raw0, _ = clock.read()
        while time.thread_time() - t0 < 0.3:
            reference_loop()
        raw1, norm1 = clock.read()
    finally:
        clock.stop()
    elapsed = time.thread_time() - t0
    assert clock.samples >= 5
    # The sampled reference loops ran inside ``elapsed`` but are not counted.
    assert 0.5 * elapsed < raw1 - raw0 < elapsed
    assert norm1 > 0
