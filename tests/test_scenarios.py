"""End-to-end tests for the named scenario registry and its CLI."""

import json

import pytest

from repro.workload import (
    METHODS,
    SCENARIOS,
    Scenario,
    PoissonArrivals,
    bench_cells,
    cells_to_json,
    register_scenario,
    run_bench_cells,
    run_scenario,
)
from repro.workload.scenarios import BENCH_SWEEPS

SMOKE = dict(n_clients=2, requests_per_client=40)


def test_required_scenarios_registered():
    assert {"steady", "burst", "diurnal", "mixed_rw", "hot_stripe"} <= set(SCENARIOS)


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        register_scenario(Scenario(
            name="steady", description="dup",
            make_arrivals=lambda: PoissonArrivals(1.0),
        ))


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope", **SMOKE)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_runs_end_to_end(name):
    res = run_scenario(name, **SMOKE)
    assert res.updates > 0
    assert res.horizon > 0 and res.iops > 0
    assert res.consistent
    # Open-loop pipelining genuinely overlaps requests in every scenario.
    assert res.peak_inflight > 1
    assert 0 < res.p50_latency <= res.p95_latency <= res.p99_latency
    # Default method is tsue, which never takes stripe locks.
    assert res.method == "tsue"
    assert res.lock_acquisitions == 0 and res.lock_contended == 0
    if SCENARIOS[name].read_fraction > 0:
        assert res.reads > 0
    else:
        assert res.reads == 0
    assert res.updates + res.reads == SMOKE["n_clients"] * SMOKE["requests_per_client"]


@pytest.mark.parametrize("method", METHODS)
def test_every_method_drains_consistent_under_pipelining(method):
    """The PR-2 acceptance bar: iodepth >= 8 pipelining (16 on hot_stripe)
    leaves every method parity-consistent — run_scenario would raise
    InconsistentDrainError otherwise."""
    for name in ("steady", "hot_stripe"):
        res = run_scenario(name, method=method, **SMOKE)
        assert res.consistent
        assert SCENARIOS[name].iodepth >= 8
        if method in ("fl", "tsue"):
            assert res.lock_acquisitions == 0
        else:
            # One lock grant per OSD-level extent update; a client update
            # spanning several blocks takes several locks.
            assert res.lock_acquisitions >= res.updates
            assert res.lock_wait_mean >= 0.0


def test_hot_stripe_contends_for_in_place_methods():
    res = run_scenario("hot_stripe", method="fo", **SMOKE)
    assert res.lock_contended > 0
    assert res.lock_wait_p99 > 0.0
    assert res.lock_wait_p99 >= res.lock_wait_mean


def test_scenarios_deterministic_for_fixed_seed():
    a = run_scenario("burst", seed=11, **SMOKE)
    b = run_scenario("burst", seed=11, **SMOKE)
    assert a.to_dict() == b.to_dict()
    c = run_scenario("burst", seed=12, **SMOKE)
    assert c.to_dict() != a.to_dict()


def test_run_bench_cells_and_json_payload():
    results = run_bench_cells(
        bench_cells(["steady/tsue", "mixed_rw/tsue"]), **SMOKE
    )
    payload = cells_to_json(results)
    assert payload["bench"] == "cells"
    assert set(payload) == {"bench", "cells"}
    assert set(payload["cells"]) == {"steady/tsue", "mixed_rw/tsue"}
    doc = json.dumps(payload)  # must be JSON-serialisable
    assert "p99_latency_us" in doc
    assert "lock_wait_p99_us" in doc


def test_bench_cells_rejects_empty_explicit_selection():
    with pytest.raises(ValueError, match="empty cell selection"):
        bench_cells([])


def test_method_sweep_rows_and_json_section():
    results = run_bench_cells(
        bench_cells(["hot_stripe/fo", "hot_stripe/tsue"]), **SMOKE
    )
    rows = list(results.values())
    assert [r.method for r in rows] == ["fo", "tsue"]
    assert all(r.name == "hot_stripe" and r.consistent for r in rows)
    cells = cells_to_json(results)["cells"]
    assert set(cells) == {"hot_stripe/fo", "hot_stripe/tsue"}
    assert cells["hot_stripe/fo"]["lock_acquisitions"] > 0
    assert cells["hot_stripe/tsue"]["lock_acquisitions"] == 0
    # Each cell carries its own perf block; perf=False drops them all.
    assert cells["hot_stripe/fo"]["perf"]["wall_s"] > 0
    bare = cells_to_json(results, perf=False)["cells"]
    assert bare["hot_stripe/fo"] == {
        k: v for k, v in cells["hot_stripe/fo"].items() if k != "perf"
    }


def test_methods_tuple_covers_the_strategy_registry():
    from repro.update import STRATEGIES

    assert set(METHODS) == set(STRATEGIES)
    assert len(METHODS) == len(STRATEGIES)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_scenario_runs_each_name(capsys):
    from repro.cli import main

    for name in ("steady", "burst", "diurnal", "mixed_rw"):
        rc = main(["scenario", name, "--clients", "2", "--requests", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"scenario={name}" in out
        assert "p99" in out and "consistent : True" in out


def test_cli_scenario_list(capsys):
    from repro.cli import main

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_bench_writes_json_baseline(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "BENCH_scenarios.json"
    # Every registered scenario on tsue, plus fo (stripe-locked RMW) and
    # tsue on every swept scenario: rc == 0 means all of them drained
    # consistently and passed their post-recovery scrub.
    registry = [f"{name}/tsue" for name in sorted(SCENARIOS)]
    swept = [f"{s}/{m}" for s in BENCH_SWEEPS for m in ("fo", "tsue")]
    rc = main(["bench", "--clients", "2", "--requests", "30",
               "--cells", *registry, *swept, "--json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario=hot_stripe method=fo" in out
    cells = json.loads(path.read_text())["cells"]
    assert set(cells) == set(registry) | set(swept)
    for key in registry:
        entry = cells[key]
        assert entry["consistent"] is True
        assert entry["iops"] > 0
        assert entry["lock_wait_mean_us"] >= 0.0
    for name in BENCH_SWEEPS:
        assert {k for k in cells if k.startswith(f"{name}/")} == {
            f"{name}/fo", f"{name}/tsue"}


def test_cli_bench_scale_out_rows(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bench.json"
    rc = main(["bench", "--clients", "2", "--requests", "10",
               "--cells", "steady/tsue", "scale_out/tsue", "scale_out/fl",
               "--json", str(path)])
    assert rc == 0
    cells = json.loads(path.read_text())["cells"]
    for key in ("scale_out/tsue", "scale_out/fl"):
        assert cells[key]["ghost_dataplane"] is True
        assert cells[key]["consistent"] is True
    assert cells["scale_out/tsue"]["perf"]["ghost_dataplane"] == 1.0
    # Byte-plane rows stay plane-free: no ghost key anywhere in them.
    assert "ghost_dataplane" not in cells["steady/tsue"]


def test_baseline_drift_reports_leaf_paths():
    from repro.cli import _baseline_drift

    base = {"bench": "cells", "cells": {
        "steady/tsue": {"iops": 1.0, "recovery": {"drain_s": 0.1},
                        "gone": 4, "perf": {"wall_s": 1.0}},
        "rebuild_under_load/tsue": {"p99": 5.0},
        "scale_out/fl": {"updates": 10},
    }}
    new = {"bench": "cells", "cells": {
        "steady/tsue": {"iops": 2.0, "recovery": {"drain_s": 0.1},
                        "fresh": 9, "perf": {"wall_s": 9.0}},
        "burst/tsue": {"iops": 3.0},
        "scale_out/fl": {"updates": 12},
    }}
    drift = _baseline_drift(base, new)
    # Leaf cells report dotted paths with old -> new values; unchanged
    # nested leaves (recovery.drain_s) stay silent.
    assert "steady/tsue.iops: 1.0 -> 2.0" in drift
    assert "scale_out/fl.updates: 10 -> 12" in drift
    assert "steady/tsue.gone: 4 -> <absent>" in drift
    assert "steady/tsue.fresh: <absent> -> 9" in drift
    assert ("rebuild_under_load/tsue: present in baseline, missing from "
            "this run" in drift)
    assert not any("drain_s" in d for d in drift)
    # New cells are additions, not drift; perf is ignored entirely.
    assert not any("burst" in d or "perf" in d for d in drift)
    assert _baseline_drift(base, base) == []


def test_baseline_drift_reports_missing_cells_and_ignores_perf():
    from repro.cli import _baseline_drift

    row = {"iops": 1.0, "perf": {"wall_s": 1.0, "peak_rss_kb": 10.0}}
    base = {"cells": {"steady/tsue": row, "steady/fo": {"iops": 2.0}}}
    new = {"cells": {"steady/tsue": {"iops": 1.0,
                                     "perf": {"wall_s": 7.0}}}}
    assert _baseline_drift(base, new) == [
        "steady/fo: present in baseline, missing from this run"
    ]


def test_cli_bench_scenario_subset_and_no_methods(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bench.json"
    rc = main(["bench", "--clients", "2", "--requests", "30",
               "--cells", "steady/tsue", "--json", str(path)])
    assert rc == 0
    assert set(json.loads(path.read_text())["cells"]) == {"steady/tsue"}
