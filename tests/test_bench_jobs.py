"""The parallel bench orchestrator: ``--jobs N`` must be invisible.

Every scenario x method cell is an isolated simulator and a pure function
of its arguments, so fanning the cells over a process pool may change wall
time only — the merged JSON payload (minus each cell's machine-dependent
``perf`` block) must be byte-identical to the serial reference path, with
cell order independent of worker completion order.  Also covers the
``--cells`` selector, per-cell RSS under the pool, the oversubscription
guard on perf blocks, the atomic ``--json`` write and the --jobs flag
validation.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import cli
from repro.workload import (
    ELASTIC_SCENARIOS,
    METHODS,
    bench_cells,
    run_bench_cells,
    scenarios,
)

BASELINE = pathlib.Path(__file__).resolve().parents[1] / "BENCH_scenarios.json"


def _bench(tmp_path, tag, jobs, cells, extra=()):
    out = tmp_path / f"bench-{tag}.json"
    rc = cli.main(
        [
            "bench",
            "--clients", "2",
            "--requests", "20",
            "--cells", *cells,
            "--jobs", str(jobs),
            "--json", str(out),
            *extra,
        ]
    )
    assert rc == 0
    return json.loads(out.read_text())["cells"]


def _sans_perf(cells):
    return {
        key: {k: v for k, v in row.items() if k != "perf"}
        for key, row in cells.items()
    }


def test_jobs_output_identical_to_serial(tmp_path):
    cells = ["steady/tsue"] + [
        f"{s}/{m}"
        for s in ("hot_stripe", "scale_out", *ELASTIC_SCENARIOS)
        for m in ("tsue", "fl")
    ]
    serial = _bench(tmp_path, "serial", 1, cells)
    pooled = _bench(tmp_path, "pooled", 3, cells)
    assert list(pooled) == list(serial) == sorted(cells)
    assert _sans_perf(pooled) == _sans_perf(serial)
    # The serial run carries a perf block on every cell; the pooled one
    # too, unless --jobs 3 oversubscribes this host.
    assert all("perf" in row for row in serial.values())
    pooled_perf = {k for k, row in pooled.items() if "perf" in row}
    assert pooled_perf == (set(serial) if 3 <= cli._usable_cpus() else set())


def test_jobs_check_baseline_round_trip(tmp_path):
    """A --jobs N run passes --check-baseline against a serial baseline."""
    out = tmp_path / "base.json"
    cells = [f"{s}/tsue" for s in ("steady", "hot_stripe", "scale_out",
                                   *ELASTIC_SCENARIOS)]
    args = [
        "bench", "--clients", "2", "--requests", "15",
        "--cells", *cells,
        "--json", str(out),
    ]
    assert cli.main(args) == 0
    assert cli.main(args + ["--jobs", "2", "--check-baseline", str(out)]) == 0


def test_jobs_flag_validation(tmp_path, capsys):
    base = ["bench", "--cells", "steady/tsue"]
    assert cli.main(base + ["--jobs", "0"]) == 2
    assert cli.main(base + ["--jobs", "2", "--profile",
                            str(tmp_path / "p.txt")]) == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "--profile" in err


def test_json_write_is_atomic(tmp_path, monkeypatch):
    """A crash mid-serialisation must not clobber the existing baseline."""
    out = tmp_path / "bench.json"
    out.write_text('{"sentinel": true}\n')

    def boom(*a, **k):
        raise RuntimeError("simulated crash mid-dump")

    monkeypatch.setattr(json, "dump", boom)
    with pytest.raises(RuntimeError, match="mid-dump"):
        cli.main(
            [
                "bench", "--clients", "2", "--requests", "5",
                "--cells", "steady/tsue",
                "--json", str(out),
            ]
        )
    monkeypatch.undo()
    # Old content intact, no temp litter.
    assert json.loads(out.read_text()) == {"sentinel": True}
    assert list(tmp_path.glob("*.tmp")) == []


def test_pooled_cells_report_their_own_peak_rss():
    """Each pooled cell runs in a fresh worker, so a small 8-OSD cell's
    ``peak_rss_kb`` does not inherit the shrunk scale_out/tsue cell's
    high-water mark (its 256 OSDs' logs roughly double the footprint).

    Fourteen small cells outlast the scale_out cell, so a reused pool
    would hand some of them to the worker that ran it.  The pool runs under a
    fresh interpreter: forked workers start at their parent's RSS, and a
    long pytest run's parent would mask the per-cell difference.
    """
    script = (
        "import json\n"
        "from repro.workload import bench_cells, run_bench_cells\n"
        "cells = bench_cells(['scale_out/tsue', 'steady/*', 'burst/*'])\n"
        "res = run_bench_cells(cells, jobs=2, n_clients=2,\n"
        "                      requests_per_client=5)\n"
        "print(json.dumps({f'{s}/{m}': r.perf['peak_rss_kb']\n"
        "                  for (s, m), r in res.items()}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True)
    rss = json.loads(done.stdout)
    big = rss.pop("scale_out/tsue")
    assert len(rss) == 2 * len(METHODS)
    assert all(kb < big for kb in rss.values()), (big, rss)


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert cli._usable_cpus() == 2
    # Without an affinity call, fall back to the host count, then to 1.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_oversubscribed_jobs_write_no_perf(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    out = tmp_path / "bench.json"
    rc = cli.main(["bench", "--clients", "2", "--requests", "5",
                   "--cells", "steady/tsue", "steady/fl", "--jobs", "2",
                   "--json", str(out)])
    assert rc == 0
    assert "exceeds the 1 CPU(s)" in capsys.readouterr().err
    cells = json.loads(out.read_text())["cells"]
    assert set(cells) == {"steady/tsue", "steady/fl"}
    assert not any("perf" in row for row in cells.values())


# ----------------------------------------------------------------------
# the --cells selector (no simulation)
# ----------------------------------------------------------------------
def test_default_cells_match_the_committed_baseline():
    committed = json.loads(BASELINE.read_text())
    assert committed["bench"] == "cells"
    default = {f"{s}/{m}" for s, m in bench_cells()}
    assert default == set(committed["cells"])


def test_star_expands_in_methods_order():
    assert bench_cells(["steady/*"]) == [("steady", m) for m in METHODS]


def test_run_bench_cells_runs_each_cell_once(monkeypatch):
    ran = []

    def fake_run_scenario(name, method, **kwargs):
        ran.append((name, method))
        return method

    monkeypatch.setattr(scenarios, "run_scenario", fake_run_scenario)
    results = run_bench_cells(bench_cells(["steady/fl", "steady/*"]))
    # Duplicates collapse, first occurrence wins.
    expected = [("steady", "fl")] + [
        ("steady", m) for m in METHODS if m != "fl"
    ]
    assert ran == list(results) == expected


@pytest.mark.parametrize("spec", ["bogus/tsue", "steady/bogus", "steady",
                                  "bogus/*"])
def test_unknown_cell_exits_2_before_any_cell_runs(spec, monkeypatch, capsys):
    import repro.workload.scenarios as scenarios

    def must_not_run(*a, **k):
        raise AssertionError("a cell ran before the selection was checked")

    monkeypatch.setattr(scenarios, "run_scenario", must_not_run)
    assert cli.main(["bench", "--cells", "steady/tsue", spec]) == 2
    assert "unknown" in capsys.readouterr().err


def test_old_section_baseline_is_rejected(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"bench": "scenarios", "scenarios": {}}))
    assert cli.main(["bench", "--cells", "steady/tsue",
                     "--check-baseline", str(old)]) == 2
    assert "not a cells table" in capsys.readouterr().err
