"""The benchmark's workloads, driven phase by phase through public calls.

One *rep* builds a fresh cluster for one workload at one seed, runs it and
checks it, timing three phases separately with process CPU time:

* **setup** — process start (interpreter and imports included) up to the
  first simulated event: cluster build, file registration, trace and
  arrival generation;
* **simulation** — arrivals through the last drain phase;
* **check** — the post-drain correctness gates (shadow verify, forced
  scrub, parity consistency).

The drivers mirror ``repro.harness.experiment.run_experiment`` (closed
loop) and ``repro.workload.scenarios.run_scenario`` (open loop) step by
step, so their simulated outputs equal those entry points' at the same
seed and size; the self-tests pin that equality.  Any gate that trips
raises :class:`GateError`.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import resource
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.harness.experiment import (
    ExperimentConfig,
    _verify,
    aggregate_update_latency,
    build_cluster,
    drain_all,
    drive_to_completion,
    make_trace,
)
from repro.metrics.latency import LatencyRecorder
from repro.recovery import scrub, watch_and_recover
from repro.sim import AllOf
from repro.traces import TraceReplayer
from repro.workload.faults import FaultInjector
from repro.workload.generator import OpenLoopGenerator, WorkloadSpec
from repro.workload.scenarios import SCENARIOS, scenario_config

from clock import NormalizedClock
from layers import REPORTED_LAYERS, Attribution

GIB = 1 << 30
# The gates run this many times per rep; check_s is the median pass.
CHECK_REPEATS = 3
PHASES = ("setup", "sim", "check")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    # Registered scenario run on an open loop; None is the closed-loop
    # Ali-Cloud replay of the Fig. 5 harness.
    scenario: Optional[str]
    clients: int
    requests: int          # per client
    tiny_clients: int      # the self-test size
    tiny_requests: int

    def size(self, size: str):
        if size == "full":
            return self.clients, self.requests
        if size == "tiny":
            return self.tiny_clients, self.tiny_requests
        raise ValueError(f"unknown size {size!r}")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "ali_tsue",
        "paper headline cell: closed-loop Ali-Cloud replay, RS(6,2) on 16 "
        "SSD OSDs, TSUE log appends, recycle and GF delta folding; no stripe "
        "locks",
        "tsue", None, 16, 96, 4, 4,
    ),
    Workload(
        "hot_stripe_fo",
        "zipf-hot stripes on an open loop with in-place fo: stripe-lock "
        "contention and the shared RMW path; bypasses TSUE and logstruct",
        "fo", "hot_stripe", 128, 25, 4, 10,
    ),
    Workload(
        "scale_out_parix",
        "1024 clients x 256 OSDs on the ghost plane with parix: kernel, RPC, "
        "placement and setup dominate while GF math vanishes",
        "parix", "scale_out", 1024, 3, 64, 1,
    ),
    Workload(
        "rebuild_tsue",
        "OSD crash mid-run under 20% reads with TSUE: log read overlay, "
        "degraded decode, rebuild/restore/repair and a forced scrub",
        "tsue", "rebuild_under_load", 16, 150, 4, 10,
    ),
)}


class GateError(Exception):
    """A correctness gate tripped; every op of the rep counts as failed."""

    def __init__(self, gate: str, detail: str = ""):
        super().__init__(f"{gate}: {detail}")
        self.gate = gate
        self.detail = detail


class Run:
    """One built workload instance: cluster, request drivers and phases."""

    def __init__(self, w: Workload, seed: int, size: str):
        self.workload = w
        n_clients, n_requests = w.size(size)
        self.issued = n_clients * n_requests
        self.recoveries: List = []
        self.horizon = 0.0
        self.injector = self.watcher = self.watcher_stop = None
        if w.scenario is None:
            self._build_closed(seed, n_clients, n_requests)
        else:
            self._build_open(seed, n_clients, n_requests)
        self.sim = self.cluster.sim

    # -- setup --------------------------------------------------------------
    def _build_closed(self, seed, n_clients, n_requests):
        """The Fig. 5 cell, as ``run_experiment`` builds it."""
        self.scenario = None
        self.cfg = ExperimentConfig(
            method=self.workload.method, trace="ali", k=6, m=2, n_osds=16,
            n_clients=n_clients, updates_per_client=n_requests,
            block_size=64 * 1024, seed=seed, verify=True,
        )
        self.cluster = cluster = build_cluster(self.cfg)
        self.drivers = []
        self.inodes = []
        for i in range(n_clients):
            inode = 1000 + i
            cluster.register_sparse_file(inode, self.cfg.file_size)
            client = cluster.add_client(f"client{i}")
            trace = make_trace(self.cfg, cluster.rng.get(f"trace{i}"))
            self.drivers.append(
                TraceReplayer(client, inode, trace, cluster.rng.get(f"payload{i}"))
            )
            self.inodes.append(inode)
        cluster.start()

    def _build_open(self, seed, n_clients, n_requests):
        """A registered scenario, as ``run_scenario`` builds it."""
        sc = self.scenario = SCENARIOS[self.workload.scenario]
        self.cfg = cfg = scenario_config(
            seed, n_clients, n_requests, self.workload.method, "ssd",
            fast_dataplane=not sc.faults,
            ghost_dataplane=sc.ghost_dataplane,
            n_osds=sc.n_osds or 8,
        )
        self.cluster = cluster = build_cluster(cfg)
        self.drivers = []
        self.inodes = []
        for i in range(n_clients):
            client = cluster.add_client(f"client{i}")
            tenants = []
            for t in range(sc.tenants_per_client):
                inode = 1000 + i * sc.tenants_per_client + t
                cluster.register_sparse_file(inode, cfg.file_size)
                self.inodes.append(inode)
                trace_rng = cluster.rng.get(f"trace{i}.{t}")
                if sc.make_records is not None:
                    trace = sc.make_records(cfg, trace_rng)
                else:
                    trace = make_trace(cfg, trace_rng)
                tenants.append((inode, trace))
            spec = WorkloadSpec(
                arrivals=sc.make_arrivals(),
                n_requests=n_requests,
                iodepth=sc.iodepth,
                read_fraction=sc.read_fraction,
            )
            self.drivers.append(
                OpenLoopGenerator(client, tenants, cluster.rng.get(f"workload{i}"), spec)
            )
        cluster.start()
        if sc.faults:
            self.injector = FaultInjector(cluster, self.inodes, sc.faults)
            if sc.recovery:
                cluster.mds.heartbeat_timeout = 4 * sc.heartbeat_interval
                for osd in cluster.osds:
                    osd.start_heartbeat(sc.heartbeat_interval)
                self.watcher_stop = cluster.sim.event(name="watcher-stop")
                self.watcher = cluster.sim.process(
                    watch_and_recover(
                        cluster,
                        check_interval=sc.heartbeat_interval,
                        stop=self.watcher_stop,
                        repair=True,
                    ),
                    name="mds-watcher",
                )

    # -- simulation -----------------------------------------------------------
    def _main(self):
        sim = self.sim
        injector = self.injector
        inj_proc = (
            sim.process(injector.run(), name="fault-injector") if injector else None
        )
        procs = [sim.process(d.run(), name=f"gen{i}") for i, d in enumerate(self.drivers)]
        yield AllOf(sim, procs)
        self.horizon = sim.now
        if injector:
            yield inj_proc
            waited = 0.0
            while self.cluster.down_osds:
                if waited >= 60.0:
                    raise RuntimeError(
                        f"OSDs still down after {waited:.0f}s: "
                        f"{sorted(self.cluster.down_osds)}"
                    )
                yield sim.timeout(1e-3)
                waited += 1e-3
            if self.watcher is not None:
                self.watcher_stop.succeed()
                self.recoveries = yield self.watcher
        yield from drain_all(self.cluster)

    def simulate(self) -> None:
        """Arrivals through drain; a deadlock or a strategy error is a gate."""
        try:
            drive_to_completion(
                self.sim, self.sim.process(self._main(), name="bench"),
                what=f"workload {self.workload.name!r}",
            )
        except RuntimeError as exc:  # deadlock, heal timeout, drain errors
            raise GateError("simulation", str(exc)) from exc
        completed = sum(d.completed + d.reads_completed for d in self.drivers)
        if completed != self.issued:
            raise GateError(
                "accounting",
                f"{completed} updates+reads completed of {self.issued} issued",
            )

    # -- check ----------------------------------------------------------------
    def check(self) -> None:
        """The post-drain gates; raises :class:`GateError` on the first miss.

        Repeatable: the gates only read stored state (the forced scrub's
        simulated reads advance the clock and the I/O counters, so
        :meth:`sim_metrics` is read before the first pass).
        """
        cluster = self.cluster
        if self.scenario is None:
            if not _verify(cluster, self.cfg, self.drivers):
                raise GateError("shadow", "stored bytes differ from the shadow model")
            return
        targets = [
            (inode, s) for inode in self.inodes
            for s in range(self.cfg.stripes_per_file)
        ]
        if self.scenario.faults:
            report = drive_to_completion(
                self.sim, self.sim.process(scrub(cluster, targets, force=True)),
                what="forced scrub",
            )
            if not report.clean or report.skipped:
                raise GateError(
                    "scrub",
                    f"{len(report.mismatches)} bad / {len(report.skipped)} "
                    "unscrubbable stripe(s)",
                )
        bad = [t for t in targets if not cluster.stripe_consistent(*t)]
        if bad:
            raise GateError("consistency", f"{len(bad)} inconsistent stripe(s): {bad[:4]}")

    def corrupt_parity(self) -> None:
        """Flip one stored parity byte (self-test only: the gates must trip)."""
        cluster = self.cluster
        k = self.cfg.k
        for inode in self.inodes:
            for stripe in range(self.cfg.stripes_per_file):
                key = (inode, stripe, k)
                osd = cluster.osd_by_name(cluster.placement(inode, stripe)[k])
                blk = osd.store.peek(key)
                if blk is not None:
                    bad = blk.copy()
                    bad[0] ^= 0xFF
                    osd.store.install(key, bad)
                    return
        raise ValueError("no parity block stored to corrupt")

    # -- outputs --------------------------------------------------------------
    def sim_metrics(self) -> Dict[str, float]:
        """Every simulated output; exact per seed, compared across reps."""
        cluster = self.cluster
        updates = sum(d.completed for d in self.drivers)
        reads = sum(d.reads_completed for d in self.drivers)
        user_bytes = sum(d.bytes_written for d in self.drivers)
        agg = aggregate_update_latency(cluster.clients)
        p50, p99 = agg.percentiles((50.0, 99.0))
        # Steady-state rate: the middle 80% of update completions over the
        # time they took, so neither ramp-up nor one straggler sets it.
        t10, t90 = np.percentile(agg.completion_times, (10.0, 90.0))
        reads_rec = LatencyRecorder("reads")
        for c in cluster.clients:
            reads_rec.latencies.extend(c.read_latency.latencies)
        ops = cluster.total_ops()
        erases = cluster.total_wear().erase_ops
        net = cluster.total_net()
        lock_waits: List[float] = []
        acquisitions = contended = 0
        for osd in cluster.osds:
            acquisitions += osd.stripe_locks.acquisitions
            contended += osd.stripe_locks.contended
            lock_waits.extend(osd.stripe_locks.wait_times)
        peak_log = seals = 0
        if self.workload.method == "tsue":
            for osd in cluster.osds:
                engine = osd.strategy.engine
                peak_log += engine.peak_log_memory_bytes()
                for pools in (engine.data_pools, engine.delta_pools, engine.parity_pools):
                    seals += sum(p.total_seals for p in pools)
        return {
            "issued": self.issued,
            "updates": updates,
            "reads": reads,
            "horizon_s": self.horizon,
            "drained_s": self.sim.now,
            "events": self.sim.events_fired,
            "sim_update_iops": 0.8 * updates / (t90 - t10),
            "sim_update_p50_us": p50 * 1e6,
            "sim_update_p99_us": p99 * 1e6,
            "sim_read_p99_us": reads_rec.percentile(99.0) * 1e6 if reads else 0.0,
            "user_bytes": user_bytes,
            "dev_write_bytes": ops.write_bytes,
            "dev_ios": ops.rw_ops,
            "dev_write_ops": ops.write_ops,
            "dev_rand_write_ops": ops.write_ops_rand,
            "dev_overwrite_bytes": ops.overwrite_bytes,
            "erase_ops": erases,
            "write_amp": ops.write_bytes / user_bytes,
            "erase_per_gib": erases / (user_bytes / GIB),
            "net_bytes": net.bytes_sent,
            "net_msgs": net.messages,
            "net_bytes_per_update": net.bytes_sent / updates,
            "lock_acquisitions": acquisitions,
            "lock_contended": contended,
            "lock_wait_p99_us": (
                float(np.percentile(lock_waits, 99.0)) * 1e6 if lock_waits else 0.0
            ),
            "osd_reads_served": sum(o.reads_served for o in cluster.osds),
            "osd_cache_hits": sum(o.cache_hits for o in cluster.osds),
            "update_retries": sum(c.update_retries for c in cluster.clients),
            "degraded_reads": sum(c.degraded_reads for c in cluster.clients),
            "tsue_peak_log_bytes": peak_log,
            "log_seals": seals,
            "rebuild_sim_s": sum(r.rebuild_seconds for r in self.recoveries),
            "recovered_bytes": sum(r.bytes_recovered for r in self.recoveries),
        }


def run_rep(name: str, seed: int, size: str = "full", trace: bool = False,
            tamper: bool = False, clock: Optional[NormalizedClock] = None) -> dict:
    """Build, simulate and check one workload instance in this process.

    ``clock`` should have been started at process start, so setup counts
    the imports; without one a clock starts here.  With ``trace`` each
    phase runs under its own profiler (the check phase's first pass only)
    and every device's ``trace_hook`` sums busy time; host numbers of a
    traced rep carry the profiler's overhead and serve only the per-layer
    report.
    """
    if clock is None:
        clock = NormalizedClock()
        clock.start()
    w = WORKLOADS[name]
    out: dict = {"workload": name, "seed": seed, "gate": None, "detail": ""}
    profs = {p: cProfile.Profile() for p in PHASES} if trace else {}

    with _profiled(profs.get("setup")):
        run = Run(w, seed, size)
    out["issued"] = run.issued
    busy = [0.0]
    if trace:
        def on_io(req, busy=busy):
            busy[0] += req.service_time
        for osd in run.cluster.osds:
            osd.device.trace_hook = on_io
    t_setup = clock.read()

    check_s: List[tuple] = []
    try:
        with _profiled(profs.get("sim")):
            run.simulate()
        t_sim = clock.read()
        sim = run.sim_metrics()
        channels = sum(o.device.profile.channels for o in run.cluster.osds)
        busy_frac = busy[0] / (channels * run.sim.now)
        if tamper:
            run.corrupt_parity()
        for i in range(CHECK_REPEATS):
            t0 = clock.read()
            with _profiled(profs.get("check") if i == 0 else None):
                run.check()
            t1 = clock.read()
            check_s.append((t1[0] - t0[0], t1[1] - t0[1]))
    except GateError as exc:
        out["gate"], out["detail"] = exc.gate, exc.detail
        return out
    run.cluster.stop()

    out["sim"] = sim
    reqs = sim["updates"] + sim["reads"]
    # Index 0: raw CPU seconds; 1: normalized to the reference speed.
    out["host"], out["host_raw"] = ({
        "setup_s": t_setup[i],
        "sim_cpu_s": t_sim[i] - t_setup[i],
        "host_us_per_req": (t_sim[i] - t_setup[i]) / reqs * 1e6,
        "check_s": statistics.median(c[i] for c in check_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    } for i in (1, 0))
    if trace:
        out["layers"] = _layer_report(profs, busy_frac)
    return out


@contextlib.contextmanager
def _profiled(prof: Optional[cProfile.Profile]):
    if prof is None:
        yield
        return
    prof.enable()
    try:
        yield
    finally:
        prof.disable()


def _layer_report(profs: Dict[str, cProfile.Profile], busy_frac: float) -> dict:
    """Self time over all phases; setup self time; simulation-phase counts."""
    att = {
        phase: Attribution(pstats.Stats(prof), SRC_DIR, BENCH_DIR)
        for phase, prof in profs.items()
    }
    self_s: Dict[str, float] = {}
    for a in att.values():
        for layer, v in a.self_s.items():
            self_s[layer] = self_s.get(layer, 0.0) + v
    sim = att["sim"]
    return {
        "self_s": {layer: self_s.get(layer, 0.0) for layer in REPORTED_LAYERS},
        "other_self_s": {
            k: v for k, v in self_s.items() if k not in REPORTED_LAYERS
        },
        "setup_self_s": dict(att["setup"].self_s),
        "rpc_calls_in": sim.calls_into("rpc"),
        "ec_calls_in": sim.calls_into("ec"),
        "placement_calls": sim.calls("cluster", "placement"),
        "device_busy_frac": busy_frac,
        "sim_edges": sorted(
            ([a, b, n] for (a, b), n in sim.edges.items()),
            key=lambda e: -e[2],
        ),
    }
