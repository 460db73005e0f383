"""Open-loop workload generation and named end-to-end scenarios.

The seed repo drove every experiment through one closed-loop replayer (one
outstanding update per client).  This package opens the workload axis:

* :mod:`~repro.workload.arrival` — pluggable inter-arrival processes
  (Poisson, ON/OFF bursts, diurnal ramps, zero-gap closed loop);
* :mod:`~repro.workload.generator` — :class:`OpenLoopGenerator`, an
  arrival-driven client driver with bounded pipelining (``iodepth``),
  mixed read/update ratios and multi-file tenant sharding;
* :mod:`~repro.workload.faults` — schedulable fault injection
  (fail/restore, fail-slow devices, degraded/lossy fabric links, rolling
  restarts and elastic membership changes on the sim clock; the full
  taxonomy is in ``docs/faults.md``);
* :mod:`~repro.workload.scenarios` — a registry of named end-to-end
  scenarios (``steady``, ``burst``, ``diurnal``, ``mixed_rw``,
  ``multi_tenant``, ``hot_stripe``, the failure axis ``degraded_read``,
  ``rebuild_under_load``, ``double_fault``, plus the live-change axis
  :data:`~repro.workload.scenarios.ELASTIC_SCENARIOS`) behind
  ``repro scenario`` / ``repro bench``, with a hard parity-consistency
  gate on every drain, a forced post-recovery scrub gate on every fault
  scenario, and stripe-lock wait + recovery + elastic metrics in the
  results.
"""

from repro.workload.arrival import (
    ArrivalProcess,
    ClosedLoop,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.workload.faults import (
    FaultEvent,
    FaultInjector,
    client_victim,
    primary_victim,
    secondary_victim,
    stripe_member,
)
from repro.workload.generator import OpenLoopGenerator, WorkloadSpec
from repro.workload.scenarios import (
    ELASTIC_SCENARIOS,
    METHODS,
    SCENARIOS,
    InconsistentDrainError,
    PostRecoveryScrubError,
    Scenario,
    ScenarioResult,
    bench_cells,
    cells_to_json,
    register_scenario,
    run_bench_cells,
    run_scenario,
    scenario_config,
)

__all__ = [
    "ArrivalProcess",
    "ClosedLoop",
    "DiurnalArrivals",
    "ELASTIC_SCENARIOS",
    "FaultEvent",
    "FaultInjector",
    "InconsistentDrainError",
    "METHODS",
    "OnOffArrivals",
    "OpenLoopGenerator",
    "PoissonArrivals",
    "PostRecoveryScrubError",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "WorkloadSpec",
    "bench_cells",
    "cells_to_json",
    "client_victim",
    "primary_victim",
    "register_scenario",
    "run_bench_cells",
    "run_scenario",
    "scenario_config",
    "secondary_victim",
    "stripe_member",
]
