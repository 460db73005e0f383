"""Layer map and profile attribution for the traced benchmark run.

Every module under ``src/repro`` is assigned to exactly one layer in
:data:`LAYER_MAP`, keyed by its dotted module path.  The map is data so the
self-test can fail when a new module lands unmapped, instead of its cost
silently falling into an "other" bucket.

:class:`Attribution` turns a :class:`pstats.Stats` (the stdlib
deterministic profiler) into per-layer self seconds, per-function call
counts and layer-to-layer call edges:

* a ``repro`` function's self time and calls go to the layer that defines it;
* C builtins, numpy and stdlib self time go to the layer of the nearest
  calling ``repro`` frame (split over callers by the profiler's caller
  table);
* the benchmark's own functions go to the ``bench`` bucket.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Tuple

LAYER_MAP: Dict[str, str] = {
    # command line and figure/table drivers
    "repro": "harness",
    "repro.__main__": "harness",
    "repro.cli": "harness",
    "repro.harness": "harness",
    "repro.harness.ablations": "harness",
    "repro.harness.experiment": "harness",
    "repro.harness.fig5": "harness",
    "repro.harness.fig6": "harness",
    "repro.harness.fig7": "harness",
    "repro.harness.fig8": "harness",
    "repro.harness.lifespan": "harness",
    "repro.harness.table1": "harness",
    "repro.harness.table2": "harness",
    # static analysis (``repro lint``); never on a simulation path
    "repro.analysis": "analysis",
    "repro.analysis.cache": "analysis",
    "repro.analysis.core": "analysis",
    "repro.analysis.graph": "analysis",
    "repro.analysis.project": "analysis",
    "repro.analysis.reporters": "analysis",
    "repro.analysis.rules": "analysis",
    "repro.analysis.rules.aliasing": "analysis",
    "repro.analysis.rules.baseline": "analysis",
    "repro.analysis.rules.determinism": "analysis",
    "repro.analysis.rules.hotpath": "analysis",
    "repro.analysis.rules.ipd": "analysis",
    "repro.analysis.rules.locks": "analysis",
    "repro.analysis.rules.plane": "analysis",
    "repro.analysis.rules.rpc": "analysis",
    "repro.analysis.vocab": "analysis",
    # kernel + resources (KeyedLock lives here too)
    "repro.sim": "sim",
    "repro.sim.core": "sim",
    "repro.sim.drawcursor": "sim",
    "repro.sim.events": "sim",
    "repro.sim.resources": "sim",
    "repro.sim.rng": "sim",
    "repro.cluster": "cluster",
    "repro.cluster.cluster": "cluster",
    "repro.dataplane": "dataplane",
    "repro.devices": "devices",
    "repro.devices.base": "devices",
    "repro.devices.hdd": "devices",
    "repro.devices.profiles": "devices",
    "repro.devices.ssd": "devices",
    # erasure coding and the Galois-field math under it
    "repro.ec": "ec",
    "repro.ec.matrix": "ec",
    "repro.ec.rs": "ec",
    "repro.ec.stripe": "ec",
    "repro.gf": "ec",
    "repro.gf.arithmetic": "ec",
    # file system: clients, OSDs, MDS; RPC and block store are own layers
    "repro.fs": "fs",
    "repro.fs.client": "fs",
    "repro.fs.mds": "fs",
    "repro.fs.osd": "fs",
    "repro.fs.messages": "rpc",
    "repro.fs.blockstore": "blockstore",
    "repro.logstruct": "logstruct",
    "repro.logstruct.index": "logstruct",
    "repro.logstruct.intervals": "logstruct",
    "repro.logstruct.pool": "logstruct",
    "repro.logstruct.states": "logstruct",
    "repro.logstruct.unit": "logstruct",
    "repro.metrics": "metrics",
    "repro.metrics.counters": "metrics",
    "repro.metrics.latency": "metrics",
    "repro.metrics.lifespan": "metrics",
    "repro.metrics.report": "metrics",
    "repro.net": "net",
    "repro.net.fabric": "net",
    "repro.net.nic": "net",
    "repro.recovery": "recovery",
    "repro.recovery.rebalance": "recovery",
    "repro.recovery.recovery": "recovery",
    "repro.recovery.scrub": "recovery",
    "repro.tsue": "tsue",
    "repro.tsue.engine": "tsue",
    "repro.update": "update",
    "repro.update.base": "update",
    "repro.update.cord": "update",
    "repro.update.fl": "update",
    "repro.update.fo": "update",
    "repro.update.parix": "update",
    "repro.update.pl": "update",
    "repro.update.plr": "update",
    "repro.update.tsue_strategy": "update",
    # workload generation and trace synthesis
    "repro.traces": "workload",
    "repro.traces.alicloud": "workload",
    "repro.traces.msr": "workload",
    "repro.traces.replay": "workload",
    "repro.traces.synth": "workload",
    "repro.traces.tencloud": "workload",
    "repro.workload": "workload",
    "repro.workload.arrival": "workload",
    "repro.workload.faults": "workload",
    "repro.workload.generator": "workload",
    "repro.workload.scenarios": "workload",
}

# Layers whose self time the traced run reports as ``<layer>.self_s``
# (``analysis`` is mapped but never runs inside a simulation).
REPORTED_LAYERS = (
    "sim", "rpc", "net", "devices", "blockstore", "logstruct", "tsue",
    "update", "ec", "dataplane", "cluster", "fs", "recovery", "workload",
    "metrics", "harness",
)

BENCH = "bench"            # the benchmark's own code
UNATTRIBUTED = "unattributed"  # native time with no repro frame above it

Func = Tuple[str, int, str]


def module_of(filename: str, src_dir: str) -> "str | None":
    """Dotted module path of a file under ``src_dir``, else None."""
    try:
        rel = os.path.relpath(filename, src_dir)
    except ValueError:
        return None
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module: str) -> str:
    try:
        return LAYER_MAP[module]
    except KeyError:
        raise KeyError(
            f"module {module!r} is not in perfbench.layers.LAYER_MAP"
        ) from None


class Attribution:
    """Per-layer self time, per-function calls and layer edges of a profile."""

    def __init__(self, stats, src_dir: str, bench_dir: str):
        self._stats = stats.stats
        self._src = os.path.abspath(src_dir)
        self._bench = os.path.abspath(bench_dir)
        self._owner: Dict[Func, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], float] = defaultdict(float)
        for func, (_cc, _nc, tt, _ct, callers) in self._stats.items():
            own = self._fixed_layer(func)
            if own is not None:
                self.self_s[own] += tt
            elif not callers:
                self.self_s[UNATTRIBUTED] += tt
            else:
                # Native/stdlib self time, split over its direct callers by
                # the caller table's per-edge inline time.
                for caller, (_enc, _ecc, ett, _ect) in callers.items():
                    for layer, w in self.owner(caller).items():
                        self.self_s[layer] += ett * w
            if own is None or own == BENCH:
                continue
            for caller, (enc, _ecc, _ett, _ect) in callers.items():
                for layer, w in self.owner(caller).items():
                    if layer != own:
                        self.edges[(layer, own)] += enc * w

    def _fixed_layer(self, func: Func) -> "str | None":
        filename = func[0]
        if filename.startswith(self._bench + os.sep):
            return BENCH
        module = module_of(filename, self._src)
        if module is None or not module.startswith("repro"):
            return None
        return layer_of_module(module)

    def owner(self, func: Func, _visiting=None) -> Dict[str, float]:
        """Layer weights of the nearest repro frame(s) above ``func``."""
        fixed = self._fixed_layer(func)
        if fixed is not None:
            return {fixed: 1.0}
        if func in self._owner:
            return self._owner[func]
        visiting = set() if _visiting is None else _visiting
        visiting.add(func)
        entry = self._stats.get(func)
        callers = entry[4] if entry else {}
        weights: Dict[str, float] = defaultdict(float)
        total = 0.0
        # Weighted by call counts, which repeat exactly run to run, so the
        # edge counts derived from these weights do too.
        for caller, (enc, _ecc, _ett, _ect) in callers.items():
            if caller in visiting:
                continue
            for layer, share in self.owner(caller, visiting).items():
                weights[layer] += enc * share
            total += enc
        visiting.discard(func)
        out = (
            {k: v / total for k, v in weights.items()}
            if total > 0 else {UNATTRIBUTED: 1.0}
        )
        if not visiting:  # a complete answer, not one cut short by a cycle
            self._owner[func] = out
        return out

    def calls(self, layer: str, name_prefix: str = "") -> int:
        """Profiled calls of ``layer``'s functions whose name starts with
        ``name_prefix`` (generator resumes count as calls)."""
        return sum(
            nc
            for func, (_cc, nc, _tt, _ct, _callers) in self._stats.items()
            if func[2].startswith(name_prefix) and self._fixed_layer(func) == layer
        )

    def calls_into(self, layer: str) -> float:
        """Calls entering ``layer`` from any other layer."""
        return sum(n for (_src, dst), n in self.edges.items() if dst == layer)
