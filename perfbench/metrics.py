"""Per-layer metrics of one traced call, from its spans and its counters.

Times are span sums (shard-worker spans included, so a layer's time on
``sharded-3000`` is summed over both workers); counts come from the
stats the program returned.  A layer a workload does not load reports
0.  Units are listed beside each name in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict

from perfbench.spans import LayerTotals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: LayerTotals, counters: Dict[str, int], ipc_bytes: int) -> Dict[str, float]:
    """Every per-layer metric of one traced call, by name."""
    t, c = totals.total_s, counters.get
    exact = c("exact_evaluations", 0)
    pruned = c("pruned_evaluations", 0)
    shard_tasks = totals.durations_s.get("shard.task", [])
    pairs = c("pairs", 0)
    return {
        "engine.bounded_s": t["engine.bounded"],
        "engine.bounded_calls": totals.calls["engine.bounded"],
        "engine.exact_evaluations": exact,
        "engine.pruned_evaluations": pruned,
        "engine.exact_frac": _ratio(exact, exact + pruned),
        "engine.pair_ns": _ratio(t["engine.bounded"] * 1e9, exact + pruned),
        "engine.boundary_crossings": c("boundary_crossings", 0),
        "engine.probes_per_crossing": _ratio(c("probe_dispatches", 0), c("boundary_crossings", 0)),
        "engine.append_s": t["engine.append"],
        "engine.append_calls": totals.calls["engine.append"],
        "engine.init_s": t["engine.init"],
        "merge.s": t["merge"],
        "merge.calls": totals.calls["merge"],
        "merge.us_per_call": _ratio(t["merge"] * 1e6, totals.calls["merge"]),
        "reshape.s": t["reshape"],
        "glove.self_s": totals.self_s["glove"],
        "glove.merges": c("merges", 0),
        "shard.partition_s": t["shard.partition"],
        "shard.pool_s": t["shard.pool"],
        "shard.max_shard_s": max(shard_tasks, default=0.0),
        "shard.sum_shard_s": sum(shard_tasks),
        "shard.repair_s": t["shard.repair"],
        "shard.shards": len(shard_tasks),
        "shard.boundary_repaired": c("boundary_repaired", 0),
        "shard.ipc_bytes": ipc_bytes,
        "stream.push_s": t["stream.push"],
        "stream.events": c("events", 0),
        "stream.late_events": c("late_events", 0),
        "stream.windows": c("windows", 0),
        "stream.deferred_windows": c("deferred_windows", 0),
        "stream.self_s": totals.self_s["stream"],
        "kgap.matrix_s": t["kgap.matrix"],
        "kgap.pairs": pairs,
        "kgap.pair_ns": _ratio(t["kgap.matrix"] * 1e9, pairs),
        "kgap.k_nearest_s": t["kgap.k_nearest"],
    }
