"""Self-tests of the benchmark: spans land where they should, tracing
changes no work, and the command refuses to run without the program.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
Small copies of the workloads keep the tests fast; one test runs the
real ``stream-200`` workload for its window count.
"""

import functools
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import layers
from perfbench.metrics import layer_metrics
from perfbench.run import ROOT, SPEC
from perfbench.spans import LayerTotals, Recorder, self_times
from perfbench.workloads import WORKLOADS, Batch, Measure, Sharded, Stream, check_groups

SMALL = {
    "batch": Batch("batch-small", users=150, days=2),
    "sharded": Sharded("sharded-small", users=400, days=2, shards=3),
    "stream": Stream("stream-small", users=60, days=2, window_min=360.0, min_windows=0),
    "measure": Measure("measure-small", users=150, days=2),
}

#: Span names that must record time on each workload.
EXPECTED_SPANS = {
    "batch": ["glove", "engine.bounded", "engine.append", "engine.init", "merge", "reshape"],
    "sharded": [
        "glove", "shard.partition", "shard.pool", "shard.task", "shard.repair",
        "engine.bounded", "engine.append", "merge", "reshape",
    ],
    "stream": ["stream", "stream.push", "engine.bounded", "engine.append", "merge", "reshape"],
    "measure": ["kgap", "kgap.matrix", "kgap.k_nearest"],
}


def roots(spans):
    """Spans without a parent in their own process (one per process)."""
    by_id = {s.id: s for s in spans}
    return [s for s in spans if s.parent is None or by_id[s.parent].pid != s.pid]


def subtree(spans, root):
    """``root`` and every same-process descendant of it."""
    out, todo = [], [root]
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(s for s in spans if s.parent == span.id and s.pid == root.pid)
    return out


@functools.lru_cache(maxsize=None)
def traced(kind, seed=3):
    """Set-up (run 0) and one call (run 1) of a small workload, traced."""
    workload = SMALL[kind]
    recorder = Recorder()
    with layers.Probes(recorder):
        inputs = workload.setup(seed)
    recorder.run = 1
    with layers.Probes(recorder) as probes:
        outcome = workload.call(inputs, probes)
    return workload, inputs, outcome, recorder


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_expected_spans_record_time(kind):
    _, _, _, recorder = traced(kind)
    totals = LayerTotals([s for s in recorder.spans if s.run == 1])
    for name in EXPECTED_SPANS[kind]:
        assert totals.calls[name] > 0, f"no {name} span on {kind}"
        assert totals.total_s[name] > 0.0, f"{name} recorded no time on {kind}"
    setup = LayerTotals([s for s in recorder.spans if s.run == 0])
    assert setup.total_s["cdr.synthesize"] > 0.0


def test_shard_spans_come_from_the_workers():
    _, _, outcome, recorder = traced("sharded")
    spans = [s for s in recorder.spans if s.run == 1]
    tasks = [s for s in spans if s.name == "shard.task"]
    pool = next(s for s in spans if s.name == "shard.pool")
    assert len(tasks) == 3 and {s.parent for s in tasks} == {pool.id}
    assert all(s.pid != pool.pid for s in tasks)
    assert all(pool.start <= s.start and s.end <= pool.end for s in tasks)
    assert outcome.ipc_bytes > 0 and outcome.worker_peak_kb > 0
    metrics = layer_metrics(LayerTotals(spans), outcome.counters, outcome.ipc_bytes)
    assert metrics["shard.shards"] == 3
    assert metrics["shard.max_shard_s"] <= metrics["shard.sum_shard_s"] < 3 * metrics["shard.max_shard_s"]


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_self_times_sum_to_each_root(kind):
    _, _, _, recorder = traced(kind)
    spans = [s for s in recorder.spans if s.run == 1]
    selfs = self_times(spans)
    assert all(v >= 0 for v in selfs.values())
    for root in roots(spans):
        assert sum(selfs[s.id] for s in subtree(spans, root)) == root.duration_ns


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_tracing_changes_no_work(kind):
    workload, inputs, outcome, _ = traced(kind)
    with layers.Probes() as probes:
        plain = workload.call(inputs, probes)
    assert plain.counters == outcome.counters
    assert workload.check(inputs, plain) == []
    assert workload.check(inputs, outcome) == []
    assert workload.digest(plain) == workload.digest(outcome)


def test_probes_restore_every_attribute():
    before = {
        (mod, attr): getattr(layers.module(mod), attr) for mod, attr, _ in layers.TRACED_FUNCTIONS
    }
    engine = layers.module("repro.core.engine")
    methods = {attr: getattr(engine.StretchEngine, attr) for attr, _ in layers.TRACED_ENGINE_METHODS}
    with layers.Probes(Recorder()):
        assert layers.module("repro.core.glove").merge_fingerprints is not before[
            ("repro.core.glove", "merge_fingerprints")
        ]
    for (mod, attr), fn in before.items():
        assert getattr(layers.module(mod), attr) is fn
    for attr, fn in methods.items():
        assert getattr(engine.StretchEngine, attr) is fn
    assert layers._installed is None


def test_stream_200_publishes_enough_windows():
    workload = WORKLOADS["stream-200"]
    inputs = workload.setup(0)
    with layers.Probes() as probes:
        outcome = workload.call(inputs, probes)
    assert workload.check(inputs, outcome) == []
    assert outcome.counters["published_windows"] >= 100
    # p90 of the window latencies has at least ten samples beyond it.
    assert len(outcome.latencies_s) * 0.1 >= 10
    assert outcome.counters["late_events"] > 0


def test_check_groups_flags_small_and_shared_groups():
    from repro.core.fingerprint import Fingerprint
    import numpy as np

    row = np.zeros((1, 6))
    pair = Fingerprint("a+b", row, count=2, members=("a", "b"))
    assert check_groups([pair]) == []
    assert check_groups([Fingerprint("c", row)])
    assert check_groups([pair, Fingerprint("b+d", row, count=2, members=("b", "d"))])


def test_spec_and_benchmark_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(WORKLOADS) == list(spec["workloads"])
    assert set(spec["end_to_end_definitions"]) == {m["name"] for m in bench["end_to_end"]}
    produced = set(layer_metrics(LayerTotals([]), {}, 0)) | {
        "cdr.synthesize_s", "trace.run_s", "trace.untraced_run_s", "trace.overhead_frac",
    }
    assert produced == {m["name"] for m in bench["per_layer"]}


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-1200", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
