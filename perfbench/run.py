"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-1200 --seed 0 --seconds 15 --trace 0

The run pins its environment (every ``REPRO_*`` variable and ``CC`` of
the caller are dropped; the native kernel is built in the private
``.bench_build/`` directory of the checkout), loads and warms the
kernel binding, then:

1. sets the workload up from the seed -- up to three times while that
   stays within :data:`SETUP_BUDGET_S` -- and reports the median as
   ``setup_s``;
2. repeats the workload's one call while another call still fits in
   ``--seconds`` (always at least one), checking every output outside
   the timed region; a call that fails a check counts as failed and its
   timings are dropped;
3. with ``--trace 0`` prints the end-to-end metrics, times scaled to a
   reference host speed (see :data:`REFERENCE_LOOP_S`; the raw times
   are printed too); with ``--trace 1``
   alternates untraced and traced calls and prints the per-layer
   metrics of the traced ones, the tracing overhead, and fails a traced
   call whose work counters differ from the untraced call's.

Human-readable lines come first; the last line of standard output is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import List

import numpy

ROOT = Path(__file__).resolve().parents[1]
SPEC = Path(__file__).resolve().parent / "spec.json"
if str(ROOT) not in sys.path:  # run as a script from perfbench/
    sys.path.insert(0, str(ROOT))

from perfbench.layers import Probes, peak_rss_kb  # noqa: E402  (no program import)
from perfbench.metrics import layer_metrics  # noqa: E402
from perfbench.spans import LayerTotals, Recorder  # noqa: E402
from perfbench.workloads import WORKLOADS, Batch, Measure  # noqa: E402

#: Set-up repeats stop once another one would push their total past this.
SETUP_BUDGET_S = 10.0
MAX_SETUPS = 3

#: Seed whose outputs have reference digests in ``spec.json``.
DEFAULT_SEED = 0

#: Time of :func:`reference_loop` at the reference host speed.  The
#: host's speed drifts by up to half over minutes (the loop took 29-45 ms
#: across one sweep), which moved raw call times by up to 27% between
#: runs; end-to-end times are scaled by this over the run's median loop
#: time (on the same runs: batch-1200 run_s spread 18% raw, 8% scaled).
REFERENCE_LOOP_S = 0.040


def pin_environment(root: Path) -> None:
    """Drop the caller's knobs and point the kernel build at the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")] + ["CC"]:
        os.environ.pop(key, None)
    os.environ["REPRO_ARTIFACT_DIR"] = str(root / ".bench_build" / "repro-artifacts")


def warm_up() -> None:
    """Load the kernel binding and run the kernel entry points on a tiny input."""
    for workload in (Batch("warm-up", users=40, days=2), Measure("warm-up", users=40, days=2)):
        with Probes() as probes:
            workload.call(workload.setup(DEFAULT_SEED), probes)


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    return float(numpy.quantile(numpy.asarray(values), q)) if values else 0.0


class Call:
    """A finished call with its verdict."""

    def __init__(self, outcome, problems, traced_run=None):
        self.outcome = outcome
        self.problems = problems
        self.traced_run = traced_run

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def operations(self) -> int:
        # On the stream an operation is a published window; elsewhere the call.
        return max(1, len(self.outcome.latencies_s)) if self.outcome else 1


def run_call(workload, inputs, seed, reference, recorder=None) -> Call:
    """One timed call plus its checks (outside the timed region)."""
    gc.collect()
    if recorder is not None:
        recorder.run += 1
    try:
        with Probes(recorder) as probes:
            outcome = workload.call(inputs, probes)
        outcome.peak_kb = peak_rss_kb() + outcome.worker_peak_kb
    except Exception:  # a crashing call is a failed operation, not a crashed run
        traceback.print_exc(file=sys.stderr)
        return Call(None, ["call raised"])
    problems = workload.check(inputs, outcome)
    if reference and seed == DEFAULT_SEED and workload.digest(outcome) != reference:
        problems.append("output digest differs from the reference digest")
    return Call(outcome, problems, recorder.run if recorder is not None else None)


class Measurement:
    """Everything one run measured, before it becomes metrics."""

    def __init__(self, trace: bool):
        self.recorder = Recorder() if trace else None
        self.inputs = None
        self.setup_s: List[float] = []
        #: Reference-loop times taken before each set-up and untraced call.
        self.reference_s: List[float] = []
        self.untraced: List[Call] = []
        self.traced: List[Call] = []
        self.accuracy = None

    @property
    def speed_factor(self) -> float:
        """Scale from this run's host speed to the reference speed."""
        return REFERENCE_LOOP_S / median(self.reference_s)


def reference_loop() -> float:
    """Seconds for a fixed interpreter-and-numpy loop no program change can alter."""
    values = numpy.random.default_rng(0).random(200_000)
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * 7) % 13
    for _ in range(4):
        numpy.sort(values)
    return time.perf_counter() - t0


def measure(workload, seed, seconds, trace, reference) -> Measurement:
    """Set up, then run calls until the time budget is spent."""
    m = Measurement(trace)
    while len(m.setup_s) < MAX_SETUPS and (
        not m.setup_s or sum(m.setup_s) + m.setup_s[-1] <= SETUP_BUDGET_S
    ):
        m.inputs = None
        gc.collect()
        m.reference_s.append(reference_loop())
        with Probes(m.recorder):
            t0 = time.perf_counter()
            m.inputs = workload.setup(seed)
            m.setup_s.append(time.perf_counter() - t0)

    start = time.perf_counter()
    while True:
        m.reference_s.append(reference_loop())
        call = run_call(workload, m.inputs, seed, reference)
        if m.accuracy is None and call.ok and not trace:
            m.accuracy = workload.accuracy(m.inputs, call.outcome)
        m.untraced.append(call)
        if trace:
            traced = run_call(workload, m.inputs, seed, reference, m.recorder)
            if traced.outcome and call.outcome and traced.outcome.counters != call.outcome.counters:
                traced.problems.append("tracing changed the work counters")
            m.traced.append(traced)
        # Drop outputs once checked, so memory does not depend on how
        # many calls fit in the run.
        for c in m.untraced[-1:] + m.traced[-1:]:
            if c.outcome:
                c.outcome.release()
        last = sum(c.outcome.seconds for c in (m.untraced[-1:] + m.traced[-1:]) if c.outcome)
        if time.perf_counter() - start + last > seconds:
            break
    return m


def usable(calls):
    """The calls whose timings count: the passing ones, else any that returned."""
    return [c for c in calls if c.ok] or [c for c in calls if c.outcome]


def end_to_end(m: Measurement):
    good = usable(m.untraced)
    if not good or m.accuracy is None:
        return {}
    scale = m.speed_factor
    latencies = [x for c in good for x in c.outcome.latencies_s]
    position_m, time_min = m.accuracy
    return {
        "setup_s": median(m.setup_s) * scale,
        "run_s": median([c.outcome.seconds for c in good]) * scale,
        "window_latency_p50_ms": quantile(latencies, 0.5) * 1e3 * scale,
        "window_latency_p90_ms": quantile(latencies, 0.9) * 1e3 * scale,
        "position_error_m": position_m,
        "time_error_min": time_min,
        # The first call's mark: later calls add allocator retention from
        # repeating the call, which a process that calls once never sees.
        "peak_rss_mb": good[0].outcome.peak_kb / 1024.0,
    }


def per_layer(m: Measurement):
    recorder, untraced, traced = m.recorder, m.untraced, m.traced
    good = usable(traced)
    rows = []
    for call in good:
        spans = [s for s in recorder.spans if s.run == call.traced_run]
        rows.append(layer_metrics(LayerTotals(spans), call.outcome.counters, call.outcome.ipc_bytes))
    values = {name: median([row[name] for row in rows]) for name in rows[0]} if rows else {}
    setup_spans = [s for s in recorder.spans if s.run == 0 and s.name == "cdr.synthesize"]
    values["cdr.synthesize_s"] = median([s.duration_ns / 1e9 for s in setup_spans])
    traced_s = median([c.outcome.seconds for c in good])
    untraced_s = median([c.outcome.seconds for c in usable(untraced)])
    values["trace.run_s"] = traced_s
    values["trace.untraced_run_s"] = untraced_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    pin_environment(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    reference = spec["workloads"][workload.name].get("reference_digest")

    from repro.core import kernels

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"kernel tier {kernels.COMPILED_TIER} (expected {spec['expected_tier']})  "
          f"cpus {os.cpu_count()}  numpy {numpy.__version__}  python {platform.python_version()}")
    if kernels.COMPILED_TIER != spec["expected_tier"]:
        # Never compare one kernel tier's timings against another's.
        calls, values, setups = [Call(None, ["kernel tier differs from the expected tier"])], {}, 0
    else:
        warm_up()
        m = measure(workload, args.seed, args.seconds, args.trace, reference)
        calls, setups = (m.traced if args.trace else m.untraced), len(m.setup_s)
        values = per_layer(m) if args.trace else end_to_end(m)
        raw_run = median([c.outcome.seconds for c in usable(m.untraced)])
        print(f"raw set-up {median(m.setup_s):.4f} s  raw run {raw_run:.4f} s  "
              f"reference loop {median(m.reference_s) * 1e3:.2f} ms "
              f"(speed factor {m.speed_factor:.4f})")
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}

    attempted = sum(c.operations for c in calls)
    failed = sum(c.operations for c in calls if not c.ok)
    digest_state = "checked" if reference else "none"
    if reference and args.seed != DEFAULT_SEED:
        digest_state = f"skipped (reference is for seed {DEFAULT_SEED})"
    print(f"set-ups {setups}  calls {len(calls)}  operations {attempted}  "
          f"failed {failed} ({failed / attempted:.1%})  reference digest {digest_state}")
    for call in calls:
        for problem in call.problems:
            print(f"FAILED CHECK: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
