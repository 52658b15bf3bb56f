"""Repeatable end-to-end benchmark of the GLOVE reproduction.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  The workloads,
their inputs and the layers each one loads are recorded in
``perfbench/spec.json``; the metric names and bounds in the root
``BENCHMARK.json``.

* :mod:`perfbench.spans` -- in-memory span recording and self-time
  accounting;
* :mod:`perfbench.layers` -- the hooks installed around the program's
  public layer functions (spans in traced runs; the latency, memory
  and matrix probes the end-to-end metrics need in every run);
* :mod:`perfbench.workloads` -- the four workloads: input synthesis,
  the one timed call, correctness checks and accuracy;
* :mod:`perfbench.run` -- the command: environment pinning, set-up,
  the measured loop and the result line.
"""
