"""Configuration of the stretch-effort metric and of GLOVE.

The paper fixes two saturation thresholds for the loss-of-accuracy
functions (footnote 3): ``phi_max_sigma`` = 20 km and ``phi_max_tau`` =
8 hours.  Beyond these values a sample is considered uninformative and
the corresponding loss function saturates at 1.  The ratio between the
two thresholds also sets the space/time exchange rate: a spatial
generalization of ~0.5 km weighs as much as a temporal generalization
of ~15 min.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

#: Fingerprints per broadcast chunk in the bulk stretch kernels; bounds
#: the peak memory of a kernel invocation.  Single source of truth —
#: :mod:`repro.core.pairwise` and :class:`ComputeConfig` both read it.
DEFAULT_CHUNK = 256


def env_float(name: str, default: Union[int, float]) -> float:
    """A float environment knob that degrades, never errors.

    Tuning knobs read from the environment (cache bounds, benchmark
    scales) must not crash a CLI on a typo: a malformed value falls
    back to the documented default with a one-line warning (the
    DESIGN.md D6 contract).  Flags that *select semantics* still
    validate strictly — this helper is for knobs only.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return float(default)
    try:
        return float(raw)
    except ValueError:
        print(
            f"warning: ignoring malformed {name}={raw!r}; "
            f"using default {default:g}",
            file=sys.stderr,
        )
        return float(default)


def env_int(name: str, default: int) -> int:
    """Integer twin of :func:`env_float`: degrade to default, warn once."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return int(default)
    try:
        return int(raw)
    except ValueError:
        print(
            f"warning: ignoring malformed {name}={raw!r}; "
            f"using default {default}",
            file=sys.stderr,
        )
        return int(default)


@dataclass(frozen=True)
class ComputeConfig:
    """Configuration of the stretch-compute substrate.

    Selects and parameterizes the :class:`repro.core.engine.StretchEngine`
    backend that executes the bulk Eq. 10 evaluations.  Kept separate
    from :class:`GloveConfig` on purpose: the latter describes *what* to
    compute (the anonymization semantics), this class describes *how*
    (which hardware tier, how much memory, whether to prune).  Two runs
    that differ only in their ``ComputeConfig`` produce byte-identical
    results.

    Attributes
    ----------
    backend:
        Name of a registered compute backend: ``"numpy"`` (single
        process, chunked broadcasting), ``"compiled"`` (JIT/C scalar
        kernels over the same padded layout; requires the ``[compiled]``
        extra or a system C compiler), ``"process"`` (multi-core pool),
        ``"auto"`` (pick by workload size, preferring the compiled tier
        when available), or ``"sharded"`` (partition the population,
        anonymize shards concurrently, repair the boundaries).  All
        tiers are byte-identical (DESIGN.md D9).  Extensible through
        :func:`repro.core.engine.register_backend`.
    chunk:
        Fingerprints per broadcast chunk in the bulk kernels.
    workers:
        Process-pool size for the ``process`` backend and shard-level
        pool size for the ``sharded`` backend; ``None`` means
        ``min(cpu_count, 8)``.
    shards:
        Shard count of the ``sharded`` backend; ``None`` picks one from
        the population size (roughly one shard per
        :data:`repro.core.shard.AUTO_SHARD_TARGET` fingerprints).
        Ignored by the other backends.
    shard_strategy:
        Population partitioning rule of the ``sharded`` backend:
        ``"time"`` (activity-midpoint locality, the default) or
        ``"hash"`` (deterministic uid hash, the locality-free
        fallback).
    pruning:
        Enable the bounding-box lower-bound pruning of exact Eq. 10
        evaluations in the GLOVE nearest-neighbour search.  Pruning is
        exact (never changes results); disable only for debugging or
        benchmarking the unpruned path.
    lb_bucket_minutes:
        Width of the time buckets of the level-1 lower bound (per-slot
        spatial hulls per time bucket).
    lb_max_buckets:
        Cap on the number of time buckets per slot (bucket width is
        stretched when the recording period is long).
    parallel_matrix_threshold:
        ``auto`` backend: minimum fingerprint count at which full
        pairwise-matrix builds are dispatched to the process pool.
    parallel_targets_threshold:
        ``process``/``auto`` backends: minimum number of targets in a
        one-vs-all call before it is sharded across the pool (below it,
        pool overhead exceeds kernel time and the call runs inline).
    kernel_threads:
        Worker threads splitting a batched multi-probe kernel call in
        the ``compiled`` backend.  Probes are independent, so the split
        is byte-identical by construction at any thread count (DESIGN.md
        D11); the native kernels release the GIL, so threads scale on
        multi-core hosts without process-pool pickling.  ``"auto"``
        resolves to the machine's CPU count at backend construction —
        the safe default for portable configs, since oversubscribing a
        small machine pessimizes (the 1-CPU large_n sweep measured
        18.454 s at 1 thread vs 23.908 s at 8).  ``None`` reads the
        ``REPRO_KERNEL_THREADS`` environment knob (integer or ``auto``,
        default 1).  Composes with shard-level ``workers``: each shard
        process splits its own probe batches.
    """

    backend: str = "auto"
    chunk: int = DEFAULT_CHUNK
    workers: Optional[int] = None
    shards: Optional[int] = None
    shard_strategy: str = "time"
    pruning: bool = True
    lb_bucket_minutes: float = 360.0
    lb_max_buckets: int = 48
    parallel_matrix_threshold: int = 192
    parallel_targets_threshold: int = 4096
    kernel_threads: Optional[Union[int, str]] = None

    def __post_init__(self) -> None:
        if self.chunk < 1:
            raise ValueError(f"chunk must be at least 1, got {self.chunk}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be at least 1 or None, got {self.workers}")
        if self.kernel_threads is not None and self.kernel_threads != "auto":
            if not isinstance(self.kernel_threads, int) or self.kernel_threads < 1:
                raise ValueError(
                    "kernel_threads must be a positive integer, 'auto' or "
                    f"None, got {self.kernel_threads!r}"
                )
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be at least 1 or None, got {self.shards}")
        if self.shard_strategy not in ("time", "hash"):
            raise ValueError(
                f"shard_strategy must be 'time' or 'hash', got {self.shard_strategy!r}"
            )
        if self.lb_bucket_minutes <= 0:
            raise ValueError("lb_bucket_minutes must be positive")
        if self.lb_max_buckets < 1:
            raise ValueError("lb_max_buckets must be at least 1")
        if self.parallel_matrix_threshold < 0 or self.parallel_targets_threshold < 0:
            raise ValueError("parallelism thresholds must be non-negative")


def kernel_threads_arg(value: str) -> Union[int, str]:
    """Argparse type for ``--kernel-threads``: an integer or ``auto``.

    Any other string is a hard usage error (exit 2), matching the
    strict CLI validation policy — only the environment knob degrades
    silently (DESIGN.md D6).
    """
    import argparse

    if value.strip().lower() == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        )


def add_compute_arguments(parser, pruning: bool = False) -> None:
    """Attach the shared compute-substrate flags to an argparse parser.

    Used by the ``glove`` CLI and the ``glove-repro`` experiment runner
    so the substrate surface is declared once.
    """
    from repro.core.engine import available_backends

    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="auto",
        help="stretch-compute backend (default: auto = pick by workload size)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size: process backend (bulk matrix builds, large target "
        "sets) and shard-level concurrency of the sharded backend",
    )
    parser.add_argument(
        "--chunk", type=int, default=None, help="fingerprints per broadcast chunk"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for the sharded backend (default: pick from the "
        "population size; must be at least 1)",
    )
    parser.add_argument(
        "--shard-strategy",
        choices=("time", "hash"),
        default=None,
        help="sharded backend partitioning rule (default: time = "
        "activity-midpoint locality; hash = deterministic uid hash)",
    )
    parser.add_argument(
        "--kernel-threads",
        type=kernel_threads_arg,
        default=None,
        help="worker threads per batched compiled-kernel call: an integer "
        "or 'auto' (= CPU count; a 1-CPU host never splits) (default: "
        "REPRO_KERNEL_THREADS or 1; results are byte-identical at any "
        "thread count)",
    )
    if pruning:
        parser.add_argument(
            "--no-prune",
            action="store_true",
            help="disable lower-bound pruning (identical results, slower)",
        )


def compute_config_from_args(args) -> "ComputeConfig":
    """Build a :class:`ComputeConfig` from parsed compute flags.

    Invalid values exit with status 2 and an ``error:`` line, argparse
    style, instead of a traceback.
    """
    import sys

    kwargs = {"backend": args.backend}
    if getattr(args, "workers", None) is not None:
        kwargs["workers"] = args.workers
    if getattr(args, "chunk", None) is not None:
        kwargs["chunk"] = args.chunk
    if getattr(args, "shards", None) is not None:
        kwargs["shards"] = args.shards
    if getattr(args, "shard_strategy", None) is not None:
        kwargs["shard_strategy"] = args.shard_strategy
    if getattr(args, "kernel_threads", None) is not None:
        kwargs["kernel_threads"] = args.kernel_threads
    if getattr(args, "no_prune", False):
        kwargs["pruning"] = False
    try:
        return ComputeConfig(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


@dataclass(frozen=True)
class StretchConfig:
    """Parameters of the sample/fingerprint stretch effort (Eq. 1-3).

    Attributes
    ----------
    phi_max_sigma_m:
        Spatial saturation threshold in metres (paper: 20 km).  A spatial
        stretch of this magnitude yields the maximum spatial loss of 1.
    phi_max_tau_min:
        Temporal saturation threshold in minutes (paper: 8 hours).
    w_sigma, w_tau:
        Normalization weights of the spatial and temporal contributions
        in Eq. 1.  The paper uses 1/2 and 1/2 so that the sample stretch
        effort lies in [0, 1].

    All four must be finite: every comparison with NaN is false, so a
    NaN would slip past the range checks, and the kernels' order-free
    minima rely on every effort being >= +0 and never NaN (DESIGN.md D9).
    """

    phi_max_sigma_m: float = 20_000.0
    phi_max_tau_min: float = 8.0 * 60.0
    w_sigma: float = 0.5
    w_tau: float = 0.5

    def __post_init__(self) -> None:
        for name in ("phi_max_sigma_m", "phi_max_tau_min", "w_sigma", "w_tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.phi_max_sigma_m <= 0:
            raise ValueError("phi_max_sigma_m must be positive")
        if self.phi_max_tau_min <= 0:
            raise ValueError("phi_max_tau_min must be positive")
        if self.w_sigma < 0 or self.w_tau < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.w_sigma + self.w_tau - 1.0) > 1e-9:
            raise ValueError("w_sigma + w_tau must equal 1 so delta lies in [0, 1]")


@dataclass(frozen=True)
class SuppressionConfig:
    """Thresholds for sample suppression (paper Section 7.1).

    A generalized sample is discarded when its spatial extent exceeds
    ``spatial_threshold_m`` (on either axis) or its temporal extent
    exceeds ``temporal_threshold_min``.  ``None`` disables the
    corresponding check.  The paper's Table 2 uses 15 km and 6 hours.

    ``keep_at_least_one`` prevents a fingerprint from being suppressed
    into nothingness: when every sample of a group exceeds the
    thresholds, the least-stretched one is retained.  The paper reports
    zero discarded fingerprints for GLOVE at its (much larger) dataset
    scale; this safeguard preserves that property at reproduction scale
    (see DESIGN.md).
    """

    spatial_threshold_m: float = None
    temporal_threshold_min: float = None
    keep_at_least_one: bool = True

    def __post_init__(self) -> None:
        if self.spatial_threshold_m is not None and self.spatial_threshold_m <= 0:
            raise ValueError("spatial_threshold_m must be positive or None")
        if self.temporal_threshold_min is not None and self.temporal_threshold_min <= 0:
            raise ValueError("temporal_threshold_min must be positive or None")

    @property
    def enabled(self) -> bool:
        """Whether any suppression threshold is active."""
        return self.spatial_threshold_m is not None or self.temporal_threshold_min is not None


@dataclass(frozen=True)
class GloveConfig:
    """Full GLOVE configuration.

    Attributes
    ----------
    k:
        Target anonymity level: every published fingerprint must hide at
        least ``k`` subscribers.
    stretch:
        Parameters of the stretch-effort metric.
    suppression:
        Optional sample-suppression thresholds applied to the output.
    reshape:
        Whether to run the reshaping pass that resolves temporal overlaps
        in merged fingerprints (paper Fig. 6b).  On by default, as in the
        paper.
    """

    k: int = 2
    stretch: StretchConfig = field(default_factory=StretchConfig)
    suppression: SuppressionConfig = field(default_factory=SuppressionConfig)
    reshape: bool = True

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
