"""Process-pool pairwise matrix build (paper Section 6.3).

The paper observes that "all of [GLOVE's] key calculations are highly
parallelizable".  :func:`parallel_pairwise_matrix` demonstrates it on
the k-gap matrix: probe rows are sharded over a process pool in
blocks, with the packed tensors shipped to each worker once by the
pool initializer.  The GLOVE loop itself runs in-process on the
engine's backends (:mod:`repro.core.engine`); the sharded tier
(:mod:`repro.core.shard`) is its multi-core path.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import DEFAULT_CHUNK, StretchConfig
from repro.core.engine import _effective_workers
from repro.core.fingerprint import Fingerprint
from repro.core.pairwise import PaddedFingerprints, one_vs_all, pairwise_matrix

# Worker-side state, installed once per process by the pool initializer.
_WORKER_PACKED: Optional[PaddedFingerprints] = None
_WORKER_STRETCH: Optional[StretchConfig] = None


def _matrix_init(data, mask, lengths, counts, stretch) -> None:
    global _WORKER_PACKED, _WORKER_STRETCH
    packed = PaddedFingerprints.__new__(PaddedFingerprints)
    packed.data = data
    packed.mask = mask
    packed.lengths = lengths
    packed.counts = counts
    packed.uids = [""] * data.shape[0]
    _WORKER_PACKED = packed
    _WORKER_STRETCH = stretch


def _matrix_row_block(rows: np.ndarray) -> List[np.ndarray]:
    packed = _WORKER_PACKED
    n = len(packed)
    return [
        one_vs_all(
            packed.data[i, : packed.lengths[i]],
            int(packed.counts[i]),
            packed,
            _WORKER_STRETCH,
            indices=np.arange(i + 1, n),
            chunk=DEFAULT_CHUNK,
        )
        for i in map(int, rows)
    ]


def parallel_pairwise_matrix(
    fingerprints: Sequence[Fingerprint],
    config: StretchConfig = StretchConfig(),
    n_workers: Optional[int] = None,
    block: int = 16,
) -> np.ndarray:
    """Pairwise ``Delta`` matrix computed on a process pool.

    Byte-identical to :func:`repro.core.pairwise.pairwise_matrix` (same
    values, ``+inf`` diagonal); probe rows are sharded over
    ``n_workers`` processes (default ``min(cpu_count, 8)``) in blocks
    of ``block`` probes.  Falls back to the sequential kernel for
    trivially small inputs or ``n_workers <= 1``.
    """
    fps = list(fingerprints)
    n = len(fps)
    workers = _effective_workers(n_workers)
    if n < 4 or workers <= 1:
        return pairwise_matrix(fps, config)
    packed = PaddedFingerprints(fps)
    mat = np.full((n, n), np.inf, dtype=np.float64)
    blocks = [np.arange(s, min(s + block, n - 1)) for s in range(0, n - 1, block)]
    # A dedicated pool per build: the initializer broadcast ties the
    # workers to this packed snapshot.
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_matrix_init,
        initargs=(packed.data, packed.mask, packed.lengths, packed.counts, config),
    ) as pool:
        for rows, results in zip(blocks, pool.map(_matrix_row_block, blocks)):
            for i, vals in zip(rows, results):
                mat[i, i + 1 :] = vals
                mat[i + 1 :, i] = vals
    return mat
