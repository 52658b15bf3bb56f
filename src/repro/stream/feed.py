"""Event-feed adapter: replay a fingerprint dataset as a CDR stream.

A live deployment would consume call detail records from a message
bus; the reproduction's stand-in replays any in-memory
:class:`~repro.core.dataset.FingerprintDataset` as a totally ordered
sequence of :class:`StreamEvent` — one event per original-granularity
sample, carrying the subscriber's pseudo-identifier and the full
``(6,)`` sample row, so windows can reassemble fingerprints that are
bit-for-bit equal to the batch input (the anchor invariant of
DESIGN.md D7 depends on this).

Arrival order is the sample start time; an optional bounded jitter
(``max_jitter_min``, seeded) delays each event's *arrival* by up to
that many minutes without touching its recorded timestamp, simulating
the out-of-order delivery a real feed exhibits.  The window manager's
watermark (:mod:`repro.stream.windows`) absorbs any disorder up to its
``max_lag_min``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.core.dataset import FingerprintDataset
from repro.core.sample import NCOLS, T


@dataclass(frozen=True)
class StreamEvent:
    """One replayed CDR event.

    Attributes
    ----------
    uid:
        Pseudo-identifier of the subscriber the sample belongs to.
    t:
        Recorded sample start time, minutes from the dataset epoch
        (``row[T]``, duplicated for cheap access).
    row:
        The full ``(6,)`` sample row (``x, dx, y, dy, t, dt``).
    """

    uid: str
    t: float
    row: np.ndarray


class ReplayFeed:
    """A materialized, arrival-ordered replay of a dataset.

    Stores the event table as flat arrays (uids list + ``(n, 6)`` row
    block in arrival order) so a feed is cheap to pickle — it is the
    value of the ``feed`` pipeline stage (:meth:`Pipeline.feed`) — and
    iterates as :class:`StreamEvent` objects.
    """

    def __init__(self, uids: List[str], rows: np.ndarray, name: str = "feed"):
        if rows.ndim != 2 or rows.shape[1] != NCOLS:
            raise ValueError(f"feed rows must have shape (n, {NCOLS}), got {rows.shape}")
        if len(uids) != rows.shape[0]:
            raise ValueError(f"{len(uids)} uids for {rows.shape[0]} rows")
        self.uids = list(uids)
        self.rows = np.ascontiguousarray(rows, dtype=np.float64)
        self.name = str(name)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __iter__(self) -> Iterator[StreamEvent]:
        for uid, row in zip(self.uids, self.rows):
            yield StreamEvent(uid=uid, t=float(row[T]), row=row)

    @property
    def n_users(self) -> int:
        """Distinct subscribers appearing in the feed."""
        return len(set(self.uids))

    def time_extent(self) -> tuple:
        """``(t_min, t_max)`` of the recorded sample start times."""
        if len(self) == 0:
            return (0.0, 0.0)
        t = self.rows[:, T]
        return (float(t.min()), float(t.max()))


def replay_dataset(
    dataset: FingerprintDataset,
    max_jitter_min: float = 0.0,
    seed: int = 0,
    name: str = None,
) -> ReplayFeed:
    """Flatten a dataset into an arrival-ordered :class:`ReplayFeed`.

    Events are ordered by recorded sample time plus a per-event arrival
    jitter drawn uniformly from ``[0, max_jitter_min)`` (deterministic
    in ``seed``); ties preserve dataset order, so with zero jitter the
    replay is the unique stable time-ordering of the input samples.

    Only ungrouped populations can be replayed: a fingerprint with
    ``count > 1`` is already a published group, not a raw CDR source,
    and raises ``ValueError``.
    """
    if max_jitter_min < 0:
        raise ValueError(f"max_jitter_min must be non-negative, got {max_jitter_min}")
    grouped = [fp.uid for fp in dataset if fp.count != 1]
    if grouped:
        raise ValueError(
            f"cannot replay grouped fingerprints (count > 1): {grouped[:3]!r}; "
            "feeds carry raw per-subscriber events"
        )
    uids: List[str] = []
    blocks: List[np.ndarray] = []
    for fp in dataset:
        uids.extend([fp.uid] * fp.m)
        blocks.append(fp.data)
    rows = (
        np.concatenate(blocks, axis=0) if blocks else np.empty((0, NCOLS), dtype=np.float64)
    )
    arrival = rows[:, T].copy()
    if max_jitter_min > 0 and rows.shape[0]:
        rng = np.random.default_rng(seed)
        arrival = arrival + rng.uniform(0.0, max_jitter_min, size=rows.shape[0])
    order = np.argsort(arrival, kind="stable")
    return ReplayFeed(
        [uids[int(i)] for i in order],
        rows[order],
        name=name or f"{dataset.name}-feed",
    )
