"""Fingerprint merging through specialized generalization (Section 6.2).

Merging two fingerprints produces a single generalized fingerprint that
covers both, using the two-stage matching of the paper's Fig. 6a:

1. every sample of the *longer* fingerprint is matched to the sample of
   the shorter one at minimum sample stretch effort (Eq. 1), and all
   samples pointing to the same target are generalized together with it
   (Eq. 12-13);
2. samples of the shorter fingerprint that attracted no match in stage
   one are matched to (and merged into) the stage-one results.

Generalization of a set of samples is the coordinate-wise union of
their bounding rectangles and time intervals: Eq. 12 takes the minimum
lower edge, Eq. 13 stretches the extent to the maximum upper edge.  The
union is associative, so iterating Eq. 12-13 over a group equals one
bulk min/max reduction.

When an accelerated kernel tier is bound (:mod:`repro.core.kernels`),
the whole merge — and the reshape sweep, when asked for — runs as one
native call that reproduces the NumPy code below bit for bit
(DESIGN.md D9); without one, the NumPy code runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core import kernels
from repro.core.config import StretchConfig
from repro.core.fingerprint import Fingerprint
from repro.core.sample import DT, DX, DY, NCOLS, OVERLAP_ATOL, T, X, Y
from repro.core.stretch import stretch_matrix

#: (low, extent) column index pairs for the three generalized axes.
_AXES: Tuple[Tuple[int, int], ...] = ((X, DX), (Y, DY), (T, DT))


def generalize_rows(rows: np.ndarray) -> np.ndarray:
    """Generalize a group of samples into one covering sample (Eq. 12-13).

    ``rows`` is an ``(g, 6)`` array; the result is the ``(6,)`` sample
    whose rectangle and interval cover every row.
    """
    if rows.ndim != 2 or rows.shape[1] != NCOLS or rows.shape[0] == 0:
        raise ValueError(f"expected a non-empty (g, {NCOLS}) group, got shape {rows.shape}")
    out = np.empty(NCOLS, dtype=np.float64)
    for low, ext in _AXES:
        lo = rows[:, low].min()
        hi = (rows[:, low] + rows[:, ext]).max()
        out[low] = lo
        out[ext] = hi - lo
    return out


def merge_sample_arrays(
    long: np.ndarray,
    short: np.ndarray,
    n_long: int,
    n_short: int,
    config: StretchConfig = StretchConfig(),
    reshape: bool = False,
) -> np.ndarray:
    """Two-stage merge of two sample arrays; ``long`` must be the longer one.

    Returns the merged ``(m', 6)`` array with ``m' = `` number of
    distinct ``short`` samples matched in stage one (``m' <= m_short``).
    With ``reshape``, the result is also passed through
    :func:`repro.core.reshape.reshape_sample_array`.
    """
    if long.shape[0] < short.shape[0]:
        raise ValueError("first argument must be the longer fingerprint")
    if kernels.COMPILED_TIER is not None:
        return kernels.merge_samples_arrays(
            long, short, float(n_long), float(n_short),
            config.w_sigma, config.w_tau, config.phi_max_sigma_m, config.phi_max_tau_min,
            reshape, OVERLAP_ATOL,
        )
    merged = merge_sample_arrays_numpy(long, short, n_long, n_short, config)
    if reshape:
        # Imported here: repro.core.reshape imports this module.
        from repro.core.reshape import reshape_sample_array

        merged = reshape_sample_array(merged)
    return merged


def merge_sample_arrays_numpy(
    long: np.ndarray,
    short: np.ndarray,
    n_long: int,
    n_short: int,
    config: StretchConfig = StretchConfig(),
) -> np.ndarray:
    """The NumPy reference of :func:`merge_sample_arrays` (no reshape)."""
    # Stage 1: match each long sample to its cheapest short sample.
    delta = stretch_matrix(long, short, n_long, n_short, config)
    match = delta.argmin(axis=1)  # (m_long,)

    matched_js = np.unique(match)
    merged = np.empty((matched_js.shape[0], NCOLS), dtype=np.float64)
    for out_i, j in enumerate(matched_js):
        group = np.vstack([long[match == j], short[int(j)][None, :]])
        merged[out_i] = generalize_rows(group)

    # Stage 2: fold unmatched short samples into the stage-one results.
    unmatched = np.setdiff1d(np.arange(short.shape[0]), matched_js)
    if unmatched.shape[0]:
        leftovers = short[unmatched]
        delta2 = stretch_matrix(leftovers, merged, n_short, n_long + n_short, config)
        targets = delta2.argmin(axis=1)
        for row, tgt in zip(leftovers, targets):
            merged[int(tgt)] = generalize_rows(np.vstack([merged[int(tgt)][None, :], row[None, :]]))

    order = np.argsort(merged[:, T], kind="stable")
    return merged[order]


def merge_fingerprints(
    a: Fingerprint,
    b: Fingerprint,
    config: StretchConfig = StretchConfig(),
    uid: str = None,
    reshape: bool = False,
) -> Fingerprint:
    """Merge two fingerprints into one hiding ``a.count + b.count`` users.

    The merged fingerprint's sample array covers every sample of both
    inputs (truthfulness is preserved: no fabricated samples, only
    coarsened ones).  With ``reshape`` the temporal-overlap resolution
    of :mod:`repro.core.reshape` runs in the same pass; the result
    equals ``reshape_fingerprint`` of the plain merge.
    """
    if a.m == 0 or b.m == 0:
        raise ValueError("cannot merge empty fingerprints")
    if a.m >= b.m:
        long_fp, short_fp = a, b
    else:
        long_fp, short_fp = b, a
    data = merge_sample_arrays(
        long_fp.data, short_fp.data, long_fp.count, short_fp.count, config, reshape
    )
    return Fingerprint(
        uid if uid is not None else f"{a.uid}+{b.uid}",
        data,
        count=a.count + b.count,
        members=tuple(a.members) + tuple(b.members),
    )


def covers(merged: np.ndarray, original: np.ndarray, atol: float = 1e-9) -> bool:
    """Whether every original sample is covered by some merged sample.

    This is the record-level truthfulness invariant (PPDP principle P2):
    each published sample must contain the true location/time of every
    subscriber it generalizes.  Used by tests and property checks.
    """
    for row in original:
        lo_ok = (
            (merged[:, X] <= row[X] + atol)
            & (merged[:, Y] <= row[Y] + atol)
            & (merged[:, T] <= row[T] + atol)
        )
        hi_ok = (
            (merged[:, X] + merged[:, DX] >= row[X] + row[DX] - atol)
            & (merged[:, Y] + merged[:, DY] >= row[Y] + row[DY] - atol)
            & (merged[:, T] + merged[:, DT] >= row[T] + row[DT] - atol)
        )
        if not bool((lo_ok & hi_ok).any()):
            return False
    return True
