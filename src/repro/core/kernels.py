"""Compiled stretch-kernel tier: JIT Eq. 10 over the padded layout.

The paper's CUDA offload (Section 6.3) maps here to a ``numba``-JIT
scalar kernel operating directly on the ``(N, m_max, 6)`` padded
tensors of :class:`repro.core.pairwise.PaddedFingerprints` /
:class:`repro.core.engine.SlotStore`.  The JIT tier removes the
per-call dispatch and broadcast-temporaries overhead of the NumPy
reference at small target counts (the GLOVE hot loop's regime).

**Byte-identity policy (DESIGN.md D9).**  Every backend must return
bit-for-bit the NumPy reference's results.  The kernels below therefore
replicate the reference's exact operation order:

* elementwise maxima/minima use NumPy's tie rule (``in1 OP in2 ? in1 :
  in2``), and clamps are written as explicit compares so ``-0.0`` can
  never appear where the reference produces ``+0.0``;
* the per-direction means sum a zero-padded width-``max(ma, m_max)``
  vector with a faithful re-implementation of NumPy's pairwise
  summation: sequential below 8 elements, an 8-accumulator unrolled
  tree up to 128, recursive halving above with splits rounded down to a
  multiple of 8 (realized with an explicit stack — numba-friendly, no
  self-recursion).

The module binds three tiers to one kernel definition, best first:

1. ``numba`` — the ``[compiled]`` packaging extra; JITs the pure
   twins below unchanged.
2. ``cc`` — a :mod:`ctypes` binding of the same kernels transliterated
   to C (:mod:`repro.core._ckernel`), built on demand with the system
   compiler; covers containers where the extra cannot be installed.
3. ``pure`` — the undecorated Python twins; always importable, used by
   the parity property tests and as the stand-in when neither
   accelerated tier is available.

The family also carries the per-merge bookkeeping: the Eq. 12-13 merge
with its reshape sweep (``merge_samples_arrays``) and the engine's slot
summaries (``summarize_slots_arrays``), which the callers use only when
an accelerated tier is bound (DESIGN.md D9, "Native merge layer").

``COMPILED_TIER`` names the bound tier (``"numba"``/``"cc"``/``None``)
and ``COMPILED_AVAILABLE`` is true when an accelerated tier is bound —
that is what :class:`repro.core.engine.CompiledBackend` keys on.
"""

from __future__ import annotations

import numpy as np

from repro.core.sample import DT, DX, DY, T, X, Y

try:  # pragma: no cover - exercised via the compiled-parity CI job
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the default container path
    njit = None
    NUMBA_AVAILABLE = False

#: Stack depth for the iterative pairwise summation: each level at
#: least halves ``n``, so 64 frames cover any addressable array.
_PSUM_STACK = 64


def _build_kernels(decorate):
    """Build the kernel family, optionally JIT-decorated.

    Called twice: once undecorated (the always-available pure-Python
    twins) and once under ``numba.njit`` when the extra is installed.
    Both families run the very same source, so parity between them is
    parity between the compiled tier and this file's reference text.
    """

    @decorate
    def psum_leaf(a, lo, n):
        # NumPy's pairwise_sum base cases: sequential below 8 elements,
        # 8 independent accumulators combined as a balanced tree up to
        # the 128-element block size.
        if n < 8:
            res = 0.0
            for i in range(n):
                res += a[lo + i]
            return res
        r0 = a[lo]
        r1 = a[lo + 1]
        r2 = a[lo + 2]
        r3 = a[lo + 3]
        r4 = a[lo + 4]
        r5 = a[lo + 5]
        r6 = a[lo + 6]
        r7 = a[lo + 7]
        i = 8
        while i + 8 <= n:
            r0 += a[lo + i]
            r1 += a[lo + i + 1]
            r2 += a[lo + i + 2]
            r3 += a[lo + i + 3]
            r4 += a[lo + i + 4]
            r5 += a[lo + i + 5]
            r6 += a[lo + i + 6]
            r7 += a[lo + i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            res += a[lo + i]
            i += 1
        return res

    @decorate
    def pairwise_sum(a, lo, n):
        # NumPy's recursive halving (splits rounded down to a multiple
        # of 8) evaluated with an explicit left-first post-order stack.
        if n <= 128:
            return psum_leaf(a, lo, n)
        lo_st = np.empty(_PSUM_STACK, dtype=np.int64)
        n_st = np.empty(_PSUM_STACK, dtype=np.int64)
        state = np.empty(_PSUM_STACK, dtype=np.int8)
        left = np.empty(_PSUM_STACK, dtype=np.float64)
        top = 0
        lo_st[0] = lo
        n_st[0] = n
        state[0] = 0
        ret = 0.0
        while top >= 0:
            nn = n_st[top]
            if nn <= 128:
                ret = psum_leaf(a, lo_st[top], nn)
                top -= 1
                while top >= 0 and state[top] == 2:
                    ret = left[top] + ret
                    top -= 1
                if top >= 0:
                    # Parent was awaiting its left half; store it and
                    # descend into the right half.
                    left[top] = ret
                    state[top] = 2
                    n2 = n_st[top] // 2
                    n2 -= n2 % 8
                    lo_st[top + 1] = lo_st[top] + n2
                    n_st[top + 1] = n_st[top] - n2
                    state[top + 1] = 0
                    top += 1
            else:
                n2 = nn // 2
                n2 -= n2 % 8
                state[top] = 1
                lo_st[top + 1] = lo_st[top]
                n_st[top + 1] = n2
                state[top + 1] = 0
                top += 1
        return ret

    @decorate
    def cross_minima(
        outer, m_o, inner, m_i, w_o, w_i, row_min, col_min,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Row minima of the m_o x m_i Eq. 1 cell matrix into row_min,
        # column minima into col_min; the inner loop runs over the
        # longer side (the C twin's vectorized loop).  Every cell is
        # >= +0 and never NaN, so both minima are order-free.
        for j in range(m_i):
            col_min[j] = np.inf
        for i in range(m_o):
            axi = outer[i, X]
            ayi = outer[i, Y]
            ati = outer[i, T]
            ahx = axi + outer[i, DX]
            ahy = ayi + outer[i, DY]
            aht = ati + outer[i, DT]
            wa_ext = w_o * (outer[i, DX] + outer[i, DY])
            wa_t = w_o * outer[i, DT]
            m = np.inf
            for j in range(m_i):
                bxj = inner[j, X]
                byj = inner[j, Y]
                btj = inner[j, T]
                bhx = bxj + inner[j, DX]
                bhy = byj + inner[j, DY]
                bht = btj + inner[j, DT]
                ux = (ahx if ahx > bhx else bhx) - (axi if axi < bxj else bxj)
                uy = (ahy if ahy > bhy else bhy) - (ayi if ayi < byj else byj)
                ut = (aht if aht > bht else bht) - (ati if ati < btj else btj)
                raw_s = (ux + uy) - (wa_ext + w_i * (inner[j, DX] + inner[j, DY]))
                if not raw_s > 0.0:
                    raw_s = 0.0
                raw_t = ut - (wa_t + w_i * inner[j, DT])
                if not raw_t > 0.0:
                    raw_t = 0.0
                s_term = raw_s / phi_sigma
                if not s_term < 1.0:
                    s_term = 1.0
                t_term = raw_t / phi_tau
                if not t_term < 1.0:
                    t_term = 1.0
                d = w_sigma * s_term + w_tau * t_term
                if d < col_min[j]:
                    col_min[j] = d
                if d < m:
                    m = d
            row_min[i] = m

    @decorate
    def pair_effort(
        a_data, n_a, b_data, mb, n_b,
        scratch_a, scratch_b, pad_width,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # The cell is bitwise symmetric in (a, b) -- the clamps absorb
        # any sign of zero and w_a * x + w_b * y commutes -- so the
        # shorter side is always the outer loop.
        ma = a_data.shape[0]
        w_a = n_a / (n_a + n_b)
        w_b = n_b / (n_a + n_b)
        if ma > mb:
            cross_minima(
                b_data, mb, a_data, ma, w_b, w_a, scratch_b, scratch_a,
                w_sigma, w_tau, phi_sigma, phi_tau,
            )
            res = pairwise_sum(scratch_a, 0, pad_width) / ma
        else:
            cross_minima(
                a_data, ma, b_data, mb, w_a, w_b, scratch_a, scratch_b,
                w_sigma, w_tau, phi_sigma, phi_tau,
            )
            res = pairwise_sum(scratch_b, 0, pad_width) / mb
            if ma == mb:
                res = (pairwise_sum(scratch_a, 0, pad_width) / ma + res) / 2.0
        for i in range(ma):
            scratch_a[i] = 0.0
        for j in range(mb):
            scratch_b[j] = 0.0
        return res

    @decorate
    def one_vs_all_arrays(
        a_data, n_a, data, lengths, counts, targets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        ma = a_data.shape[0]
        m_max = data.shape[1]
        pad_width = ma if ma > m_max else m_max
        scratch_a = np.zeros(pad_width)
        scratch_b = np.zeros(pad_width)
        out = np.empty(targets.shape[0])
        for idx in range(targets.shape[0]):
            t = targets[idx]
            out[idx] = pair_effort(
                a_data, n_a, data[t], lengths[t], float(counts[t]),
                scratch_a, scratch_b, pad_width,
                w_sigma, w_tau, phi_sigma, phi_tau,
            )
        return out

    @decorate
    def pairwise_matrix_arrays(
        data, lengths, counts, w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        n = data.shape[0]
        m_max = data.shape[1]
        scratch_a = np.zeros(m_max)
        scratch_b = np.zeros(m_max)
        mat = np.full((n, n), np.inf)
        for i in range(n - 1):
            a_data = data[i, : lengths[i]]
            n_a = float(counts[i])
            for j in range(i + 1, n):
                v = pair_effort(
                    a_data, n_a, data[j], lengths[j], float(counts[j]),
                    scratch_a, scratch_b, m_max,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                mat[i, j] = v
                mat[j, i] = v
        return mat

    @decorate
    def many_vs_all_arrays(
        p_data, p_lengths, p_counts, data, lengths, counts, targets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Multi-probe face of one_vs_all_arrays over a packed probe
        # batch (ProbeBatch layout): row p is bitwise one_vs_all of
        # probe p.  The scratch vectors are sized to the widest probe's
        # pad width and re-zeroed by pair_effort, so per-pair values
        # are independent of the batch composition.
        P = p_data.shape[0]
        m_max = data.shape[1]
        p_m_max = p_data.shape[1]
        pad_max = p_m_max if p_m_max > m_max else m_max
        scratch_a = np.zeros(pad_max)
        scratch_b = np.zeros(pad_max)
        out = np.empty((P, targets.shape[0]))
        for p in range(P):
            ma = p_lengths[p]
            a_data = p_data[p, :ma]
            n_a = float(p_counts[p])
            pad_width = ma if ma > m_max else m_max
            for idx in range(targets.shape[0]):
                t = targets[idx]
                out[p, idx] = pair_effort(
                    a_data, n_a, data[t], lengths[t], float(counts[t]),
                    scratch_a, scratch_b, pad_width,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
        return out

    @decorate
    def many_vs_some_arrays(
        p_data, p_lengths, p_counts, data, lengths, counts,
        flat_targets, offsets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Ragged twin: probe p evaluates flat_targets[offsets[p] :
        # offsets[p + 1]] (CSR layout), one flat result row.  Same
        # scratch discipline as many_vs_all_arrays.
        P = p_data.shape[0]
        m_max = data.shape[1]
        p_m_max = p_data.shape[1]
        pad_max = p_m_max if p_m_max > m_max else m_max
        scratch_a = np.zeros(pad_max)
        scratch_b = np.zeros(pad_max)
        out = np.empty(flat_targets.shape[0])
        for p in range(P):
            ma = p_lengths[p]
            a_data = p_data[p, :ma]
            n_a = float(p_counts[p])
            pad_width = ma if ma > m_max else m_max
            for idx in range(offsets[p], offsets[p + 1]):
                t = flat_targets[idx]
                out[idx] = pair_effort(
                    a_data, n_a, data[t], lengths[t], float(counts[t]),
                    scratch_a, scratch_b, pad_width,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
        return out

    @decorate
    def interval_gap(a_lo, a_hi, b_lo, b_hi):
        # np.maximum(0.0, np.maximum(a_lo - b_hi, b_lo - a_hi)) with
        # NumPy's tie rule (in1 > in2 ? in1 : in2) written out, so the
        # scalar bound is bitwise the broadcast bound.
        g1 = a_lo - b_hi
        g2 = b_lo - a_hi
        g = g1 if g1 > g2 else g2
        return 0.0 if 0.0 > g else g

    @decorate
    def hull_bound(hull, a, t, w_sigma, w_tau, phi_sigma, phi_tau):
        # Level-0 bound: gap between the (6, cap) component-major hull
        # SoA columns of slots a and t — the scalar twin of
        # StretchEngine.hull_lower_bounds.
        gx = interval_gap(hull[0, a], hull[1, a], hull[0, t], hull[1, t])
        gy = interval_gap(hull[2, a], hull[3, a], hull[2, t], hull[3, t])
        gt = interval_gap(hull[4, a], hull[5, a], hull[4, t], hull[5, t])
        s_term = (gx + gy) / phi_sigma
        if not s_term < 1.0:
            s_term = 1.0
        t_term = gt / phi_tau
        if not t_term < 1.0:
            t_term = 1.0
        return w_sigma * s_term + w_tau * t_term

    @decorate
    def bucket_min(
        data, s, m, bucket_hull, bucket_occ, h, soa, out,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Per-sample minimum of slot s's first m samples against the
        # occupied bucket hulls of slot h (+inf where none is
        # occupied), buckets outer and samples inner over the (6,
        # m_max) SoA copy of the sample hulls -- the C twin's vectorized
        # loop order.  Each sample still folds the buckets in ascending
        # order.
        for i in range(m):
            soa[0, i] = data[s, i, X]
            soa[1, i] = data[s, i, X] + data[s, i, DX]
            soa[2, i] = data[s, i, Y]
            soa[3, i] = data[s, i, Y] + data[s, i, DY]
            soa[4, i] = data[s, i, T]
            soa[5, i] = data[s, i, T] + data[s, i, DT]
            out[i] = np.inf
        for b in range(bucket_occ.shape[1]):
            if not bucket_occ[h, b]:
                continue
            for i in range(m):
                gx = interval_gap(soa[0, i], soa[1, i], bucket_hull[h, b, 0], bucket_hull[h, b, 1])
                gy = interval_gap(soa[2, i], soa[3, i], bucket_hull[h, b, 2], bucket_hull[h, b, 3])
                gt = interval_gap(soa[4, i], soa[5, i], bucket_hull[h, b, 4], bucket_hull[h, b, 5])
                s_term = (gx + gy) / phi_sigma
                if not s_term < 1.0:
                    s_term = 1.0
                t_term = gt / phi_tau
                if not t_term < 1.0:
                    t_term = 1.0
                v = w_sigma * s_term + w_tau * t_term
                if not out[i] < v:
                    out[i] = v

    @decorate
    def bucket_bound(
        data, lengths, bucket_hull, bucket_occ, a, c, lbbuf, soa,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Level-1 bound: samples vs per-time-bucket hulls following
        # Eq. 10's longer-side rule — the scalar twin of
        # StretchEngine.bucket_lower_bounds.  The a-side direction
        # means a's per-sample minima over c's buckets; the c-side
        # direction sums c's minima over the probe's buckets as a
        # zero-padded width-m_max vector, replicating the reference's
        # block-composition-independent masked mean.
        ma = lengths[a]
        mc = lengths[c]
        m_max = data.shape[1]
        la = 0.0
        lb = 0.0
        if ma >= mc:
            bucket_min(
                data, a, ma, bucket_hull, bucket_occ, c, soa, lbbuf,
                w_sigma, w_tau, phi_sigma, phi_tau,
            )
            la = pairwise_sum(lbbuf, 0, ma) / ma
        if mc >= ma:
            bucket_min(
                data, c, mc, bucket_hull, bucket_occ, a, soa, lbbuf,
                w_sigma, w_tau, phi_sigma, phi_tau,
            )
            for j in range(mc, m_max):
                lbbuf[j] = 0.0
            lb = pairwise_sum(lbbuf, 0, m_max) / mc
        if ma > mc:
            return la
        if mc > ma:
            return lb
        return (la + lb) / 2.0

    @decorate
    def stable_argsort(keys, idx, tmp):
        # Bottom-up stable mergesort of indices by key.  A stable sort's
        # permutation is unique, so this matches np.argsort(kind="stable")
        # exactly — the property the walkers' visit order relies on.
        n = keys.shape[0]
        for i in range(n):
            idx[i] = i
        width = 1
        while width < n:
            lo = 0
            while lo < n:
                mid = lo + width
                if mid > n:
                    mid = n
                hi = lo + 2 * width
                if hi > n:
                    hi = n
                i = lo
                j = mid
                k = lo
                while i < mid and j < hi:
                    # Take from the right run only on a strict key win:
                    # equal keys keep their left-first (stable) order.
                    if keys[idx[j]] < keys[idx[i]]:
                        tmp[k] = idx[j]
                        j += 1
                    else:
                        tmp[k] = idx[i]
                        i += 1
                    k += 1
                while i < mid:
                    tmp[k] = idx[i]
                    i += 1
                    k += 1
                while j < hi:
                    tmp[k] = idx[j]
                    j += 1
                    k += 1
                lo = hi
            for i in range(n):
                idx[i] = tmp[i]
            width *= 2

    @decorate
    def bounded_many_vs_some_arrays(
        probe_slots, data, lengths, counts,
        hull, bucket_hull, bucket_occ,
        flat_targets, offsets, thresholds, reverse, best_vals,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Fused bound-and-prune ragged sweep (CSR layout like
        # many_vs_some_arrays, but slot-addressed: probes are slot ids
        # into the same store tensors, because both bound levels need
        # the probe's hull and bucket summaries).  Each probe walks its
        # targets in level-0 bound order and runs the exact kernel only
        # where the level-0 then level-1 bound could still beat the
        # probe's running best (seeded from thresholds[p]) or — where
        # reverse allows — strictly beat the target's own cached best
        # (best_vals[t]).  Pruned positions get a +inf sentinel (exact
        # efforts never exceed 1.0, so the sentinel is unambiguous) and
        # count into the per-probe pruned total.
        P = probe_slots.shape[0]
        m_max = data.shape[1]
        out = np.empty(flat_targets.shape[0])
        pruned = np.zeros(P, dtype=np.int64)
        n_max = 0
        for p in range(P):
            n = offsets[p + 1] - offsets[p]
            if n > n_max:
                n_max = n
        lb0 = np.empty(n_max)
        order = np.empty(n_max, dtype=np.int64)
        tmp = np.empty(n_max, dtype=np.int64)
        scratch_a = np.zeros(m_max)
        scratch_b = np.zeros(m_max)
        lbbuf = np.empty(m_max)
        soa = np.empty((6, m_max))
        for p in range(P):
            a = probe_slots[p]
            ma = lengths[a]
            a_data = data[a, :ma]
            n_a = float(counts[a])
            off = offsets[p]
            n = offsets[p + 1] - off
            if n == 0:
                continue
            for idx in range(n):
                lb0[idx] = hull_bound(
                    hull, a, flat_targets[off + idx],
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
            stable_argsort(lb0[:n], order[:n], tmp[:n])
            best = thresholds[p]
            best_idx = np.int64(-1)
            for k in range(n):
                j = order[k]
                t = flat_targets[off + j]
                rev = reverse[off + j] != 0
                lb = lb0[j]
                if lb > best and ((not rev) or lb >= best_vals[t]):
                    out[off + j] = np.inf
                    pruned[p] += 1
                    continue
                lb1 = bucket_bound(
                    data, lengths, bucket_hull, bucket_occ, a, t, lbbuf, soa,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                if lb1 > best and ((not rev) or lb1 >= best_vals[t]):
                    out[off + j] = np.inf
                    pruned[p] += 1
                    continue
                v = pair_effort(
                    a_data, n_a, data[t], lengths[t], float(counts[t]),
                    scratch_a, scratch_b, m_max,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                out[off + j] = v
                if v < best or (v == best and t < best_idx):
                    best = v
                    best_idx = t
        return out, pruned

    @decorate
    def bounded_many_vs_all_arrays(
        probe_slots, data, lengths, counts,
        hull, bucket_hull, bucket_occ,
        targets, thresholds,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Fused sweep with in-kernel (argmin, min) reduction over one
        # shared target set — for callers that only need the winner, so
        # no row is materialized at all.  Same walk as the ragged entry
        # minus reverse propagation; a probe meeting itself in the
        # shared set is skipped without counting as pruned.  Returns
        # (best, best_idx, pruned); a probe whose threshold no target
        # strictly beats keeps (thresholds[p], -1).
        P = probe_slots.shape[0]
        n = targets.shape[0]
        m_max = data.shape[1]
        best_out = np.empty(P)
        best_idx_out = np.empty(P, dtype=np.int64)
        pruned = np.zeros(P, dtype=np.int64)
        lb0 = np.empty(n)
        order = np.empty(n, dtype=np.int64)
        tmp = np.empty(n, dtype=np.int64)
        scratch_a = np.zeros(m_max)
        scratch_b = np.zeros(m_max)
        lbbuf = np.empty(m_max)
        soa = np.empty((6, m_max))
        for p in range(P):
            a = probe_slots[p]
            ma = lengths[a]
            a_data = data[a, :ma]
            n_a = float(counts[a])
            for idx in range(n):
                lb0[idx] = hull_bound(
                    hull, a, targets[idx], w_sigma, w_tau, phi_sigma, phi_tau
                )
            stable_argsort(lb0, order, tmp)
            best = thresholds[p]
            best_idx = np.int64(-1)
            for k in range(n):
                j = order[k]
                t = targets[j]
                if t == a:
                    continue
                if lb0[j] > best:
                    pruned[p] += 1
                    continue
                lb1 = bucket_bound(
                    data, lengths, bucket_hull, bucket_occ, a, t, lbbuf, soa,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                if lb1 > best:
                    pruned[p] += 1
                    continue
                v = pair_effort(
                    a_data, n_a, data[t], lengths[t], float(counts[t]),
                    scratch_a, scratch_b, m_max,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                if v < best or (v == best and t < best_idx):
                    best = v
                    best_idx = t
            best_out[p] = best
            best_idx_out[p] = best_idx
        return best_out, best_idx_out, pruned

    # ---- the merge layer (Eq. 12-13, Fig. 6) and slot summaries -----
    # Sample columns come in (low, extent) pairs — X/DX, Y/DY, T/DT at
    # 2c, 2c+1 — and the hulls in matching (low, high) pairs, so one
    # loop over the three axes c serves every column.

    @decorate
    def cell_effort(a, i, b, j, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau):
        # One Eq. 1 cell of repro.core.stretch.stretch_matrix, same
        # operation order (the argmin callers only compare cells, so
        # clamp signs of zero cannot matter).
        ahx = a[i, X] + a[i, DX]
        bhx = b[j, X] + b[j, DX]
        ahy = a[i, Y] + a[i, DY]
        bhy = b[j, Y] + b[j, DY]
        aht = a[i, T] + a[i, DT]
        bht = b[j, T] + b[j, DT]
        ux = (ahx if ahx > bhx else bhx) - (a[i, X] if a[i, X] < b[j, X] else b[j, X])
        uy = (ahy if ahy > bhy else bhy) - (a[i, Y] if a[i, Y] < b[j, Y] else b[j, Y])
        ut = (aht if aht > bht else bht) - (a[i, T] if a[i, T] < b[j, T] else b[j, T])
        raw_s = (ux + uy) - (w_a * (a[i, DX] + a[i, DY]) + w_b * (b[j, DX] + b[j, DY]))
        if not raw_s > 0.0:
            raw_s = 0.0
        raw_t = ut - (w_a * a[i, DT] + w_b * b[j, DT])
        if not raw_t > 0.0:
            raw_t = 0.0
        s_term = raw_s / phi_sigma
        if not s_term < 1.0:
            s_term = 1.0
        t_term = raw_t / phi_tau
        if not t_term < 1.0:
            t_term = 1.0
        return w_sigma * s_term + w_tau * t_term

    @decorate
    def cell_argmin(a, i, b, mb, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau):
        # Row argmin over b[:mb] with NumPy's rule: the lowest index
        # among equal minima wins (a later cell must be strictly lower).
        best = cell_effort(a, i, b, 0, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau)
        best_j = 0
        for j in range(1, mb):
            d = cell_effort(a, i, b, j, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau)
            if d < best:
                best = d
                best_j = j
        return best_j

    @decorate
    def merge_samples_arrays(
        long, short, n_long, n_short,
        w_sigma, w_tau, phi_sigma, phi_tau, reshape, atol,
    ):
        # Two-stage merge of repro.core.merge.merge_sample_arrays (and,
        # with reshape, reshape_sample_array of its result), bit for
        # bit.  Stage 1's grouped generalization only takes minima and
        # maxima of edges, which are exact, so its order is free.
        # Stage 2's is not: every leftover is priced against the
        # stage-1 rows, then the leftovers fold in one at a time, each
        # fold recomputing the upper edge as low + extent of the
        # previous fold — and lo + (hi - lo) need not be hi.
        ml = long.shape[0]
        ms = short.shape[0]
        w_a = n_long / (n_long + n_short)
        w_b = n_short / (n_long + n_short)
        # Stage 1: group bounds seeded with each short sample, as
        # (lo_x, hi_x, lo_y, hi_y, lo_t, hi_t); target[j] doubles as
        # the hit flag (1 once any long sample matched j).
        acc = np.empty((ms, 6))
        target = np.zeros(ms, dtype=np.int64)
        for j in range(ms):
            for c in range(3):
                acc[j, 2 * c] = short[j, 2 * c]
                acc[j, 2 * c + 1] = short[j, 2 * c] + short[j, 2 * c + 1]
        for i in range(ml):
            j = cell_argmin(long, i, short, ms, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau)
            target[j] = 1
            for c in range(3):
                lo = long[i, 2 * c]
                hi = lo + long[i, 2 * c + 1]
                if lo < acc[j, 2 * c]:
                    acc[j, 2 * c] = lo
                if hi > acc[j, 2 * c + 1]:
                    acc[j, 2 * c + 1] = hi
        merged = np.empty((ms, 6))
        n = 0
        for j in range(ms):
            if target[j]:
                for c in range(3):
                    merged[n, 2 * c] = acc[j, 2 * c]
                    merged[n, 2 * c + 1] = acc[j, 2 * c + 1] - acc[j, 2 * c]
                n += 1
        # Stage 2: price every leftover first (target[j] >= 0), then
        # fold in ascending leftover order.
        n_b2 = n_long + n_short
        w_a2 = n_short / (n_short + n_b2)
        w_b2 = n_b2 / (n_short + n_b2)
        for j in range(ms):
            if target[j]:
                target[j] = -1
            else:
                target[j] = cell_argmin(
                    short, j, merged, n, w_a2, w_b2, w_sigma, w_tau, phi_sigma, phi_tau
                )
        for j in range(ms):
            k = target[j]
            if k < 0:
                continue
            for c in range(3):
                lo = merged[k, 2 * c]
                hi = lo + merged[k, 2 * c + 1]
                s_lo = short[j, 2 * c]
                s_hi = s_lo + short[j, 2 * c + 1]
                if s_lo < lo:
                    lo = s_lo
                if s_hi > hi:
                    hi = s_hi
                merged[k, 2 * c] = lo
                merged[k, 2 * c + 1] = hi - lo
        # Stable sort by interval start.
        keys = np.empty(n)
        for r in range(n):
            keys[r] = merged[r, T]
        order = np.empty(n, dtype=np.int64)
        tmp = np.empty(n, dtype=np.int64)
        stable_argsort(keys, order, tmp)
        out = np.empty((n, 6))
        for r in range(n):
            for c in range(6):
                out[r, c] = merged[order[r], c]
        if not reshape or n < 2:
            return out
        # Reshape: every run of temporally overlapping rows becomes its
        # generalization; runs are contiguous and emitted in order, so
        # row g overwrites only rows the sweep has passed.
        g = 0
        start = 0
        end = out[0, T] + out[0, DT]
        for r in range(1, n + 1):
            if r < n and out[r, T] < end - atol:
                e = out[r, T] + out[r, DT]
                if e > end:
                    end = e
                continue
            if r - start == 1:
                for c in range(6):
                    out[g, c] = out[start, c]
            else:
                for c in range(3):
                    lo = out[start, 2 * c]
                    hi = lo + out[start, 2 * c + 1]
                    for q in range(start + 1, r):
                        v = out[q, 2 * c]
                        if v < lo:
                            lo = v
                        v = v + out[q, 2 * c + 1]
                        if v > hi:
                            hi = v
                    out[g, 2 * c] = lo
                    out[g, 2 * c + 1] = hi - lo
            g += 1
            if r < n:
                start = r
                end = out[r, T] + out[r, DT]
        return out[:g].copy()

    @decorate
    def summarize_slots_arrays(
        data, lengths, slots, edges, hull, bucket_hull, bucket_occ,
    ):
        # StretchEngine._summarize for every slot in `slots`: the global
        # hull column of the (6, cap) SoA hull, the per-bucket hulls
        # (a sample belongs to every bucket its closed interval
        # touches; unoccupied buckets stay at +-inf) and the occupancy
        # mask.  Occupied time ranges are clamped to their bucket.
        n_buckets = edges.shape[0] - 1
        for p in range(slots.shape[0]):
            s = slots[p]
            for b in range(n_buckets):
                for c in range(3):
                    bucket_hull[s, b, 2 * c] = np.inf
                    bucket_hull[s, b, 2 * c + 1] = -np.inf
                bucket_occ[s, b] = False
            for c in range(6):
                hull[c, s] = np.inf if c % 2 == 0 else -np.inf
            for i in range(lengths[s]):
                for c in range(3):
                    lo = data[s, i, 2 * c]
                    hi = lo + data[s, i, 2 * c + 1]
                    if lo < hull[2 * c, s]:
                        hull[2 * c, s] = lo
                    if hi > hull[2 * c + 1, s]:
                        hull[2 * c + 1, s] = hi
                t_lo = data[s, i, T]
                t_hi = t_lo + data[s, i, DT]
                for b in range(n_buckets):
                    if t_lo <= edges[b + 1] and t_hi >= edges[b]:
                        bucket_occ[s, b] = True
                        for c in range(3):
                            lo = data[s, i, 2 * c]
                            hi = lo + data[s, i, 2 * c + 1]
                            if lo < bucket_hull[s, b, 2 * c]:
                                bucket_hull[s, b, 2 * c] = lo
                            if hi > bucket_hull[s, b, 2 * c + 1]:
                                bucket_hull[s, b, 2 * c + 1] = hi
            for b in range(n_buckets):
                if edges[b] > bucket_hull[s, b, 4]:
                    bucket_hull[s, b, 4] = edges[b]
                if edges[b + 1] < bucket_hull[s, b, 5]:
                    bucket_hull[s, b, 5] = edges[b + 1]

    return (
        pairwise_sum,
        one_vs_all_arrays,
        pairwise_matrix_arrays,
        many_vs_all_arrays,
        many_vs_some_arrays,
        bounded_many_vs_all_arrays,
        bounded_many_vs_some_arrays,
        merge_samples_arrays,
        summarize_slots_arrays,
    )


# Pure-Python twins: always importable, used by the parity property
# tests (and as the stand-in bindings below when no accelerated tier
# is available).
(
    pairwise_sum_py,
    one_vs_all_pure,
    pairwise_matrix_pure,
    many_vs_all_pure,
    many_vs_some_pure,
    bounded_many_vs_all_pure,
    bounded_many_vs_some_pure,
    merge_samples_pure,
    summarize_slots_pure,
) = _build_kernels(lambda f: f)


def _bind_cc():
    """ctypes wrappers over the system-compiled library, or ``None``.

    Every array reaches C as a raw address (DESIGN.md D9, "Crossing
    cost").  Buffers the kernels read or write in place — the store
    tensors, packed probes, bound summaries and bucket edges — go
    through ``_ckernel.address``, which refuses a wrong dtype or a
    strided buffer.  Inputs that live for one call (probe ids, targets,
    thresholds, CSR offsets, reverse flags, best values, merge sides)
    are made contiguous first, so a strided view is copied, and each
    copy stays bound to a local name until the C call returns: the
    address of an unnamed temporary would dangle.  Outputs allocated
    here need no check.

    The bounded sweeps and the slot summaries also accept ``owned``:
    the addresses of the store and summary buffers, resolved once by
    their owners where the buffers are allocated (``SlotStore`` and
    ``StretchEngine``), in the order the arrays are passed.  The
    wrapper then skips resolving those buffers per call and trusts that
    ``owned`` belongs to the arrays passed with it.  ``_ckernel.address``
    is looked up at call time, so a replacement helper (the resolution
    counter of ``tests/core/test_crossings.py``) sees every lookup.
    """
    from repro.core import _ckernel

    lib = _ckernel.LIB
    if lib is None:
        return None
    F64, I64, BOOL = _ckernel.F64, _ckernel.I64, _ckernel.BOOL

    def one_vs_all_cc(
        a_data, n_a, data, lengths, counts, targets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        addr = _ckernel.address
        a_data = np.ascontiguousarray(a_data)
        targets = np.ascontiguousarray(targets)
        out = np.empty(targets.shape[0], dtype=np.float64)
        rc = lib.glove_one_vs_all(
            addr(a_data, F64), a_data.shape[0], float(n_a),
            addr(data, F64), data.shape[1], addr(lengths, I64), addr(counts, I64),
            addr(targets, I64), targets.shape[0],
            w_sigma, w_tau, phi_sigma, phi_tau, out.ctypes.data,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return out

    def pairwise_matrix_cc(
        data, lengths, counts, w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        addr = _ckernel.address
        n = data.shape[0]
        mat = np.full((n, n), np.inf, dtype=np.float64)
        rc = lib.glove_pairwise_matrix(
            addr(data, F64), n, data.shape[1], addr(lengths, I64), addr(counts, I64),
            w_sigma, w_tau, phi_sigma, phi_tau, mat.ctypes.data,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return mat

    def many_vs_all_cc(
        p_data, p_lengths, p_counts, data, lengths, counts, targets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        addr = _ckernel.address
        out = np.empty((p_data.shape[0], targets.shape[0]), dtype=np.float64)
        if out.size == 0:
            return out
        targets = np.ascontiguousarray(targets)
        rc = lib.glove_many_vs_all(
            addr(p_data, F64), p_data.shape[1],
            addr(p_lengths, I64), addr(p_counts, I64), p_data.shape[0],
            addr(data, F64), data.shape[1], addr(lengths, I64), addr(counts, I64),
            addr(targets, I64), targets.shape[0],
            w_sigma, w_tau, phi_sigma, phi_tau, out.ctypes.data,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return out

    def many_vs_some_cc(
        p_data, p_lengths, p_counts, data, lengths, counts,
        flat_targets, offsets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        addr = _ckernel.address
        out = np.empty(flat_targets.shape[0], dtype=np.float64)
        if out.size == 0:
            return out
        flat_targets = np.ascontiguousarray(flat_targets)
        offsets = np.ascontiguousarray(offsets)
        rc = lib.glove_many_vs_some(
            addr(p_data, F64), p_data.shape[1],
            addr(p_lengths, I64), addr(p_counts, I64), p_data.shape[0],
            addr(data, F64), data.shape[1], addr(lengths, I64), addr(counts, I64),
            addr(flat_targets, I64), addr(offsets, I64),
            w_sigma, w_tau, phi_sigma, phi_tau, out.ctypes.data,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return out

    def bounded_many_vs_all_cc(
        probe_slots, data, lengths, counts,
        hull, bucket_hull, bucket_occ,
        targets, thresholds,
        w_sigma, w_tau, phi_sigma, phi_tau, *, owned=None,
    ):
        addr = _ckernel.address
        P = probe_slots.shape[0]
        best = np.empty(P, dtype=np.float64)
        best_idx = np.empty(P, dtype=np.int64)
        pruned = np.zeros(P, dtype=np.int64)
        if P == 0:
            return best, best_idx, pruned
        if owned is None:
            owned = (
                addr(data, F64), addr(lengths, I64), addr(counts, I64),
                addr(hull, F64), addr(bucket_hull, F64), addr(bucket_occ, BOOL),
            )
        data_a, lengths_a, counts_a, hull_a, bhull_a, bocc_a = owned
        probe_slots = np.ascontiguousarray(probe_slots)
        targets = np.ascontiguousarray(targets)
        thresholds = np.ascontiguousarray(thresholds)
        rc = lib.glove_bounded_many_vs_all(
            addr(probe_slots, I64), P,
            data_a, data.shape[1], lengths_a, counts_a,
            hull_a, hull.shape[1], bhull_a, bocc_a, bucket_occ.shape[1],
            addr(targets, I64), targets.shape[0], addr(thresholds, F64),
            w_sigma, w_tau, phi_sigma, phi_tau,
            best.ctypes.data, best_idx.ctypes.data, pruned.ctypes.data,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return best, best_idx, pruned

    def bounded_many_vs_some_cc(
        probe_slots, data, lengths, counts,
        hull, bucket_hull, bucket_occ,
        flat_targets, offsets, thresholds, reverse, best_vals,
        w_sigma, w_tau, phi_sigma, phi_tau, *, owned=None,
    ):
        addr = _ckernel.address
        P = probe_slots.shape[0]
        out = np.empty(flat_targets.shape[0], dtype=np.float64)
        pruned = np.zeros(P, dtype=np.int64)
        if P == 0 or out.size == 0:
            return out, pruned
        if owned is None:
            owned = (
                addr(data, F64), addr(lengths, I64), addr(counts, I64),
                addr(hull, F64), addr(bucket_hull, F64), addr(bucket_occ, BOOL),
            )
        data_a, lengths_a, counts_a, hull_a, bhull_a, bocc_a = owned
        probe_slots = np.ascontiguousarray(probe_slots)
        flat_targets = np.ascontiguousarray(flat_targets)
        offsets = np.ascontiguousarray(offsets)
        thresholds = np.ascontiguousarray(thresholds)
        reverse = np.ascontiguousarray(reverse)
        best_vals = np.ascontiguousarray(best_vals)
        rc = lib.glove_bounded_many_vs_some(
            addr(probe_slots, I64), P,
            data_a, data.shape[1], lengths_a, counts_a,
            hull_a, hull.shape[1], bhull_a, bocc_a, bucket_occ.shape[1],
            addr(flat_targets, I64), addr(offsets, I64),
            addr(thresholds, F64), addr(reverse, BOOL), addr(best_vals, F64),
            w_sigma, w_tau, phi_sigma, phi_tau,
            out.ctypes.data, pruned.ctypes.data,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return out, pruned

    def merge_samples_cc(
        long, short, n_long, n_short,
        w_sigma, w_tau, phi_sigma, phi_tau, reshape, atol,
    ):
        addr = _ckernel.address
        long = np.ascontiguousarray(long)
        short = np.ascontiguousarray(short)
        # The merge never yields more rows than the shorter side has.
        out = np.empty((short.shape[0], 6), dtype=np.float64)
        n_out = lib.glove_merge_samples(
            addr(long, F64), long.shape[0], addr(short, F64), short.shape[0],
            float(n_long), float(n_short),
            w_sigma, w_tau, phi_sigma, phi_tau,
            int(bool(reshape)), float(atol), out.ctypes.data,
        )
        if n_out < 0:
            raise MemoryError("merge kernel scratch allocation failed")
        return out[:n_out]

    def summarize_slots_cc(
        data, lengths, slots, edges, hull, bucket_hull, bucket_occ, *, owned=None,
    ):
        # Writes in place, so the summary arrays must already be the
        # engine's own contiguous buffers: address() refuses anything
        # else rather than let the kernel fill a copy.
        addr = _ckernel.address
        if owned is None:
            owned = (
                addr(data, F64), addr(lengths, I64), addr(edges, F64),
                addr(hull, F64), addr(bucket_hull, F64), addr(bucket_occ, BOOL),
            )
        data_a, lengths_a, edges_a, hull_a, bhull_a, bocc_a = owned
        slots = np.ascontiguousarray(slots)
        lib.glove_summarize_slots(
            data_a, data.shape[1], lengths_a,
            addr(slots, I64), slots.shape[0],
            edges_a, edges.shape[0] - 1,
            hull_a, hull.shape[1], bhull_a, bocc_a,
        )

    return (
        one_vs_all_cc,
        pairwise_matrix_cc,
        many_vs_all_cc,
        many_vs_some_cc,
        bounded_many_vs_all_cc,
        bounded_many_vs_some_cc,
        merge_samples_cc,
        summarize_slots_cc,
    )


if NUMBA_AVAILABLE:  # pragma: no cover - exercised via compiled-parity CI
    COMPILED_TIER = "numba"
    # nogil: the kernels touch no Python objects, so JIT-compiled calls
    # release the GIL — the property the engine's intra-batch thread
    # splitter relies on (same as ctypes calls on the cc tier).
    (
        _,
        one_vs_all_arrays,
        pairwise_matrix_arrays,
        many_vs_all_arrays,
        many_vs_some_arrays,
        bounded_many_vs_all_arrays,
        bounded_many_vs_some_arrays,
        merge_samples_arrays,
        summarize_slots_arrays,
    ) = _build_kernels(njit(cache=True, nogil=True))
else:
    _cc = _bind_cc()
    if _cc is not None:
        COMPILED_TIER = "cc"
        (
            one_vs_all_arrays,
            pairwise_matrix_arrays,
            many_vs_all_arrays,
            many_vs_some_arrays,
            bounded_many_vs_all_arrays,
            bounded_many_vs_some_arrays,
            merge_samples_arrays,
            summarize_slots_arrays,
        ) = _cc
    else:
        COMPILED_TIER = None
        one_vs_all_arrays = one_vs_all_pure
        pairwise_matrix_arrays = pairwise_matrix_pure
        many_vs_all_arrays = many_vs_all_pure
        many_vs_some_arrays = many_vs_some_pure
        bounded_many_vs_all_arrays = bounded_many_vs_all_pure
        bounded_many_vs_some_arrays = bounded_many_vs_some_pure
        merge_samples_arrays = merge_samples_pure
        summarize_slots_arrays = summarize_slots_pure

#: True when an accelerated binding (numba or cc) backs the ``compiled``
#: backend; the pure twins alone do not qualify.
COMPILED_AVAILABLE = COMPILED_TIER is not None
