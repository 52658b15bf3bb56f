"""System-compiler binding of the stretch kernels (the ``cc`` tier).

:mod:`repro.core.kernels` defines the scalar Eq. 10 kernels once and
binds them to the fastest available tier: ``numba`` when the
``[compiled]`` extra is installed, otherwise — via this module — a
shared library built on demand with the system C compiler and called
through :mod:`ctypes`.  The C text below is a line-for-line
transliteration of the pure-Python kernels (same operation order, same
tie rules, same pairwise summation), compiled with ``-ffp-contract=off``
so no FMA contraction or reassociation can change a result bit.

The build is content-addressed: the shared object is cached under the
artifact root (``default_artifact_dir()/ckernel``) keyed by a digest of
the C source and flags, the machine architecture, the compiler and its
version, and the CPU model, so each source revision compiles exactly
once per machine and a shared root never serves another CPU's build.
Every failure mode — no compiler, compile error, load error,
``REPRO_CC_KERNEL=0`` — degrades to ``LIB = None`` and the callers fall
back to the pure tier.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import struct
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional

from repro.core.artifacts import default_artifact_dir

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define NCOLS 6
#define XCOL 0
#define DXCOL 1
#define YCOL 2
#define DYCOL 3
#define TCOL 4
#define DTCOL 5

/* NumPy's pairwise summation: sequential below 8 elements, an
 * 8-accumulator unrolled tree up to the 128-element block size,
 * recursive halving above with the split rounded down to a multiple
 * of 8.  Identical operation order => identical bits. */
static double psum(const double *a, int64_t n)
{
    if (n <= 128) {
        if (n < 8) {
            double res = 0.0;
            for (int64_t i = 0; i < n; i++)
                res += a[i];
            return res;
        }
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i = 8;
        for (; i + 8 <= n; i += 8) {
            r0 += a[i];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return psum(a, n2) + psum(a + n2, n - n2);
}

/* One Eq. 10 effort.  Ternaries mirror NumPy's maximum/minimum tie
 * rule (in1 OP in2 ? in1 : in2) so -0.0 never replaces the
 * reference's +0.0.  The inner loop is branchless struct-of-arrays
 * over the longer side: when ma > mb the two sides swap, which is
 * bitwise free because the cell is symmetric in (a, b) -- the clamps
 * absorb any sign of zero and w_a*x + w_b*y commutes.  Every cell is
 * >= +0 and never NaN (the clamps yield +0, phi > 0, the weights are
 * >= 0), so both minima give the same bits in any order: the row
 * minimum is an OpenMP SIMD min reduction fused into the cell loop and
 * the column minima are per-lane selects (FMA contraction is disabled
 * by the build flags).  sa/sb must hold pad_width zeros on entry and
 * are re-zeroed before returning; tb needs 8*t_stride scratch doubles
 * (t_stride >= max(ma, mb)) for the hoisted inner-side precomputes. */
static double pair_effort(
    const double *a, int64_t ma, double n_a,
    const double *b, int64_t mb, double n_b,
    double *sa, double *sb, double *restrict tb,
    int64_t t_stride, int64_t pad_width,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double w_a = n_a / (n_a + n_b);
    double w_b = n_b / (n_a + n_b);
    if (ma > mb) {
        const double *p = a; a = b; b = p;
        int64_t m = ma; ma = mb; mb = m;
        double w = w_a; w_a = w_b; w_b = w;
        double *s = sa; sa = sb; sb = s;
    }
    /* The slices are disjoint (mb <= t_stride), so restrict holds. */
    double *restrict t_bx = tb;
    double *restrict t_bhx = tb + t_stride;
    double *restrict t_by = tb + 2 * t_stride;
    double *restrict t_bhy = tb + 3 * t_stride;
    double *restrict t_bt = tb + 4 * t_stride;
    double *restrict t_bht = tb + 5 * t_stride;
    double *restrict t_wbe = tb + 6 * t_stride;
    double *restrict t_wbt = tb + 7 * t_stride;
    double *restrict col = sb;
    for (int64_t j = 0; j < mb; j++) {
        const double *br = b + j * NCOLS;
        col[j] = INFINITY;
        t_bx[j] = br[XCOL];
        t_bhx[j] = br[XCOL] + br[DXCOL];
        t_by[j] = br[YCOL];
        t_bhy[j] = br[YCOL] + br[DYCOL];
        t_bt[j] = br[TCOL];
        t_bht[j] = br[TCOL] + br[DTCOL];
        t_wbe[j] = w_b * (br[DXCOL] + br[DYCOL]);
        t_wbt[j] = w_b * br[DTCOL];
    }
    for (int64_t i = 0; i < ma; i++) {
        const double *ar = a + i * NCOLS;
        double axi = ar[XCOL], ayi = ar[YCOL], ati = ar[TCOL];
        double ahx = axi + ar[DXCOL];
        double ahy = ayi + ar[DYCOL];
        double aht = ati + ar[DTCOL];
        double wa_ext = w_a * (ar[DXCOL] + ar[DYCOL]);
        double wa_t = w_a * ar[DTCOL];
        double row_min = INFINITY;
#pragma omp simd reduction(min:row_min)
        for (int64_t j = 0; j < mb; j++) {
            double bxj = t_bx[j], bhx = t_bhx[j];
            double byj = t_by[j], bhy = t_bhy[j];
            double btj = t_bt[j], bht = t_bht[j];
            double ux = (ahx > bhx ? ahx : bhx) - (axi < bxj ? axi : bxj);
            double uy = (ahy > bhy ? ahy : bhy) - (ayi < byj ? ayi : byj);
            double ut = (aht > bht ? aht : bht) - (ati < btj ? ati : btj);
            double raw_s = (ux + uy) - (wa_ext + t_wbe[j]);
            raw_s = raw_s > 0.0 ? raw_s : 0.0;
            double raw_t = ut - (wa_t + t_wbt[j]);
            raw_t = raw_t > 0.0 ? raw_t : 0.0;
            double s_term = raw_s / phi_sigma;
            s_term = s_term < 1.0 ? s_term : 1.0;
            double t_term = raw_t / phi_tau;
            t_term = t_term < 1.0 ? t_term : 1.0;
            double d = w_sigma * s_term + w_tau * t_term;
            col[j] = d < col[j] ? d : col[j];
            row_min = d < row_min ? d : row_min;
        }
        sa[i] = row_min;
    }
    /* After the swap ma <= mb: the result is the longer side's mean,
     * or the average of both directions at equal lengths. */
    double mean_b = psum(sb, pad_width) / (double)mb;
    double res = mean_b;
    if (ma == mb)
        res = (psum(sa, pad_width) / (double)ma + mean_b) / 2.0;
    for (int64_t i = 0; i < ma; i++)
        sa[i] = 0.0;
    for (int64_t j = 0; j < mb; j++)
        sb[j] = 0.0;
    return res;
}

int glove_one_vs_all(
    const double *a_data, int64_t ma, double n_a,
    const double *data, int64_t m_max,
    const int64_t *lengths, const int64_t *counts,
    const int64_t *targets, int64_t n_targets,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *out)
{
    int64_t pad_width = ma > m_max ? ma : m_max;
    double *sa = calloc((size_t)pad_width, sizeof(double));
    double *sb = calloc((size_t)pad_width, sizeof(double));
    double *tb = malloc((size_t)(8 * pad_width) * sizeof(double));
    if (sa == NULL || sb == NULL || tb == NULL) {
        free(sa);
        free(sb);
        free(tb);
        return -1;
    }
    for (int64_t idx = 0; idx < n_targets; idx++) {
        int64_t t = targets[idx];
        out[idx] = pair_effort(
            a_data, ma, n_a,
            data + t * m_max * NCOLS, lengths[t], (double)counts[t],
            sa, sb, tb, pad_width, pad_width,
            w_sigma, w_tau, phi_sigma, phi_tau);
    }
    free(sa);
    free(sb);
    free(tb);
    return 0;
}

/* Batched multi-probe entry points: one boundary crossing per probe
 * batch instead of one per probe.  Probes arrive as their own padded
 * (n_probes, p_m_max, NCOLS) tensor (the ProbeBatch layout); each
 * probe's pad width is max(p_len, m_max) exactly as in the per-probe
 * entry, and the scratch vectors are sized to the widest probe and
 * re-zeroed by pair_effort, so every output value is bitwise the
 * per-probe call's.  Scratch is allocated per call, never shared, so
 * concurrent calls from GIL-released threads are safe. */
int glove_many_vs_all(
    const double *p_data, int64_t p_m_max,
    const int64_t *p_lengths, const int64_t *p_counts, int64_t n_probes,
    const double *data, int64_t m_max,
    const int64_t *lengths, const int64_t *counts,
    const int64_t *targets, int64_t n_targets,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *out)
{
    int64_t pad_max = p_m_max > m_max ? p_m_max : m_max;
    double *sa = calloc((size_t)pad_max, sizeof(double));
    double *sb = calloc((size_t)pad_max, sizeof(double));
    double *tb = malloc((size_t)(8 * pad_max) * sizeof(double));
    if (sa == NULL || sb == NULL || tb == NULL) {
        free(sa);
        free(sb);
        free(tb);
        return -1;
    }
    for (int64_t p = 0; p < n_probes; p++) {
        const double *a = p_data + p * p_m_max * NCOLS;
        int64_t ma = p_lengths[p];
        double n_a = (double)p_counts[p];
        int64_t pad_width = ma > m_max ? ma : m_max;
        double *row = out + p * n_targets;
        for (int64_t idx = 0; idx < n_targets; idx++) {
            int64_t t = targets[idx];
            row[idx] = pair_effort(
                a, ma, n_a,
                data + t * m_max * NCOLS, lengths[t], (double)counts[t],
                sa, sb, tb, pad_max, pad_width,
                w_sigma, w_tau, phi_sigma, phi_tau);
        }
    }
    free(sa);
    free(sb);
    free(tb);
    return 0;
}

/* Ragged twin: probe p evaluates flat_targets[offsets[p] ..
 * offsets[p+1]) into the same flat positions of out (CSR layout). */
int glove_many_vs_some(
    const double *p_data, int64_t p_m_max,
    const int64_t *p_lengths, const int64_t *p_counts, int64_t n_probes,
    const double *data, int64_t m_max,
    const int64_t *lengths, const int64_t *counts,
    const int64_t *flat_targets, const int64_t *offsets,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *out)
{
    int64_t pad_max = p_m_max > m_max ? p_m_max : m_max;
    double *sa = calloc((size_t)pad_max, sizeof(double));
    double *sb = calloc((size_t)pad_max, sizeof(double));
    double *tb = malloc((size_t)(8 * pad_max) * sizeof(double));
    if (sa == NULL || sb == NULL || tb == NULL) {
        free(sa);
        free(sb);
        free(tb);
        return -1;
    }
    for (int64_t p = 0; p < n_probes; p++) {
        const double *a = p_data + p * p_m_max * NCOLS;
        int64_t ma = p_lengths[p];
        double n_a = (double)p_counts[p];
        int64_t pad_width = ma > m_max ? ma : m_max;
        for (int64_t idx = offsets[p]; idx < offsets[p + 1]; idx++) {
            int64_t t = flat_targets[idx];
            out[idx] = pair_effort(
                a, ma, n_a,
                data + t * m_max * NCOLS, lengths[t], (double)counts[t],
                sa, sb, tb, pad_max, pad_width,
                w_sigma, w_tau, phi_sigma, phi_tau);
        }
    }
    free(sa);
    free(sb);
    free(tb);
    return 0;
}

/* ---- fused bound-and-prune sweep ----------------------------------
 * Transliteration of the bounded_* pure twins: the level-0 hull-gap
 * bound and the level-1 per-time-bucket bound are evaluated inside the
 * native sweep, and the exact kernel runs only for candidates whose
 * bound could still beat the probe's running best (or, where the
 * reverse flag allows, the target's cached best).  Every comparison
 * replicates NumPy's maximum/minimum tie rule, every mean runs the
 * same pairwise summation over the same (padded) widths, and the walk
 * order is a stable sort by level-0 bound — so evaluated positions and
 * values are bitwise those of the reference walk. */

static double interval_gap(double a_lo, double a_hi, double b_lo, double b_hi)
{
    double g1 = a_lo - b_hi;
    double g2 = b_lo - a_hi;
    double g = g1 > g2 ? g1 : g2;
    return 0.0 > g ? 0.0 : g;
}

static double hull_bound(
    const double *hull, int64_t hull_cap, int64_t a, int64_t t,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double gx = interval_gap(hull[0 * hull_cap + a], hull[1 * hull_cap + a],
                             hull[0 * hull_cap + t], hull[1 * hull_cap + t]);
    double gy = interval_gap(hull[2 * hull_cap + a], hull[3 * hull_cap + a],
                             hull[2 * hull_cap + t], hull[3 * hull_cap + t]);
    double gt = interval_gap(hull[4 * hull_cap + a], hull[5 * hull_cap + a],
                             hull[4 * hull_cap + t], hull[5 * hull_cap + t]);
    double s_term = (gx + gy) / phi_sigma;
    s_term = s_term < 1.0 ? s_term : 1.0;
    double t_term = gt / phi_tau;
    t_term = t_term < 1.0 ? t_term : 1.0;
    return w_sigma * s_term + w_tau * t_term;
}

static double sample_hull_bound(
    double sx, double shx, double sy, double shy, double st, double sht,
    const double *h,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double gx = interval_gap(sx, shx, h[0], h[1]);
    double gy = interval_gap(sy, shy, h[2], h[3]);
    double gt = interval_gap(st, sht, h[4], h[5]);
    double s_term = (gx + gy) / phi_sigma;
    s_term = s_term < 1.0 ? s_term : 1.0;
    double t_term = gt / phi_tau;
    t_term = t_term < 1.0 ? t_term : 1.0;
    return w_sigma * s_term + w_tau * t_term;
}

/* Per-sample minimum of the sample-vs-bucket-hull bound over the
 * occupied buckets of one slot (+inf where none is occupied),
 * vectorized over samples: buckets are the outer loop, so each sample's
 * running minimum is a per-lane select that gcc vectorizes under strict
 * IEEE flags, and each unoccupied bucket is skipped once instead of
 * contributing +inf per sample.  Every sample still folds the buckets
 * in ascending order.  The m sample hulls are copied once into the SoA
 * scratch soa (6 rows of stride m_max). */
static void bucket_min(
    const double *s, int64_t m, const double *hulls, const uint8_t *occ,
    int64_t n_buckets, double *restrict soa, int64_t m_max,
    double *restrict out,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double *restrict sx = soa;
    double *restrict shx = soa + m_max;
    double *restrict sy = soa + 2 * m_max;
    double *restrict shy = soa + 3 * m_max;
    double *restrict st = soa + 4 * m_max;
    double *restrict sht = soa + 5 * m_max;
    for (int64_t i = 0; i < m; i++) {
        const double *r = s + i * NCOLS;
        sx[i] = r[XCOL];
        shx[i] = r[XCOL] + r[DXCOL];
        sy[i] = r[YCOL];
        shy[i] = r[YCOL] + r[DYCOL];
        st[i] = r[TCOL];
        sht[i] = r[TCOL] + r[DTCOL];
        out[i] = INFINITY;
    }
    for (int64_t b = 0; b < n_buckets; b++) {
        if (!occ[b])
            continue;
        const double *h = hulls + b * 6;
        for (int64_t i = 0; i < m; i++) {
            double v = sample_hull_bound(sx[i], shx[i], sy[i], shy[i], st[i], sht[i],
                                         h, w_sigma, w_tau, phi_sigma, phi_tau);
            out[i] = out[i] < v ? out[i] : v;
        }
    }
}

/* Level-1 bound of the (a, c) pair following Eq. 10's longer-side
 * rule.  The a-side direction means a's per-sample minima over c's
 * buckets across ma samples; the c-side direction sums c's minima
 * over a's buckets as a zero-padded width-m_max vector before dividing
 * by mc, replicating the reference's masked mean bit for bit.  lbbuf
 * needs m_max doubles and soa 6*m_max. */
static double bucket_bound(
    const double *data, int64_t m_max, const int64_t *lengths,
    const double *bhull, const uint8_t *bocc, int64_t n_buckets,
    int64_t a, int64_t c, double *lbbuf, double *soa,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    int64_t ma = lengths[a];
    int64_t mc = lengths[c];
    double la = 0.0, lb = 0.0;
    if (ma >= mc) {
        bucket_min(data + a * m_max * NCOLS, ma, bhull + c * n_buckets * 6,
                   bocc + c * n_buckets, n_buckets, soa, m_max, lbbuf,
                   w_sigma, w_tau, phi_sigma, phi_tau);
        la = psum(lbbuf, ma) / (double)ma;
    }
    if (mc >= ma) {
        bucket_min(data + c * m_max * NCOLS, mc, bhull + a * n_buckets * 6,
                   bocc + a * n_buckets, n_buckets, soa, m_max, lbbuf,
                   w_sigma, w_tau, phi_sigma, phi_tau);
        for (int64_t j = mc; j < m_max; j++)
            lbbuf[j] = 0.0;
        lb = psum(lbbuf, m_max) / (double)mc;
    }
    if (ma > mc)
        return la;
    if (mc > ma)
        return lb;
    return (la + lb) / 2.0;
}

/* Bottom-up stable mergesort of indices by key: a stable sort's
 * permutation is unique, so this matches np.argsort(kind="stable"). */
static void stable_argsort(const double *keys, int64_t *idx, int64_t *tmp, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        idx[i] = i;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                /* Right run wins only on a strict key win: equal keys
                 * keep their left-first (stable) order. */
                if (keys[idx[j]] < keys[idx[i]])
                    tmp[k++] = idx[j++];
                else
                    tmp[k++] = idx[i++];
            }
            while (i < mid)
                tmp[k++] = idx[i++];
            while (j < hi)
                tmp[k++] = idx[j++];
        }
        for (int64_t i = 0; i < n; i++)
            idx[i] = tmp[i];
    }
}

/* Fused bound-and-prune ragged sweep (CSR layout; probes are slot ids
 * into the store tensors).  Pruned positions get a +inf sentinel
 * (exact efforts never exceed 1.0) and count into pruned[p]. */
int glove_bounded_many_vs_some(
    const int64_t *probe_slots, int64_t n_probes,
    const double *data, int64_t m_max,
    const int64_t *lengths, const int64_t *counts,
    const double *hull, int64_t hull_cap,
    const double *bhull, const uint8_t *bocc, int64_t n_buckets,
    const int64_t *flat_targets, const int64_t *offsets,
    const double *thresholds, const uint8_t *reverse, const double *best_vals,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *out, int64_t *pruned)
{
    int64_t n_max = 1;
    for (int64_t p = 0; p < n_probes; p++) {
        int64_t n = offsets[p + 1] - offsets[p];
        if (n > n_max)
            n_max = n;
    }
    double *sa = calloc((size_t)m_max, sizeof(double));
    double *sb = calloc((size_t)m_max, sizeof(double));
    double *tb = malloc((size_t)(8 * m_max) * sizeof(double));
    double *lbbuf = malloc((size_t)m_max * sizeof(double));
    double *soa = malloc((size_t)(6 * m_max) * sizeof(double));
    double *lb0 = malloc((size_t)n_max * sizeof(double));
    int64_t *order = malloc((size_t)n_max * sizeof(int64_t));
    int64_t *tmp = malloc((size_t)n_max * sizeof(int64_t));
    if (sa == NULL || sb == NULL || tb == NULL || lbbuf == NULL ||
        soa == NULL || lb0 == NULL || order == NULL || tmp == NULL) {
        free(sa); free(sb); free(tb); free(lbbuf); free(soa);
        free(lb0); free(order); free(tmp);
        return -1;
    }
    for (int64_t p = 0; p < n_probes; p++) {
        int64_t a = probe_slots[p];
        int64_t ma = lengths[a];
        const double *a_data = data + a * m_max * NCOLS;
        double n_a = (double)counts[a];
        int64_t off = offsets[p];
        int64_t n = offsets[p + 1] - off;
        if (n == 0)
            continue;
        for (int64_t idx = 0; idx < n; idx++)
            lb0[idx] = hull_bound(hull, hull_cap, a, flat_targets[off + idx],
                                  w_sigma, w_tau, phi_sigma, phi_tau);
        stable_argsort(lb0, order, tmp, n);
        double best = thresholds[p];
        int64_t best_idx = -1;
        for (int64_t k = 0; k < n; k++) {
            int64_t j = order[k];
            int64_t t = flat_targets[off + j];
            int rev = reverse[off + j] != 0;
            double lb = lb0[j];
            if (lb > best && (!rev || lb >= best_vals[t])) {
                out[off + j] = INFINITY;
                pruned[p]++;
                continue;
            }
            double lb1 = bucket_bound(data, m_max, lengths, bhull, bocc,
                                      n_buckets, a, t, lbbuf, soa,
                                      w_sigma, w_tau, phi_sigma, phi_tau);
            if (lb1 > best && (!rev || lb1 >= best_vals[t])) {
                out[off + j] = INFINITY;
                pruned[p]++;
                continue;
            }
            double v = pair_effort(
                a_data, ma, n_a,
                data + t * m_max * NCOLS, lengths[t], (double)counts[t],
                sa, sb, tb, m_max, m_max,
                w_sigma, w_tau, phi_sigma, phi_tau);
            out[off + j] = v;
            if (v < best || (v == best && t < best_idx)) {
                best = v;
                best_idx = t;
            }
        }
    }
    free(sa); free(sb); free(tb); free(lbbuf); free(soa);
    free(lb0); free(order); free(tmp);
    return 0;
}

/* Fused sweep with in-kernel (argmin, min) reduction over one shared
 * target set: no row materialization at all.  A probe meeting itself
 * in the shared set is skipped without counting as pruned; a probe
 * whose threshold no target strictly beats keeps (threshold, -1). */
int glove_bounded_many_vs_all(
    const int64_t *probe_slots, int64_t n_probes,
    const double *data, int64_t m_max,
    const int64_t *lengths, const int64_t *counts,
    const double *hull, int64_t hull_cap,
    const double *bhull, const uint8_t *bocc, int64_t n_buckets,
    const int64_t *targets, int64_t n_targets,
    const double *thresholds,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *best_out, int64_t *best_idx_out, int64_t *pruned)
{
    int64_t n_max = n_targets > 1 ? n_targets : 1;
    double *sa = calloc((size_t)m_max, sizeof(double));
    double *sb = calloc((size_t)m_max, sizeof(double));
    double *tb = malloc((size_t)(8 * m_max) * sizeof(double));
    double *lbbuf = malloc((size_t)m_max * sizeof(double));
    double *soa = malloc((size_t)(6 * m_max) * sizeof(double));
    double *lb0 = malloc((size_t)n_max * sizeof(double));
    int64_t *order = malloc((size_t)n_max * sizeof(int64_t));
    int64_t *tmp = malloc((size_t)n_max * sizeof(int64_t));
    if (sa == NULL || sb == NULL || tb == NULL || lbbuf == NULL ||
        soa == NULL || lb0 == NULL || order == NULL || tmp == NULL) {
        free(sa); free(sb); free(tb); free(lbbuf); free(soa);
        free(lb0); free(order); free(tmp);
        return -1;
    }
    for (int64_t p = 0; p < n_probes; p++) {
        int64_t a = probe_slots[p];
        int64_t ma = lengths[a];
        const double *a_data = data + a * m_max * NCOLS;
        double n_a = (double)counts[a];
        for (int64_t idx = 0; idx < n_targets; idx++)
            lb0[idx] = hull_bound(hull, hull_cap, a, targets[idx],
                                  w_sigma, w_tau, phi_sigma, phi_tau);
        stable_argsort(lb0, order, tmp, n_targets);
        double best = thresholds[p];
        int64_t best_idx = -1;
        for (int64_t k = 0; k < n_targets; k++) {
            int64_t j = order[k];
            int64_t t = targets[j];
            if (t == a)
                continue;
            if (lb0[j] > best) {
                pruned[p]++;
                continue;
            }
            double lb1 = bucket_bound(data, m_max, lengths, bhull, bocc,
                                      n_buckets, a, t, lbbuf, soa,
                                      w_sigma, w_tau, phi_sigma, phi_tau);
            if (lb1 > best) {
                pruned[p]++;
                continue;
            }
            double v = pair_effort(
                a_data, ma, n_a,
                data + t * m_max * NCOLS, lengths[t], (double)counts[t],
                sa, sb, tb, m_max, m_max,
                w_sigma, w_tau, phi_sigma, phi_tau);
            if (v < best || (v == best && t < best_idx)) {
                best = v;
                best_idx = t;
            }
        }
        best_out[p] = best;
        best_idx_out[p] = best_idx;
    }
    free(sa); free(sb); free(tb); free(lbbuf); free(soa);
    free(lb0); free(order); free(tmp);
    return 0;
}

/* ---- the merge layer (Eq. 12-13, Fig. 6) and slot summaries -------
 * Transliteration of merge_samples_arrays / summarize_slots_arrays.
 * Sample columns come in (low, extent) pairs at 2c, 2c+1 and hulls in
 * (low, high) pairs, so one loop over the axes c serves every column. */

/* One Eq. 1 cell of stretch_matrix, same operation order. */
static double cell_effort(
    const double *a, const double *b, double w_a, double w_b,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double ahx = a[XCOL] + a[DXCOL], bhx = b[XCOL] + b[DXCOL];
    double ahy = a[YCOL] + a[DYCOL], bhy = b[YCOL] + b[DYCOL];
    double aht = a[TCOL] + a[DTCOL], bht = b[TCOL] + b[DTCOL];
    double ux = (ahx > bhx ? ahx : bhx) - (a[XCOL] < b[XCOL] ? a[XCOL] : b[XCOL]);
    double uy = (ahy > bhy ? ahy : bhy) - (a[YCOL] < b[YCOL] ? a[YCOL] : b[YCOL]);
    double ut = (aht > bht ? aht : bht) - (a[TCOL] < b[TCOL] ? a[TCOL] : b[TCOL]);
    double raw_s = (ux + uy) - (w_a * (a[DXCOL] + a[DYCOL]) + w_b * (b[DXCOL] + b[DYCOL]));
    raw_s = raw_s > 0.0 ? raw_s : 0.0;
    double raw_t = ut - (w_a * a[DTCOL] + w_b * b[DTCOL]);
    raw_t = raw_t > 0.0 ? raw_t : 0.0;
    double s_term = raw_s / phi_sigma;
    s_term = s_term < 1.0 ? s_term : 1.0;
    double t_term = raw_t / phi_tau;
    t_term = t_term < 1.0 ? t_term : 1.0;
    return w_sigma * s_term + w_tau * t_term;
}

/* Row argmin over b's mb rows; the lowest index wins ties. */
static int64_t cell_argmin(
    const double *a, const double *b, int64_t mb, double w_a, double w_b,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double best = cell_effort(a, b, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau);
    int64_t best_j = 0;
    for (int64_t j = 1; j < mb; j++) {
        double d = cell_effort(a, b + j * NCOLS, w_a, w_b,
                               w_sigma, w_tau, phi_sigma, phi_tau);
        if (d < best) {
            best = d;
            best_j = j;
        }
    }
    return best_j;
}

/* Two-stage merge (plus the reshape sweep when asked), bit for bit the
 * NumPy merge_sample_arrays / reshape_sample_array.  Stage 1's grouped
 * generalization only takes exact minima and maxima, so its order is
 * free; stage 2 prices every leftover against the stage-1 rows, then
 * folds them one at a time, each fold recomputing the upper edge as
 * low + extent of the previous one (lo + (hi - lo) need not be hi).
 * out needs ms rows; *n_out receives the row count. */
int glove_merge_samples(
    const double *lng, int64_t ml, const double *sht, int64_t ms,
    double n_long, double n_short,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    int64_t reshape, double atol, double *out, int64_t *n_out)
{
    size_t cells = (size_t)(ms > 0 ? ms : 1);
    double *acc = malloc(cells * 2 * NCOLS * sizeof(double));
    int64_t *target = malloc(cells * 3 * sizeof(int64_t));
    if (acc == NULL || target == NULL) {
        free(acc);
        free(target);
        return -1;
    }
    double *merged = acc + cells * NCOLS;
    int64_t *order = target + cells;
    int64_t *tmp = target + 2 * cells;
    double w_a = n_long / (n_long + n_short);
    double w_b = n_short / (n_long + n_short);
    /* Stage 1: group bounds seeded with each short sample; target[j]
     * doubles as the hit flag (1 once any long sample matched j). */
    for (int64_t j = 0; j < ms; j++) {
        const double *s = sht + j * NCOLS;
        for (int c = 0; c < 3; c++) {
            acc[j * NCOLS + 2 * c] = s[2 * c];
            acc[j * NCOLS + 2 * c + 1] = s[2 * c] + s[2 * c + 1];
        }
        target[j] = 0;
    }
    for (int64_t i = 0; i < ml; i++) {
        const double *l = lng + i * NCOLS;
        int64_t j = cell_argmin(l, sht, ms, w_a, w_b,
                                w_sigma, w_tau, phi_sigma, phi_tau);
        target[j] = 1;
        double *g = acc + j * NCOLS;
        for (int c = 0; c < 3; c++) {
            double lo = l[2 * c];
            double hi = lo + l[2 * c + 1];
            if (lo < g[2 * c])
                g[2 * c] = lo;
            if (hi > g[2 * c + 1])
                g[2 * c + 1] = hi;
        }
    }
    int64_t n = 0;
    for (int64_t j = 0; j < ms; j++) {
        if (target[j]) {
            const double *g = acc + j * NCOLS;
            for (int c = 0; c < 3; c++) {
                merged[n * NCOLS + 2 * c] = g[2 * c];
                merged[n * NCOLS + 2 * c + 1] = g[2 * c + 1] - g[2 * c];
            }
            n++;
        }
    }
    /* Stage 2: price every leftover first (target[j] >= 0), then fold
     * in ascending leftover order. */
    double n_b2 = n_long + n_short;
    double w_a2 = n_short / (n_short + n_b2);
    double w_b2 = n_b2 / (n_short + n_b2);
    for (int64_t j = 0; j < ms; j++)
        target[j] = target[j]
            ? -1
            : cell_argmin(sht + j * NCOLS, merged, n, w_a2, w_b2,
                          w_sigma, w_tau, phi_sigma, phi_tau);
    for (int64_t j = 0; j < ms; j++) {
        if (target[j] < 0)
            continue;
        const double *s = sht + j * NCOLS;
        double *d = merged + target[j] * NCOLS;
        for (int c = 0; c < 3; c++) {
            double lo = d[2 * c];
            double hi = lo + d[2 * c + 1];
            double s_lo = s[2 * c];
            double s_hi = s_lo + s[2 * c + 1];
            if (s_lo < lo)
                lo = s_lo;
            if (s_hi > hi)
                hi = s_hi;
            d[2 * c] = lo;
            d[2 * c + 1] = hi - lo;
        }
    }
    /* Stable sort by interval start (the keys reuse acc's first n
     * doubles; merged lives past them). */
    for (int64_t r = 0; r < n; r++)
        acc[r] = merged[r * NCOLS + TCOL];
    stable_argsort(acc, order, tmp, n);
    for (int64_t r = 0; r < n; r++)
        for (int c = 0; c < NCOLS; c++)
            out[r * NCOLS + c] = merged[order[r] * NCOLS + c];
    if (!reshape || n < 2) {
        *n_out = n;
        free(acc);
        free(target);
        return 0;
    }
    /* Reshape: every run of temporally overlapping rows becomes its
     * generalization; runs are contiguous and emitted in order, so
     * row g overwrites only rows the sweep has passed. */
    int64_t g = 0, start = 0;
    double end = out[TCOL] + out[DTCOL];
    for (int64_t r = 1; r <= n; r++) {
        if (r < n && out[r * NCOLS + TCOL] < end - atol) {
            double e = out[r * NCOLS + TCOL] + out[r * NCOLS + DTCOL];
            if (e > end)
                end = e;
            continue;
        }
        if (r - start == 1) {
            for (int c = 0; c < NCOLS; c++)
                out[g * NCOLS + c] = out[start * NCOLS + c];
        } else {
            for (int c = 0; c < 3; c++) {
                double lo = out[start * NCOLS + 2 * c];
                double hi = lo + out[start * NCOLS + 2 * c + 1];
                for (int64_t q = start + 1; q < r; q++) {
                    double v = out[q * NCOLS + 2 * c];
                    if (v < lo)
                        lo = v;
                    v = v + out[q * NCOLS + 2 * c + 1];
                    if (v > hi)
                        hi = v;
                }
                out[g * NCOLS + 2 * c] = lo;
                out[g * NCOLS + 2 * c + 1] = hi - lo;
            }
        }
        g++;
        if (r < n) {
            start = r;
            end = out[r * NCOLS + TCOL] + out[r * NCOLS + DTCOL];
        }
    }
    *n_out = g;
    free(acc);
    free(target);
    return 0;
}

/* StretchEngine._summarize for every slot in slots: the (6, hull_cap)
 * SoA hull column, the per-bucket hulls (a sample joins every bucket
 * its closed interval touches; unoccupied buckets stay at +-inf) and
 * the occupancy mask, with occupied time ranges clamped to the
 * bucket. */
void glove_summarize_slots(
    const double *data, int64_t m_max, const int64_t *lengths,
    const int64_t *slots, int64_t n_slots,
    const double *edges, int64_t n_buckets,
    double *hull, int64_t hull_cap, double *bhull, uint8_t *bocc)
{
    for (int64_t p = 0; p < n_slots; p++) {
        int64_t s = slots[p];
        const double *d = data + s * m_max * NCOLS;
        double *bh = bhull + s * n_buckets * 6;
        uint8_t *occ = bocc + s * n_buckets;
        double h[6] = {INFINITY, -INFINITY, INFINITY, -INFINITY, INFINITY, -INFINITY};
        for (int64_t b = 0; b < n_buckets; b++) {
            for (int c = 0; c < 6; c++)
                bh[b * 6 + c] = h[c];
            occ[b] = 0;
        }
        for (int64_t i = 0; i < lengths[s]; i++) {
            const double *row = d + i * NCOLS;
            double lo[3], hi[3];
            for (int c = 0; c < 3; c++) {
                lo[c] = row[2 * c];
                hi[c] = lo[c] + row[2 * c + 1];
                if (lo[c] < h[2 * c])
                    h[2 * c] = lo[c];
                if (hi[c] > h[2 * c + 1])
                    h[2 * c + 1] = hi[c];
            }
            for (int64_t b = 0; b < n_buckets; b++) {
                if (lo[2] <= edges[b + 1] && hi[2] >= edges[b]) {
                    double *hb = bh + b * 6;
                    occ[b] = 1;
                    for (int c = 0; c < 3; c++) {
                        if (lo[c] < hb[2 * c])
                            hb[2 * c] = lo[c];
                        if (hi[c] > hb[2 * c + 1])
                            hb[2 * c + 1] = hi[c];
                    }
                }
            }
        }
        for (int c = 0; c < 6; c++)
            hull[c * hull_cap + s] = h[c];
        for (int64_t b = 0; b < n_buckets; b++) {
            double *hb = bh + b * 6;
            if (edges[b] > hb[4])
                hb[4] = edges[b];
            if (edges[b + 1] < hb[5])
                hb[5] = edges[b + 1];
        }
    }
}

/* mat must arrive prefilled with +inf (the diagonal stays that way). */
int glove_pairwise_matrix(
    const double *data, int64_t n, int64_t m_max,
    const int64_t *lengths, const int64_t *counts,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *mat)
{
    double *sa = calloc((size_t)m_max, sizeof(double));
    double *sb = calloc((size_t)m_max, sizeof(double));
    double *tb = malloc((size_t)(8 * m_max) * sizeof(double));
    if (sa == NULL || sb == NULL || tb == NULL) {
        free(sa);
        free(sb);
        free(tb);
        return -1;
    }
    for (int64_t i = 0; i + 1 < n; i++) {
        const double *a = data + i * m_max * NCOLS;
        double n_a = (double)counts[i];
        for (int64_t j = i + 1; j < n; j++) {
            double v = pair_effort(
                a, lengths[i], n_a,
                data + j * m_max * NCOLS, lengths[j], (double)counts[j],
                sa, sb, tb, m_max, m_max,
                w_sigma, w_tau, phi_sigma, phi_tau);
            mat[i * n + j] = v;
            mat[j * n + i] = v;
        }
    }
    free(sa);
    free(sb);
    free(tb);
    return 0;
}
"""

#: ``-ffp-contract=off`` forbids FMA contraction — with it off, SIMD
#: add/sub/mul/div/min/max are bit-identical to their scalar forms, so
#: ``-march=native`` vectorization cannot change results; the explicit
#: IEEE flags guard against distributions that alias ``cc`` to
#: something exotic.  Two flags are optional and dropped on compilers
#: that reject them: ``-march=native``, and ``-fopenmp-simd``, which
#: honours the ``omp simd`` min reduction of the exact kernel's row
#: minimum (without it the pragma is ignored: same bits, scalar speed).
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
NATIVE_FLAG = "-march=native"
SIMD_FLAG = "-fopenmp-simd"


def _compiler() -> Optional[str]:
    """The resolved path of the C compiler (``$CC``, default ``cc``)."""
    found = shutil.which(os.environ.get("CC", "cc"))
    return os.path.realpath(found) if found else None


def _compiler_version(compiler: Optional[str]) -> str:
    """First line of ``compiler --version``, or ``""`` when unavailable."""
    if compiler is None:
        return ""
    try:
        out = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.splitlines()[0].strip() if out.strip() else ""


def _cpu_model() -> str:
    """The CPU model name (``/proc/cpuinfo``, else ``platform.processor()``)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip().lower() in ("model name", "cpu model", "cpu part"):
                    return value.strip()
    except OSError:
        pass
    return platform.processor()


def _cache_path(compiler: Optional[str] = None) -> Path:
    """Where the library built from this source on this machine lives.

    ``-march=native`` tunes the binary for the build host's CPU, so the
    digest covers the machine architecture, the resolved compiler and
    its version, and the CPU model besides the source and flags: an
    artifact root shared between hosts never serves a library built
    for another CPU.
    """
    compiler = compiler if compiler is not None else _compiler()
    key = "\0".join((
        C_SOURCE,
        " ".join(CFLAGS),
        NATIVE_FLAG,
        SIMD_FLAG,
        platform.machine(),
        compiler or "",
        _compiler_version(compiler),
        _cpu_model(),
    ))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return default_artifact_dir() / "ckernel" / f"stretch_{digest}.so"


def _compile(cache: Path, compiler: Optional[str]) -> bool:
    if compiler is None:
        return False
    cache.parent.mkdir(parents=True, exist_ok=True)
    # Build in a scratch dir, then rename into place: concurrent
    # processes race benignly (last rename wins, same content).
    with tempfile.TemporaryDirectory(dir=cache.parent) as td:
        src = Path(td) / "stretch.c"
        obj = Path(td) / "stretch.so"
        src.write_text(C_SOURCE)
        for flags in (
            (*CFLAGS, NATIVE_FLAG, SIMD_FLAG),
            (*CFLAGS, SIMD_FLAG),
            (*CFLAGS, NATIVE_FLAG),
            CFLAGS,
        ):
            try:
                subprocess.run(
                    [compiler, *flags, str(src), "-o", str(obj)],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.SubprocessError):
                continue
            os.replace(obj, cache)
            return True
    return False


def _truncated(path: Path) -> bool:
    """Whether an ELF file ends before its own headers say it does.

    ``dlopen`` maps a truncated library's segments past the end of the
    file, and the first touch of that memory kills the process with
    SIGBUS, so a cached library is checked before it is loaded.  A file
    that is not ELF, or too short for an ELF header, is left to
    ``dlopen``, which rejects it with a catchable error.
    """
    size = path.stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(64)
        if len(head) < 64 or head[:4] != b"\x7fELF":
            return False
        end = "<" if head[5] == 1 else ">"
        if head[4] == 2:  # ELF64: p_offset at 8, p_filesz at 32
            word, at_offset, at_filesz = end + "Q", 8, 32
            phoff, shoff = struct.unpack_from(end + "QQ", head, 32)
            phsize, phnum, shsize, shnum = struct.unpack_from(end + "HHHH", head, 54)
        else:  # ELF32: p_offset at 4, p_filesz at 16
            word, at_offset, at_filesz = end + "I", 4, 16
            phoff, shoff = struct.unpack_from(end + "II", head, 28)
            phsize, phnum, shsize, shnum = struct.unpack_from(end + "HHHH", head, 42)
        if phoff + phnum * phsize > size or shoff + shnum * shsize > size:
            return True
        fh.seek(phoff)
        for _ in range(phnum):
            entry = fh.read(phsize)
            (offset,) = struct.unpack_from(word, entry, at_offset)
            (filesz,) = struct.unpack_from(word, entry, at_filesz)
            if offset + filesz > size:
                return True
    return False


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    import numpy.ctypeslib as npc

    f64 = npc.ndpointer(dtype="float64", flags="C_CONTIGUOUS")
    i64 = npc.ndpointer(dtype="int64", flags="C_CONTIGUOUS")
    c_i64 = ctypes.c_int64
    c_f64 = ctypes.c_double
    lib.glove_one_vs_all.restype = ctypes.c_int
    lib.glove_one_vs_all.argtypes = [
        f64, c_i64, c_f64,                 # a_data, ma, n_a
        f64, c_i64,                        # data, m_max
        i64, i64,                          # lengths, counts
        i64, c_i64,                        # targets, n_targets
        c_f64, c_f64, c_f64, c_f64,        # w_sigma, w_tau, phis
        f64,                               # out
    ]
    lib.glove_pairwise_matrix.restype = ctypes.c_int
    lib.glove_pairwise_matrix.argtypes = [
        f64, c_i64, c_i64,                 # data, n, m_max
        i64, i64,                          # lengths, counts
        c_f64, c_f64, c_f64, c_f64,        # w_sigma, w_tau, phis
        f64,                               # mat
    ]
    lib.glove_many_vs_all.restype = ctypes.c_int
    lib.glove_many_vs_all.argtypes = [
        f64, c_i64,                        # p_data, p_m_max
        i64, i64, c_i64,                   # p_lengths, p_counts, n_probes
        f64, c_i64,                        # data, m_max
        i64, i64,                          # lengths, counts
        i64, c_i64,                        # targets, n_targets
        c_f64, c_f64, c_f64, c_f64,        # w_sigma, w_tau, phis
        f64,                               # out
    ]
    lib.glove_many_vs_some.restype = ctypes.c_int
    lib.glove_many_vs_some.argtypes = [
        f64, c_i64,                        # p_data, p_m_max
        i64, i64, c_i64,                   # p_lengths, p_counts, n_probes
        f64, c_i64,                        # data, m_max
        i64, i64,                          # lengths, counts
        i64, i64,                          # flat_targets, offsets
        c_f64, c_f64, c_f64, c_f64,        # w_sigma, w_tau, phis
        f64,                               # out
    ]
    u8 = npc.ndpointer(dtype="uint8", flags="C_CONTIGUOUS")
    lib.glove_bounded_many_vs_some.restype = ctypes.c_int
    lib.glove_bounded_many_vs_some.argtypes = [
        i64, c_i64,                        # probe_slots, n_probes
        f64, c_i64,                        # data, m_max
        i64, i64,                          # lengths, counts
        f64, c_i64,                        # hull, hull_cap
        f64, u8, c_i64,                    # bucket_hull, bucket_occ, n_buckets
        i64, i64,                          # flat_targets, offsets
        f64, u8, f64,                      # thresholds, reverse, best_vals
        c_f64, c_f64, c_f64, c_f64,        # w_sigma, w_tau, phis
        f64, i64,                          # out, pruned
    ]
    lib.glove_bounded_many_vs_all.restype = ctypes.c_int
    lib.glove_bounded_many_vs_all.argtypes = [
        i64, c_i64,                        # probe_slots, n_probes
        f64, c_i64,                        # data, m_max
        i64, i64,                          # lengths, counts
        f64, c_i64,                        # hull, hull_cap
        f64, u8, c_i64,                    # bucket_hull, bucket_occ, n_buckets
        i64, c_i64,                        # targets, n_targets
        f64,                               # thresholds
        c_f64, c_f64, c_f64, c_f64,        # w_sigma, w_tau, phis
        f64, i64, i64,                     # best, best_idx, pruned
    ]
    lib.glove_merge_samples.restype = ctypes.c_int
    lib.glove_merge_samples.argtypes = [
        f64, c_i64, f64, c_i64,            # long, ml, short, ms
        c_f64, c_f64,                      # n_long, n_short
        c_f64, c_f64, c_f64, c_f64,        # w_sigma, w_tau, phis
        c_i64, c_f64,                      # reshape, atol
        f64, i64,                          # out, n_out
    ]
    lib.glove_summarize_slots.restype = None
    lib.glove_summarize_slots.argtypes = [
        f64, c_i64, i64,                   # data, m_max, lengths
        i64, c_i64,                        # slots, n_slots
        f64, c_i64,                        # edges, n_buckets
        f64, c_i64, f64, u8,               # hull, hull_cap, bucket_hull, bucket_occ
    ]
    return lib


def _parity_smoke(lib: ctypes.CDLL) -> bool:
    """Whether ``lib`` agrees bitwise with the pure twins on one fixed
    pair and one bounded sweep.

    The pair's probe is longer than every stored fingerprint, so the
    exact kernel swaps sides and hoists the probe into its scratch; the
    sweep runs both bound levels, the exact kernel and the pruning walk.
    """
    import numpy as np

    # Imported here: kernels binds this module while it is itself still
    # importing, after its pure twins are defined.
    from repro.core.kernels import (
        bounded_many_vs_some_pure,
        one_vs_all_pure,
        summarize_slots_pure,
    )

    # Four slots over three 60-minute buckets: slot 1 repeats two of
    # slot 0's samples, slot 3 is slot 2's coincident twin (both bounds
    # and the effort are +0, so a threshold of 0.0 must not prune it),
    # and slot 2 occupies only the last bucket.
    rows = np.array([
        [0.0, 40.0, 0.0, 40.0, 10.0, 30.0],
        [5000.0, 0.0, 300.0, 0.0, 70.0, 0.0],
        [10000.0, 120.0, 1800.0, 60.0, 150.0, 20.0],
    ])
    data = np.zeros((4, 3, 6))
    data[0] = rows
    data[1, :2] = rows[[0, 2]]
    data[2:, 0] = rows[2]
    lengths = np.array([3, 2, 1, 1], dtype=np.int64)
    counts = np.array([2, 1, 3, 1], dtype=np.int64)
    probe = np.vstack([rows[::-1], [[30000.0, 0.0, 5.0, 10.0, 170.0, 5.0]]])
    args = (0.5, 0.5, 20_000.0, 480.0)
    slots = np.arange(4, dtype=np.int64)
    out = np.empty(4)
    lib.glove_one_vs_all(probe, 4, 2.0, data, 3, lengths, counts, slots, 4, *args, out)
    ref = one_vs_all_pure(probe, 2.0, data, lengths, counts, slots, *args)
    if not np.array_equal(out, ref):
        return False

    edges = np.array([0.0, 60.0, 120.0, 180.0])
    hull = np.empty((6, 4))
    bhull = np.empty((4, 3, 6))
    bocc = np.zeros((4, 3), dtype=bool)
    summarize_slots_pure(data, lengths, slots, edges, hull, bhull, bocc)
    probes = np.array([0, 1, 2], dtype=np.int64)
    flat = np.array([1, 2, 3, 0, 2, 3, 0], dtype=np.int64)
    offsets = np.array([0, 3, 5, 7], dtype=np.int64)
    thresholds = np.array([1.0, 0.05, 0.0])
    reverse = np.array([0, 0, 0, 1, 1, 0, 0], dtype=np.uint8)
    best_vals = np.array([0.2, 0.0, np.inf, np.inf])
    out = np.empty(7)
    pruned = np.zeros(3, dtype=np.int64)
    lib.glove_bounded_many_vs_some(
        probes, 3, data, 3, lengths, counts, hull, 4,
        bhull, bocc.view(np.uint8), 3, flat, offsets,
        thresholds, reverse, best_vals, *args, out, pruned,
    )
    ref_out, ref_pruned = bounded_many_vs_some_pure(
        probes, data, lengths, counts, hull, bhull, bocc,
        flat, offsets, thresholds, reverse.view(bool), best_vals, *args,
    )
    return np.array_equal(out, ref_out) and np.array_equal(pruned, ref_pruned)


def load() -> Optional[ctypes.CDLL]:
    """Compile (once per source revision) and load the shared library.

    Returns ``None`` — and the callers fall back to the pure tier —
    when the tier is disabled via ``REPRO_CC_KERNEL=0`` or any build
    step fails, and also, with a warning, when a cached library fails
    to load or to reproduce the pure twins' bits (:func:`_parity_smoke`).
    """
    if os.environ.get("REPRO_CC_KERNEL", "1") == "0":
        return None
    try:
        compiler = _compiler()
        cache = _cache_path(compiler)
        if not cache.exists() and not _compile(cache, compiler):
            return None
        try:
            if _truncated(cache):
                raise OSError("truncated file")
            lib = _bind(ctypes.CDLL(str(cache)))
        except OSError as exc:
            warnings.warn(
                f"cannot load the cc stretch kernel {cache} ({exc}); "
                "falling back to the pure tier",
                RuntimeWarning,
            )
            return None
        if not _parity_smoke(lib):
            warnings.warn(
                f"the cc stretch kernel {cache} disagrees with the pure "
                "kernels; falling back to the pure tier",
                RuntimeWarning,
            )
            return None
        return lib
    except (OSError, ValueError):
        return None


LIB = load()
