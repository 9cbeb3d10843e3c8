"""The one native library: every compiled kernel, compiled once per machine.

The fused ΣΔ cascade (which also serves as the modulator's compiled
loop) and the gateway's frame CRC share one C translation unit
(:data:`SOURCE`), one flag set and one compiler run, loaded through
:mod:`ctypes`. The first call to :func:`library` in a process loads
the compiled library from the per-user cache
(``$XDG_CACHE_HOME/repro-native``, else ``~/.cache/repro-native``) and
compiles only on a miss.

Cache contract:

* One entry per key, ``native-<key>.so``. The key is a SHA-256 over
  the compiled source (:data:`SOURCE` and the key stamp), :data:`CFLAGS`,
  the compiler's resolved path with its size and mtime, and the machine
  type. With no compiler on ``PATH`` there is no key, so a warm cache is
  never used without one.
* A miss compiles into a temporary directory inside the cache, loads the
  result and then ``os.replace``-s it onto the entry's name, so
  concurrent cold builds each publish a complete, identical file and no
  process ever sees a half-written one.
* Every library carries its key (the exported ``repro_native_key()``)
  and ends in the SHA-256 of its preceding bytes. A cached entry is
  used only if that digest matches before loading (``dlopen`` of a
  truncated file can kill the process), the key matches after, and the
  entry and its directory belong to this user and are not group- or
  world-writable. Anything else is rebuilt, never used; where the cache
  cannot be used at all (unsafe or unwritable directory) the library is
  compiled into a plain temporary directory that is removed right after
  loading (the mapping outlives its file on POSIX).
* :func:`build_status` tells which happened: ``"cached"``,
  ``"compiled"`` or ``"failed"``. Entries of other keys are not pruned.

Kernels:

* ``batch_chain_run`` / ``batch_frontend_run`` — the fused lane-block
  chain (with a one-lane instantiation for a solo chain, and a one-lane
  bitstream instantiation behind ``SecondOrderSDM(backend="fast")``)
  and the capacitive front end, taking plain addresses that
  :mod:`repro.batch.kernel` computes once per buffer; built in three ISA
  variants (below);
* ``crc16_rows`` — CRC-16/CCITT-FALSE of row-strided frame bodies, the
  gateway batch plane's frame check (marshalled by
  :mod:`repro.daq.batchdecode`). Integer table steps, exact by
  construction.
* ``sos_cascade`` — one pass of the biquad cascade behind
  :func:`repro.dsp.iir.sosfiltfilt`, the host's cardiac-band and
  artifact low-passes. Single variant, like ``crc16_rows``: one record
  is a serial recurrence with nothing to vectorize.

Every floating-point kernel performs the reference path's IEEE-754
double operations in the same order; ``-ffp-contract=off
-fno-fast-math`` keeps the compiler from fusing or reassociating them,
so results are bit-identical rather than merely close. SIMD across
lanes or samples keeps each element's operation order, so ``-O3``
vectorization does not affect identity. A cached library comes from
the same source, flags and compiler as a fresh build, so it runs the
same machine code; the key stamp leaves the kernels' instruction bytes
as they are without it.

ISA variants: with GCC 12+ on x86-64 glibc the two fused batch kernels
are compiled three times, for baseline x86-64 (SSE2), x86-64-v3 (AVX2)
and x86-64-v4 (AVX-512), as GCC ``target_clones``; the dynamic loader's
ifunc resolver picks one per process from the CPU, and :func:`isa` says
which. One cached library therefore serves every x86-64 host: there is
no ``-march=native`` and nothing about the CPU in the cache key. The
flags above forbid FMA contraction and reassociation at every level, so
each lane performs the same IEEE operations in every variant and the
variants agree bit for bit (``tests/core/test_native.py`` builds each
level separately and compares). Any other platform or compiler builds
the baseline code only. ``crc16_rows`` measured slower built for
x86-64-v4 (best of 200: 0.18 against 0.14-0.16 ms per 2000 x 71-byte
batch), so it stays single-variant.

When no compiler works, :func:`library` returns ``None`` and warns once
per process; every compiled path then runs its Python reference, which
produces the same bits more slowly.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings

# Lanes per block in batch_chain_run; the batch engine pads B > 1 up
# to a multiple of this with inert lanes (a lone lane runs unpadded).
# Must match #define LB below.
LANE_BLOCK = 8

SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define LB 8   /* lanes per block; Python pads B > 1 to a multiple */
#define VW 8   /* samples per front-end vector block */

/* The two fused batch kernels are built once per x86-64 level and the
 * loader's ifunc resolver picks one per process from the CPU. Only GCC
 * 12+ on x86-64 glibc is known to accept these clones and to resolve
 * them with the __builtin_cpu_supports levels repro_native_isa() reads;
 * everything else, and any build with REPRO_NO_DISPATCH, gets the
 * baseline code alone. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) \
    && !defined(__clang__) && __GNUC__ >= 12 && !defined(REPRO_NO_DISPATCH)
#define ISA_DISPATCH 1
#define ISA_CLONES __attribute__((target_clones( \
    "arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define ISA_CLONES
#endif

/* The variant the resolver chose, by the resolver's own test. */
const char *repro_native_isa(void)
{
#ifdef ISA_DISPATCH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
    if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
#endif
    return "baseline";
}

/* Fused batched chain: B second-order sigma-delta loops feeding B
 * CIC(order 3, diff delay 1) + FIR cascades, sharing scalar decimation
 * phases (lanes run in lockstep).
 *
 * Per-lane inputs (au, noise, dacn) are lane-major: lane l's samples
 * live at base[l*stride + i]. A stride of 0 aliases every lane onto one
 * shared row — the caller uses that to feed an all-zero noise row
 * without materializing (B, n) zeros. Per-lane state vectors have
 * length B; the FIR history is a lane-major (B, taps-1) ring sharing
 * one head index, returned via state_out so the caller can unroll it.
 * Output words are lane-major (B, cap).
 *
 * Lanes advance in blocks of lb whose modulator/integrator/comb state
 * lives in local arrays for the whole chunk. batch_chain_run below
 * instantiates this body three times at compile time: lb = LB for a
 * batch of a multiple of LB lanes (the Python layer pads with inert
 * lanes), lb = 1 for a lone lane, which would otherwise pay for a whole
 * padded block, and lb = 1 with a bits row, which writes the lone
 * lane's +/-1 decisions and compiles the CIC/FIR section out (the
 * modulator's compiled loop; integrators, combs, ring and phases pass
 * through untouched, and a NULL dacn means no DAC noise, as in the
 * reference loop). The v3/v4 clones hold an LB block in vector
 * registers; baseline SSE2 has no blend, so it runs the lanes one at a
 * time out of L1.
 *
 * Arithmetic mirrors the Python reference stages operation for
 * operation. Returns the number of emitted words per lane; state_out
 * carries the final scalar phases.
 */
static inline __attribute__((always_inline)) long long chain_blocks(
    const long long lb,
    int8_t *restrict bits,           /* (n) out, or NULL for words   */
    long long n, long long B,
    const double *restrict au, long long au_stride,
    const double *restrict noise, long long noise_stride,
    const double *restrict dacn, long long dacn_stride,
    const double *restrict dac_gain,
    const double *restrict p1, const double *restrict b1,
    const double *restrict p2, const double *restrict a2,
    const double *restrict b2,
    const double *restrict swing,
    const double *restrict c_off,    /* (B) comparator offset        */
    const double *restrict c_hys,    /* (B) comparator hysteresis    */
    double *restrict x1, double *restrict x2,   /* (B) in/out        */
    long long *restrict prev,        /* (B) in/out comparator memory */
    long long *restrict clipped,     /* (B) out, caller zeroes       */
    unsigned long long *restrict integ, /* (3, B) in/out, raw mod 2^64 */
    long long *restrict comb,        /* (3, B) in/out, wrapped       */
    long long cic_R, long long cic_phase, long long reg_bits,
    const long long *restrict flip,  /* (taps) reversed Q coeffs     */
    long long taps, long long fir_M, long long fir_phase,
    long long *restrict hist,        /* (B, taps-1) in/out ring      */
    double qscale, long long qmax, long long qmin,
    long long *restrict words,       /* (B, cap) out                 */
    long long cap,
    long long *restrict state_out)
{
    const long long half = 1LL << (reg_bits - 1);
    const unsigned long long mask = ((unsigned long long)1 << reg_bits) - 1;
    const long long nh = taps - 1;
    const long long ftail = flip[taps - 1];
    long long nw = 0, cphase_out = cic_phase, fphase_out = fir_phase;
    long long head_out = 0;
    long long b0, i, j, k, r;

    for (b0 = 0; b0 < B; b0 += lb) {
        double lx1[LB], lx2[LB], lpv[LB];
        double lp1[LB], lb1[LB], lp2[LB], la2[LB], lb2[LB];
        double lsw[LB], loff[LB], lhy[LB], ldg[LB];
        long long lclip[LB];
        unsigned long long li0[LB], li1[LB], li2[LB];
        long long lc0[LB], lc1[LB], lc2[LB], lcur[LB];
        const double *pa[LB], *pn[LB], *pd[LB];

        for (j = 0; j < lb; j++) {
            const long long l = b0 + j;
            lx1[j] = x1[l];
            lx2[j] = x2[l];
            lpv[j] = (double)prev[l];
            lp1[j] = p1[l];
            lb1[j] = b1[l];
            lp2[j] = p2[l];
            la2[j] = a2[l];
            lb2[j] = b2[l];
            lsw[j] = swing[l];
            loff[j] = c_off[l];
            lhy[j] = c_hys[l];
            ldg[j] = dac_gain[l];
            lclip[j] = 0;
            li0[j] = integ[l];
            li1[j] = integ[B + l];
            li2[j] = integ[2 * B + l];
            lc0[j] = comb[l];
            lc1[j] = comb[B + l];
            lc2[j] = comb[2 * B + l];
            pa[j] = au + l * au_stride;
            pn[j] = noise + l * noise_stride;
            pd[j] = dacn + l * dacn_stride;
        }
        long long cphase = cic_phase, fphase = fir_phase, head = 0;
        long long bnw = 0;

        for (i = 0; i < n; i++) {
            for (j = 0; j < lb; j++) {
                double x2v = lx2[j];
                /* Branchless deterministic comparator: with zero offset
                 * and hysteresis this is bit-exactly the ideal x2 >= 0
                 * decision (0.5*0*prev is +/-0.0 and x - (+/-0.0) == x
                 * for every x the margin test distinguishes). */
                double threshold = loff[j] - 0.5 * lhy[j] * lpv[j];
                double margin = x2v - threshold;
                double v = (margin >= 0.0) ? 1.0 : -1.0;
                double fb = v * ldg[j];
                if (!bits || dacn) {
                    fb += pd[j][i];
                }
                double x1v = lx1[j];
                double x1n = lp1[j] * x1v + pa[j][i] - lb1[j] * fb
                             + pn[j][i];
                double x2n = lp2[j] * x2v + la2[j] * x1v - lb2[j] * fb;
                double sw = lsw[j];
                lclip[j] += (x1n > sw) | (x1n < -sw) | (x2n > sw)
                            | (x2n < -sw);
                x1n = (x1n > sw) ? sw : ((x1n < -sw) ? -sw : x1n);
                x2n = (x2n > sw) ? sw : ((x2n < -sw) ? -sw : x2n);
                lx1[j] = x1n;
                lx2[j] = x2n;
                lpv[j] = v;
                if (bits) {
                    bits[i] = (int8_t)v;
                    continue;
                }
                /* Integrate the +/-1 decision: uint64 wraparound
                 * commutes with the per-stage two's-complement wrap of
                 * the NumPy CIC, so sign-extension can wait until the
                 * comb reads. */
                unsigned long long bu = (margin >= 0.0)
                    ? 1ULL : (unsigned long long)-1LL;
                li0[j] += bu;
                li1[j] += li0[j];
                li2[j] += li1[j];
            }
            if (bits) {
                continue;
            }
            if (cphase == 0) {
                /* CIC output word: wrap the third integrator to the
                 * register width, run the comb cascade. */
                for (j = 0; j < lb; j++) {
                    long long v = (long long)(((li2[j]
                                  + (unsigned long long)half) & mask))
                                  - half;
                    long long t;
                    t = (long long)((((unsigned long long)(v - lc0[j]))
                        + (unsigned long long)half) & mask) - half;
                    lc0[j] = v;
                    v = t;
                    t = (long long)((((unsigned long long)(v - lc1[j]))
                        + (unsigned long long)half) & mask) - half;
                    lc1[j] = v;
                    v = t;
                    t = (long long)((((unsigned long long)(v - lc2[j]))
                        + (unsigned long long)half) & mask) - half;
                    lc2[j] = v;
                    lcur[j] = t;
                }
                if (fphase == 0) {
                    if (bnw >= cap) {
                        return -1; /* caller sized the buffer wrong */
                    }
                    /* FIR word: window = history (oldest first) +
                     * current, times the time-reversed quantized
                     * coefficients. Integer MAC is exact, so order is
                     * free. */
                    for (j = 0; j < lb; j++) {
                        const long long *restrict h = hist + (b0 + j) * nh;
                        long long a = lcur[j] * ftail;
                        k = 0;
                        for (r = head; r < nh; r++, k++) {
                            a += h[r] * flip[k];
                        }
                        for (r = 0; r < head; r++, k++) {
                            a += h[r] * flip[k];
                        }
                        double scaled = (double)a * qscale;
                        long long q = (long long)rint(scaled);
                        q = (q > qmax) ? qmax : ((q < qmin) ? qmin : q);
                        words[(b0 + j) * cap + bnw] = q;
                    }
                    bnw++;
                }
                /* Push the CIC word into each lane's circular history. */
                if (nh > 0) {
                    for (j = 0; j < lb; j++) {
                        hist[(b0 + j) * nh + head] = lcur[j];
                    }
                    head++;
                    if (head == nh) {
                        head = 0;
                    }
                }
                fphase++;
                if (fphase == fir_M) {
                    fphase = 0;
                }
            }
            cphase++;
            if (cphase == cic_R) {
                cphase = 0;
            }
        }
        for (j = 0; j < lb; j++) {
            const long long l = b0 + j;
            x1[l] = lx1[j];
            x2[l] = lx2[j];
            prev[l] = (lpv[j] >= 0.0) ? 1 : -1;
            clipped[l] += lclip[j];
            integ[l] = li0[j];
            integ[B + l] = li1[j];
            integ[2 * B + l] = li2[j];
            comb[l] = lc0[j];
            comb[B + l] = lc1[j];
            comb[2 * B + l] = lc2[j];
        }
        nw = bnw;
        cphase_out = cphase;
        fphase_out = fphase;
        head_out = head;
    }
    state_out[0] = cphase_out;
    state_out[1] = fphase_out;
    state_out[2] = head_out;
    return nw;
}

ISA_CLONES
long long batch_chain_run(
    long long n, long long B,
    const double *restrict au, long long au_stride,
    const double *restrict noise, long long noise_stride,
    const double *restrict dacn, long long dacn_stride,
    const double *restrict dac_gain,
    const double *restrict p1, const double *restrict b1,
    const double *restrict p2, const double *restrict a2,
    const double *restrict b2,
    const double *restrict swing,
    const double *restrict c_off,    /* (B) comparator offset        */
    const double *restrict c_hys,    /* (B) comparator hysteresis    */
    double *restrict x1, double *restrict x2,   /* (B) in/out        */
    long long *restrict prev,        /* (B) in/out comparator memory */
    long long *restrict clipped,     /* (B) out, caller zeroes       */
    unsigned long long *restrict integ, /* (3, B) in/out, raw mod 2^64 */
    long long *restrict comb,        /* (3, B) in/out, wrapped       */
    long long cic_R, long long cic_phase, long long reg_bits,
    const long long *restrict flip,  /* (taps) reversed Q coeffs     */
    long long taps, long long fir_M, long long fir_phase,
    long long *restrict hist,        /* (B, taps-1) in/out ring      */
    double qscale, long long qmax, long long qmin,
    long long *restrict words,       /* (B, cap) out                 */
    long long cap,
    long long *restrict state_out,   /* [cic_phase, fir_phase, head] */
    int8_t *restrict bits)           /* (n) out for B == 1, or NULL  */
{
#define CHAIN_ARGS n, B, au, au_stride, noise, noise_stride, dacn, \
    dacn_stride, dac_gain, p1, b1, p2, a2, b2, swing, c_off, c_hys, x1, \
    x2, prev, clipped, integ, comb, cic_R, cic_phase, reg_bits, flip, \
    taps, fir_M, fir_phase, hist, qscale, qmax, qmin, words, cap, state_out
    if (bits) {
        return (B == 1) ? chain_blocks(1, bits, CHAIN_ARGS) : -2;
    }
    if (B == 1) {
        return chain_blocks(1, 0, CHAIN_ARGS);
    }
    if (B % LB) {
        return -2; /* caller pads the batch */
    }
    return chain_blocks(LB, 0, CHAIN_ARGS);
#undef CHAIN_ARGS
}

/* One sample of the capacitive front end: domain map + Clenshaw
 * recurrence, exactly as numpy.polynomial.chebyshev.chebval orders the
 * operations (scalar coefficient minus element, then c1*x2 add). */
static double cheb_one(double pv, const double *restrict cheb,
                       long long ncoef, double dom_off, double dom_scl)
{
    double x = dom_off + dom_scl * pv;
    double c0, c1;
    if (ncoef == 1) {
        c0 = cheb[0];
        c1 = 0.0;
    } else if (ncoef == 2) {
        c0 = cheb[0];
        c1 = cheb[1];
    } else {
        double x2 = 2.0 * x;
        long long k;
        c0 = cheb[ncoef - 2];
        c1 = cheb[ncoef - 1];
        for (k = ncoef - 3; k >= 0; k--) {
            double tmp = c0;
            c0 = cheb[k] - c1;
            c1 = tmp + c1 * x2;
        }
    }
    return c0 + c1 * x;
}

/* Batched capacitive front end: per lane, read the selected element's
 * pressure column in place (pbase[l] points at sample 0, pstep[l] is
 * the sample stride in doubles), evaluate the shared Chebyshev C(P)
 * transfer, apply the element mismatch affine, the mux charge-injection
 * glitch on sample 0 (inj[l] = 0 when the lane was not just switched;
 * adding literal +0.0 only differs for a -0.0 capacitance, which the
 * positivity check rejects on both paths), and the charge front end's
 * (sense - Cref)/Cfb * excitation map; write u * a1 into the lane's au
 * row. u_last[l] returns the pre-gain u of the final sample (the
 * modulator's jitter-slope carry).
 *
 * Returns 0, or -1 if any pressure leaves the interpolant's domain (NaN
 * included: the test is !(pmin <= p <= pmax)) or any capacitance is
 * non-positive — the caller then replays the chunk through the per-lane
 * NumPy path, which raises the exact errors.
 */
ISA_CLONES
long long batch_frontend_run(
    long long n, long long B,
    const unsigned long long *restrict pbase, /* (B) addresses        */
    const long long *restrict pstep,          /* (B) strides, doubles */
    double *restrict au, long long au_stride,
    const double *restrict cheb, long long ncoef,
    double dom_off, double dom_scl,
    double pmin, double pmax,
    const double *restrict cscale,  /* (B) element capacitance_scale  */
    const double *restrict coffs,   /* (B) element offset_cap_f       */
    const double *restrict inj,     /* (B) charge-injection glitch    */
    const double *restrict cref,    /* (B) front-end reference cap    */
    const double *restrict cfb,     /* (B) front-end feedback cap     */
    const double *restrict cexc,    /* (B) excitation fraction        */
    const double *restrict a1,      /* (B) folded modulator gain      */
    double *restrict u_last)        /* (B) out: final pre-gain u      */
{
    long long err = 0;
    long long l, i, v, k;
    for (l = 0; l < B; l++) {
        const double *p = (const double *)pbase[l];
        const long long st = pstep[l];
        double *restrict o = au + l * au_stride;
        const double cs = cscale[l], co = coffs[l], gi = inj[l];
        const double rf = cref[l], fb = cfb[l], ex = cexc[l];
        const double g = a1[l];
        double ul = 0.0;

        /* Sample 0 carries the charge-injection glitch. */
        {
            double pv = p[0];
            err += !((pmin <= pv) & (pv <= pmax));
            double sense = cheb_one(pv, cheb, ncoef, dom_off, dom_scl)
                           * cs + co;
            sense = sense + gi;
            err += (sense <= 0.0);
            double u = (sense - rf) / fb * ex;
            ul = u;
            o[0] = u * g;
        }
        i = 1;
        if (ncoef >= 3) {
            const double ctop0 = cheb[ncoef - 2];
            const double ctop1 = cheb[ncoef - 1];
            for (; i + VW <= n; i += VW) {
                double x[VW], x2[VW], c0[VW], c1[VW], uu[VW];
                long long e = 0;
                for (v = 0; v < VW; v++) {
                    double pv = p[(i + v) * st];
                    e += !((pmin <= pv) & (pv <= pmax));
                    x[v] = dom_off + dom_scl * pv;
                }
                for (v = 0; v < VW; v++) {
                    x2[v] = 2.0 * x[v];
                    c0[v] = ctop0;
                    c1[v] = ctop1;
                }
                for (k = ncoef - 3; k >= 0; k--) {
                    const double ck = cheb[k];
                    for (v = 0; v < VW; v++) {
                        double tmp = c0[v];
                        c0[v] = ck - c1[v];
                        c1[v] = tmp + c1[v] * x2[v];
                    }
                }
                for (v = 0; v < VW; v++) {
                    double sense = (c0[v] + c1[v] * x[v]) * cs + co;
                    e += (sense <= 0.0);
                    double u = (sense - rf) / fb * ex;
                    uu[v] = u;
                    o[i + v] = u * g;
                }
                err += e;
                ul = uu[VW - 1];
            }
        }
        for (; i < n; i++) {
            double pv = p[i * st];
            err += !((pmin <= pv) & (pv <= pmax));
            double sense = cheb_one(pv, cheb, ncoef, dom_off, dom_scl)
                           * cs + co;
            err += (sense <= 0.0);
            double u = (sense - rf) / fb * ex;
            ul = u;
            o[i] = u * g;
        }
        u_last[l] = ul;
    }
    return err ? -1 : 0;
}

#define CRC_ROWS 8   /* rows whose CRCs advance together */

/* CRC-16/CCITT-FALSE (seed 0xFFFF) of k rows of body_len bytes; row r
 * starts at mat + r*row_stride. table is the caller's 256-entry byte
 * table (repro.daq.usb's, shared with the reference crc16_ccitt). Each
 * byte step depends on the previous one, so CRC_ROWS rows are stepped
 * side by side to overlap their table loads. */
void crc16_rows(const uint8_t *restrict mat, long long k,
                long long row_stride, long long body_len,
                const uint16_t *restrict table, uint16_t *restrict out)
{
    long long r = 0, j, v;
    for (; r + CRC_ROWS <= k; r += CRC_ROWS) {
        const uint8_t *p[CRC_ROWS];
        unsigned c[CRC_ROWS];
        for (v = 0; v < CRC_ROWS; v++) {
            p[v] = mat + (r + v) * row_stride;
            c[v] = 0xFFFF;
        }
        for (j = 0; j < body_len; j++) {
            for (v = 0; v < CRC_ROWS; v++) {
                c[v] = ((c[v] << 8) & 0xFFFF) ^ table[(c[v] >> 8) ^ p[v][j]];
            }
        }
        for (v = 0; v < CRC_ROWS; v++) {
            out[r + v] = (uint16_t)c[v];
        }
    }
    for (; r < k; r++) {
        const uint8_t *p = mat + r * row_stride;
        unsigned c = 0xFFFF;
        for (j = 0; j < body_len; j++) {
            c = ((c << 8) & 0xFFFF) ^ table[(c >> 8) ^ p[j]];
        }
        out[r] = (uint16_t)c;
    }
}

/* Direct-form-II-transposed biquad cascade, in place: x[0..n) runs
 * through n_sections rows [b0 b1 b2 1 a1 a2] of sos from the state zi
 * (n_sections x 2, updated). Per section y = b0*x + z0, z0 = b1*x -
 * a1*y + z1, z1 = b2*x - a2*y: repro.dsp.iir._cascade_reference's
 * operations in its order. */
void sos_cascade(const double *restrict sos, long long n_sections,
                 double *restrict x, long long n, double *restrict zi)
{
    long long i, s;
    for (i = 0; i < n; i++) {
        double cur = x[i];
        for (s = 0; s < n_sections; s++) {
            const double *c = sos + 6 * s;
            double *z = zi + 2 * s;
            double y = c[0] * cur + z[0];
            z[0] = c[1] * cur - c[4] * y + z[1];
            z[1] = c[2] * cur - c[5] * y;
            cur = y;
        }
        x[i] = cur;
    }
}
"""

CFLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")

U8_P = ctypes.POINTER(ctypes.c_uint8)
U16_P = ctypes.POINTER(ctypes.c_uint16)
_LL = ctypes.c_longlong
_D = ctypes.c_double
_P = ctypes.c_void_p

# restype/argtypes per exported kernel, in C parameter order.
_SIGNATURES = {
    # The fused kernels take plain addresses: their callers compute them
    # once per buffer (repro.batch.kernel), not once per call.
    "batch_chain_run": (_LL, [
        _LL, _LL,  # n, B
        _P, _LL, _P, _LL, _P, _LL,  # au, noise, dacn (+ strides)
        _P, _P, _P, _P, _P, _P,  # dac_gain, p1, b1, p2, a2, b2
        _P, _P, _P,  # swing, c_off, c_hys
        _P, _P, _P, _P,  # x1, x2, prev, clipped
        _P, _P,  # integ, comb
        _LL, _LL, _LL,  # cic_R, cic_phase, reg_bits
        _P, _LL, _LL, _LL,  # flip, taps, fir_M, fir_phase
        _P,  # hist
        _D, _LL, _LL,  # qscale, qmax, qmin
        _P, _LL, _P, _P,  # words, cap, state_out, bits (nullable)
    ]),
    "batch_frontend_run": (_LL, [
        _LL, _LL, _P, _P,  # n, B, pbase, pstep
        _P, _LL, _P, _LL,  # au, au_stride, cheb, ncoef
        _D, _D, _D, _D,  # dom_off, dom_scl, pmin, pmax
        _P, _P, _P,  # cscale, coffs, inj
        _P, _P, _P,  # cref, cfb, cexc
        _P, _P,  # a1, u_last
    ]),
    "repro_native_isa": (ctypes.c_char_p, []),
    "crc16_rows": (None, [
        U8_P, _LL, _LL, _LL,  # mat, k, row_stride, body_len
        U16_P, U16_P,  # table, out
    ]),
    "sos_cascade": (None, [_P, _LL, _P, _LL, _P]),  # sos, sections, x, n, zi
}

# Module-level library cache: None = not tried yet, False = unavailable,
# otherwise the loaded CDLL; _status says how it was obtained and
# _compiler which compiler's key it carries.
_lib: object = None
_status = "failed"
_compiler: str | None = None

_DIGEST = hashlib.sha256().digest_size

# Appended to SOURCE in every build. A writable array lands in .data, after
# .rodata, so the kernels' instructions and constant addresses are the
# same bytes as in a build without it.
_STAMP = """
const char *repro_native_key(void) { static char key[] = "%s"; return key; }
"""


def _compilers() -> list[str]:
    return [cc for cc in (os.environ.get("REPRO_CC"), "cc", "gcc", "clang") if cc]


def _key(cc: str) -> str:
    """Cache key of a build of :data:`SOURCE` with the compiler at ``cc``."""
    real = os.path.realpath(cc)
    st = os.stat(real)
    parts = (SOURCE + _STAMP, " ".join(CFLAGS), real, str(st.st_size),
             str(st.st_mtime_ns), os.uname().machine)
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _private(st: os.stat_result) -> bool:
    """Owned by this user and not writable by group or others."""
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _cache_dir() -> str | None:
    """The per-user cache directory, created if needed; None if unusable."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro-native")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        return path if _private(os.stat(path)) else None
    except OSError:
        return None


def _entry(cache: str, key: str) -> str:
    return os.path.join(cache, f"native-{key}.so")


def _verified(path: str, key: str):
    """Load ``path`` if its digest trailer and embedded key check out.

    The digest is checked before ``dlopen``: mapping a truncated shared
    object can end the process with SIGBUS instead of an error.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data[:-_DIGEST]).digest() != data[-_DIGEST:]:
            return None
        lib = ctypes.CDLL(path)
        stamp = lib.repro_native_key
    except (OSError, AttributeError):
        return None
    stamp.restype = ctypes.c_char_p
    stamp.argtypes = []
    if stamp() != key.encode():
        return None
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def _cached(cache: str, key: str):
    """The cache entry for ``key``, loaded, or None if absent or unsafe."""
    path = _entry(cache, key)
    try:
        if not _private(os.stat(path)):
            return None
    except OSError:
        return None
    return _verified(path, key)


def _build(
    cc: str, key: str, cache: str | None = None, flags: tuple[str, ...] = ()
):
    """Compile :data:`SOURCE` with ``cc``, load it and return the CDLL.

    The build runs in a temporary directory inside ``cache`` (default:
    the system temporary directory), which is removed afterwards; a
    build inside the cache is published as the entry for ``key`` once it
    has loaded. ``flags`` follow :data:`CFLAGS` (tests build single ISA
    variants this way, never into the cache). Returns None when the
    build or the load fails.
    """
    try:
        with tempfile.TemporaryDirectory(prefix="repro-native-", dir=cache) as build_dir:
            src = os.path.join(build_dir, "native.c")
            lib_path = os.path.join(build_dir, "native.so")
            with open(src, "w") as fh:
                fh.write(SOURCE + _STAMP % key)
            result = subprocess.run(
                [cc, *CFLAGS, *flags, "-o", lib_path, src, "-lm"],
                capture_output=True,
                timeout=60,
            )
            if result.returncode != 0:
                return None
            with open(lib_path, "rb+") as fh:
                fh.write(hashlib.sha256(fh.read()).digest())
            lib = _verified(lib_path, key)
            if lib is not None and cache is not None:
                # A loose umask would leave the entry group-writable,
                # and every later process would refuse it.
                os.chmod(lib_path, 0o755)
                with contextlib.suppress(OSError):
                    os.replace(lib_path, _entry(cache, key))
            return lib
    except (OSError, subprocess.SubprocessError):
        return None


def _load():
    """The library, how it was obtained (cached, compiled or failed) and
    the compiler whose build it is."""
    cache = _cache_dir()
    for cc in filter(None, map(shutil.which, _compilers())):
        key = _key(cc)
        lib = _cached(cache, key) if cache else None
        if lib is not None:
            return lib, "cached", cc
        lib = (_build(cc, key, cache) if cache else None) or _build(cc, key)
        if lib is not None:
            return lib, "compiled", cc
    return None, "failed", None


def library():
    """The loaded native library, or None when it cannot be built.

    The first call loads it from the cache or compiles it; a failure
    warns once (naming the compilers tried) and is remembered, so the
    process never retries or warns again.
    """
    global _lib, _status, _compiler
    if _lib is None:
        lib, _status, _compiler = _load()
        _lib = lib or False
        if _lib is False:
            warnings.warn(
                "repro native library unavailable (tried compilers: "
                f"{', '.join(_compilers())}); compiled paths fall back to "
                "their Python reference",
                RuntimeWarning,
                stacklevel=2,
            )
    return _lib or None


def available() -> bool:
    """True when the native library could be built and loaded."""
    return library() is not None


def build_status() -> str:
    """How this process got its library: ``"cached"`` (loaded from the
    cache), ``"compiled"`` (paid a compile) or ``"failed"`` (no library;
    compiled paths run their Python reference)."""
    return _status if available() else "failed"


def isa() -> str:
    """Which variant of the fused batch kernels this process runs:
    ``"x86-64-v4"``, ``"x86-64-v3"``, ``"baseline"`` (also the only one
    built on other platforms or by other compilers than GCC 12+), or
    ``"none"`` when there is no library."""
    lib = library()
    return lib.repro_native_isa().decode() if lib is not None else "none"


def compiler() -> str | None:
    """Path of the compiler that built the loaded library, or None."""
    return _compiler if available() else None
