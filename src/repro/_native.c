/* The compiled tier of the pipeline: one C library, loaded through ctypes
 * by repro.native, holding the hot loops that have a NumPy body as their
 * reference and fallback:
 *
 *   xdrop_extend_batch  the banded x-drop extension of stage 4 on int16 or
 *                       int32 vector lanes, reading every task in place
 *                       from one arena of read codes
 *                       (repro.align.batched_xdrop._extend_numpy);
 *   bloom_test,         the Bloom filter's membership test and its
 *   bloom_insert        test-then-set of stage 1
 *                       (repro.kmers.bloom.BloomFilter);
 *   key_gate            stage 2's candidate-key gate
 *                       (repro.kmers.hashtable.key_mask);
 *   extract_kmers       the batch k-mer extraction of every stage
 *                       (repro.seq.kmer.extract_kmers_batch);
 *   route_rows          the packing of an exchange's rows by destination or
 *                       by k-mer owner (repro.mpisim.collectives.
 *                       bucket_by_destination / bucket_by_owner,
 *                       reference _bucket_numpy);
 *   route_occurrences   stage 2's packing of every occurrence into its
 *                       64-bit index key, fused with it
 *                       (repro.core.stages.route_occurrences);
 *   hll_add             the HyperLogLog register max of stage 1
 *                       (repro.kmers.hyperloglog.HyperLogLog.add_many).
 *
 * Every entry point computes exactly what its NumPy body computes, so the
 * two tiers are interchangeable bit for bit.  All memory comes from the
 * caller: the library allocates nothing.
 *
 * Build: cc -O2 -shared -fPIC -o <lib>.so _native.c
 */

#include <stdint.h>

#if defined(__x86_64__) || defined(__i386__)
#define X86 1
#include <immintrin.h>
#endif

/* ---- banded x-drop extension -------------------------------------------
 *
 * One task per vector lane.  Tasks are taken in groups of `lanes`; the lanes
 * of a group step through DP rows together, and every lane runs exactly the
 * recurrence of the NumPy kernel `_extend_numpy`: the same row-0
 * initialisation, diagonal / up / left predecessors, `band` cells per row,
 * first-maximum tie-break, x-drop and end-of-read exits and the batch-wide
 * row cap.  The arithmetic is integer and every comparison picks what the
 * NumPy kernel's picks (see "Exactness" below), so scores, spans and cell
 * counts are bit-identical to the NumPy kernel.  Per-lane masks cover the
 * band edges (slots outside b or past the end of a) and lanes whose task
 * has finished; a finished lane computes only sentinel rows until the
 * whole group is done.  The caller orders tasks by length so that the
 * lanes of a group finish together.
 *
 * Element types and lane widths.  One macro, LANE_KERNEL, defines the
 * kernel for an element type and a lane count, so the body exists once:
 *
 *     vector    needs                   int16 lanes   int32 lanes
 *     512-bit   AVX-512F + AVX-512BW         32            16
 *     256-bit   AVX2                         16             8
 *     128-bit   baseline (SSE2 on x86-64)     8             4
 *
 * `xdrop_lanes` reports the int32 lane count of the widest vector this CPU
 * runs; its int16 kernel has twice as many lanes.  The wide kernels are
 * compiled through `__attribute__((target(...)))`, so the build command
 * carries no -m flag: the library cache key (source, command, machine name)
 * cannot tell two x86-64 CPUs apart, and a library built with -mavx512f
 * would be reused on a CPU without AVX-512 and die with SIGILL.  The
 * 128-bit kernels use the baseline instruction set and run on any host
 * GCC's vector extensions target, so no scalar loop is kept beside them.
 * There is no 256-bit kernel without AVX2: emulated 256-bit vectors ran
 * slower than a scalar loop.
 *
 * Maxima.  Each band slot waits on the one before it through `left` and
 * the row maximum.  GCC 12 lowers a vector-extension max, SEL(x > y, x, y),
 * to a compare plus a masked move; on x86 the kernels take the ISA's
 * one-instruction max instead (vpmaxsw / vpmaxsd; SSE2 has pmaxsw but no
 * pmaxsd, so the 128-bit int32 kernel keeps the generic form).  The row
 * maximum is a max too: its compare only feeds `best_slot`, which moves on
 * a strict improvement, so the first maximum of a row still wins.  Up to
 * the narrowest band end of the live lanes every live slot is valid, so
 * those slots mask by the row's live lanes, not by a per-slot compare.
 *
 * Exactness.  A lane's values depend only on its own task, so the bounds
 * below are per task, and the caller splits a call's tasks between the
 * two element types by them.  Let w = max(|match|, |mismatch|, |gap|) and
 * n = len_a + len_b + band.  Every valid cell (i, j) is reachable from
 * (0, 0) inside the band, so its real score is at least -(i + j) * w.
 *
 *   int32 lanes, NEG = -2^28, the NumPy kernel's own sentinel: the caller
 *     guarantees n * w < 2^30.  Real scores and the values derived from
 *     NEG (which drift below it by at most one penalty per row, as they do
 *     in the NumPy kernel) stay inside int32, so the arithmetic is the
 *     NumPy kernel's, value for value.
 *   int16 lanes, NEG = -2^14: the caller guarantees n * w < 2^14 and
 *     xdrop < 2^13.  Every real score is then above -(len_a + len_b) * w >
 *     -2^14 + band * w > NEG + w, and a value derived from NEG (a masked
 *     slot plus one substitution or gap) is at most NEG + w.  So every max
 *     and comparison picks the element the NumPy kernel, with its -2^28
 *     sentinel, picks: values derived from NEG never win, stay within
 *     [NEG - 2w, NEG + w], and, with w < 2^14 / 3, fit int16 as real
 *     scores (below 2^14) do.  A row with no valid slot has the maximum
 *     NEG in both kernels and fails the x-drop test in both: best >= 0, so
 *     best - xdrop > -2^13 > NEG.  The lane bookkeeping (row, lengths,
 *     columns) stays below 2^14 + band.
 *
 * Descriptors.  Every task reads both of its sides in place from one flat
 * arena of forward 2-bit codes: code j of a side is
 *     arena[start + step * j] ^ complement,   0 <= j < length,
 * with step +1 or -1 and complement 0 or 3 (code ^ 3 is the complement
 * base).  A backward extension reads its read's prefix backwards, and the
 * b side of a cross-strand task reads the reverse complement straight off
 * the forward codes, so the caller copies and reverses nothing.  A side of
 * length 0 reads nothing (stage 4 also gives it start 0), so no index
 * before the arena is ever formed.  The caller checks every span lies in
 * the arena: the kernel indexes it unchecked.
 *
 * The caller's `scratch` holds the two DP rows of a group and its a and b
 * codes, interleaved lane-major.  The codes are widened to the element
 * type as they are interleaved, so a cell compares one loaded vector:
 * GCC 12 at -O2 lowers a uint8-to-int32 `__builtin_convertvector` to one
 * scalar extract per lane, which made uint8 codes run the 16-lane kernel
 * 2.4x slower.
 */

#define NEG_INT32 (-(1 << 28))
#define NEG_INT16 (-(1 << 14))
/* Fills the lanes of a code block past their task's end; never read
 * unmasked. */
#define PAD_CODE 0xFF

/* Lane-wise select and maximum on vector operands; `m` is a comparison
 * result (all ones or all zeros per lane). */
#define SEL(m, x, y) (((m) & (x)) | (~(m) & (y)))
#define VMAX(x, y) SEL((x) > (y), (x), (y))

#ifdef X86
/* The ISA's lane-wise max, on the kernel's vector type `vi`. */
#define MAX512_16(x, y) ((vi)_mm512_max_epi16((__m512i)(x), (__m512i)(y)))
#define MAX512_32(x, y) ((vi)_mm512_max_epi32((__m512i)(x), (__m512i)(y)))
#define MAX256_16(x, y) ((vi)_mm256_max_epi16((__m256i)(x), (__m256i)(y)))
#define MAX256_32(x, y) ((vi)_mm256_max_epi32((__m256i)(x), (__m256i)(y)))
#define MAX128_16(x, y) ((vi)_mm_max_epi16((__m128i)(x), (__m128i)(y)))
#else
#define MAX128_16 VMAX
#endif

/* Band slot w of a row, inside LANE_KERNEL: the slot's value from its
 * diagonal, up and left predecessors, NEG in lanes outside the mask
 * `valid`, and the row maximum with the first slot that reached it. */
#define XDROP_SLOT(w, valid, T, MAX)                                          \
    do {                                                                      \
        const vi diag = prev[w] + SEL(block_b[j0 + (w) - 1] == a_code,        \
                                      matchv, mismatchv);                     \
        left = MAX(MAX(diag, prev[(w) + 1] + gapv), left + gapv);             \
        const vi value = SEL(valid, left, neg);                               \
        cur[w] = value;                                                       \
        best_slot = SEL(value > row_best, (vi){} + (T)(w), best_slot);        \
        row_best = MAX(row_best, value);                                      \
    } while (0)

/* One side of a task: arena[start + step * j] ^ complement, j < length. */
typedef struct {
    int64_t start, length, step, complement;
} xdrop_side;

/* LANE_KERNEL(NAME, T, L, NEG, TARGET, MAX) defines NAME, the kernel on L
 * lanes of element type T with sentinel NEG; MAX(x, y) is its lane-wise
 * maximum.
 *
 * Task t aligns side a = sides[2t] against side b = sides[2t + 1].
 * scratch holds at least
 *     64 + V * (2 * (band + 1) + max_rows + min(max len_b, max_rows + band))
 * bytes, V = L * sizeof(T) the vector size: alignment slack, two DP rows of
 * band + 1 vectors, then one group's a codes (one vector per row) and b
 * codes (one vector per column, up to one band past the last row).  out
 * receives n_tasks rows of (score, length_a, length_b, cells).
 *
 * Slot w of a DP row is vector w, lane l holding task g + l; slot `band` of
 * both rows stays NEG, the up neighbour of the last band slot.
 */
#define LANE_KERNEL(NAME, T, L, NEG, TARGET, MAX)                             \
TARGET static void NAME(                                                      \
    int64_t n_tasks, const uint8_t *arena, const xdrop_side *sides,           \
    T match, T mismatch, T gap, T xdrop, int32_t band, int32_t max_rows,      \
    void *scratch, int64_t *out)                                              \
{                                                                             \
    typedef T vi __attribute__((vector_size(sizeof(T) * L)));                 \
    typedef uint64_t vw __attribute__((vector_size(sizeof(vi))));             \
    _Static_assert(sizeof(vi) == 64 || sizeof(vi) == 32 || sizeof(vi) == 16,  \
                   "a kernel fills one 128-, 256- or 512-bit vector");        \
    const int32_t half = band / 2;                                            \
    const vi neg = (vi){} + (T)(NEG);                                         \
    const vi gapv = (vi){} + gap;                                             \
    const vi matchv = (vi){} + match;                                         \
    const vi mismatchv = (vi){} + mismatch;                                   \
    const vi last_slot = (vi){} + (T)(band - 1);                              \
    vi *const rows = (vi *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);      \
    vi *const block_a = rows + 2 * (band + 1);                                \
                                                                              \
    for (int64_t g = 0; g < n_tasks; g += L) {                                \
        const int64_t n_lanes = n_tasks - g < L ? n_tasks - g : L;            \
        vi la = (vi){}, lb = (vi){}, active = (vi){};                         \
        int64_t rows_a = 0, rows_b = 0;                                       \
        for (int64_t l = 0; l < n_lanes; l++) {                               \
            const int64_t len_a = sides[2 * (g + l)].length;                  \
            const int64_t len_b = sides[2 * (g + l) + 1].length;              \
            const int64_t need_a = len_a < max_rows ? len_a : max_rows;       \
            const int64_t reach_b = need_a + band;                            \
            const int64_t need_b = len_b < reach_b ? len_b : reach_b;         \
            la[l] = (T)len_a;                                                 \
            lb[l] = (T)len_b;                                                 \
            active[l] = -1;                                                   \
            rows_a = need_a > rows_a ? need_a : rows_a;                       \
            rows_b = need_b > rows_b ? need_b : rows_b;                       \
        }                                                                     \
        /* Interleave the codes a lane can read: rows up to the row cap, b    \
         * columns up to one band past them. */                               \
        vi *const block_b = block_a + rows_a;                                 \
        for (int64_t j = 0; j < rows_a + rows_b; j++)                         \
            block_a[j] = (vi){} + PAD_CODE;                                   \
        for (int64_t l = 0; l < n_lanes; l++) {                               \
            const xdrop_side sa = sides[2 * (g + l)];                         \
            const xdrop_side sb = sides[2 * (g + l) + 1];                     \
            const int64_t copy_a = la[l] < rows_a ? la[l] : rows_a;           \
            const int64_t copy_b = lb[l] < rows_b ? lb[l] : rows_b;           \
            for (int64_t j = 0; j < copy_a; j++)                              \
                block_a[j][l] = arena[sa.start + sa.step * j] ^ sa.complement;\
            for (int64_t j = 0; j < copy_b; j++)                              \
                block_b[j][l] = arena[sb.start + sb.step * j] ^ sb.complement;\
        }                                                                     \
                                                                              \
        vi *prev = rows, *cur = rows + band + 1;                              \
        vi best = (vi){}, best_i = (vi){}, best_j = (vi){};                   \
        vi last_row = (vi){};                                                 \
        prev[band] = cur[band] = neg;                                         \
        for (int32_t w = 0; w < band; w++) {                                  \
            const vi j = (vi){} + (T)(w - half);                              \
            prev[w] = SEL((j >= 0) & (j <= lb), j * gap, neg);                \
        }                                                                     \
                                                                              \
        /* `live` marks the lanes whose task has the row: at row 1 the      \
         * active lanes with la > 0, then exactly the active lanes.  Lanes    \
         * only ever finish, so the longest and shortest b of the live lanes  \
         * (`live_b`, `live_b_min`) are found again only when one does. */    \
        vi live = active & (la > 0);                                          \
        int32_t live_b = -1, live_b_min = -1;                                 \
        int recount = 1;                                                      \
        for (int32_t row = 1; row <= max_rows; row++) {                       \
            if (recount) {                                                    \
                int any = 0;                                                  \
                live_b = live_b_min = -1;                                     \
                for (int l = 0; l < L; l++) {                                 \
                    any |= active[l];                                         \
                    if (live[l] && lb[l] > live_b)                            \
                        live_b = lb[l];                                       \
                    if (live[l] && (live_b_min < 0 || lb[l] < live_b_min))    \
                        live_b_min = lb[l];                                   \
                }                                                             \
                if (!any)                                                     \
                    break;                                                    \
                recount = 0;                                                  \
            }                                                                 \
            /* Band slot w holds column j = j0 + w; slots [lo, hi] of a lane  \
             * are valid (inside b, row inside a), all others hold NEG.  A    \
             * finished lane has no valid slot. */                            \
            const vi rowv = (vi){} + (T)row;                                  \
            const int32_t j0 = row - half;                                    \
            const int32_t lo = j0 < 0 ? -j0 : 0;                              \
            const vi reach = lb - (T)j0;                                      \
            const vi hi = SEL(live, SEL(reach < last_slot, reach, last_slot), \
                              (vi){} - 1);                                    \
            const int32_t hi_max = live_b < 0 ? -1                            \
                : live_b - j0 < band - 1 ? live_b - j0 : band - 1;            \
            const int32_t hi_min = live_b < 0 ? -1                            \
                : live_b_min - j0 < band - 1 ? live_b_min - j0 : band - 1;    \
            /* Masked slots bound the row maximum from below, as the NumPy    \
             * kernel's argmax over the whole band does; a lane without one   \
             * starts from T's minimum. */                                    \
            vi row_best = SEL(((vi){} + (T)lo > 0) | (hi < last_slot), neg,   \
                              (vi){} + (T)(1u << (8 * sizeof(T) - 1)));       \
            vi best_slot = (vi){} - 1;                                        \
                                                                              \
            for (int32_t w = 0; w < lo; w++)                                  \
                cur[w] = neg;                                                 \
            if (lo <= hi_max) {                                               \
                const vi a_code = block_a[row - 1];                           \
                /* Left predecessor: a sequential scan equal to the NumPy     \
                 * kernel's prefix-max identity.  Left of `lo` the scan       \
                 * holds exactly NEG (masked slots, non-positive gap).  Slot  \
                 * `lo` is peeled: it may be column 0, which has no           \
                 * diagonal. */                                               \
                vi left = neg;                                                \
                {                                                             \
                    vi diag = neg;                                            \
                    if (j0 + lo >= 1) {                                       \
                        diag = prev[lo] + SEL(block_b[j0 + lo - 1] == a_code, \
                                              matchv, mismatchv);             \
                    }                                                         \
                    const vi up = prev[lo + 1] + gapv;                        \
                    const vi base = MAX(diag, up);                            \
                    left = lo == 0 ? base : MAX(base, left + gapv);           \
                    const vi value = SEL((vi){} + (T)lo <= hi, left, neg);    \
                    cur[lo] = value;                                          \
                    best_slot = SEL(value > row_best, (vi){} + (T)lo,         \
                                    best_slot);                               \
                    row_best = MAX(row_best, value);                          \
                }                                                             \
                /* Up to hi_min every live lane is valid. */                   \
                int32_t w = lo + 1;                                           \
                for (; w <= hi_min; w++)                                      \
                    XDROP_SLOT(w, live, T, MAX);                              \
                for (; w <= hi_max; w++)                                      \
                    XDROP_SLOT(w, (vi){} + (T)w <= hi, T, MAX);               \
            }                                                                 \
            for (int32_t w = hi_max < lo ? lo : hi_max + 1; w < band; w++)    \
                cur[w] = neg;                                                 \
                                                                              \
            const vi improved = active & (row_best > best);                   \
            best = SEL(improved, row_best, best);                             \
            best_i = SEL(improved, rowv, best_i);                             \
            best_j = SEL(improved, best_slot + (T)j0, best_j);                \
            last_row = SEL(active, rowv, last_row);                           \
            const vi still = active & (row_best >= best - xdrop) & (rowv < la);\
            const vw gone = (vw)(active ^ still);                             \
            uint64_t changed = 0;                                             \
            for (unsigned k = 0; k < sizeof(vi) / 8; k++)                     \
                changed |= gone[k];                                           \
            recount = changed != 0;                                           \
            active = live = still;                                            \
            vi *swap = prev;                                                  \
            prev = cur;                                                       \
            cur = swap;                                                       \
        }                                                                     \
                                                                              \
        for (int64_t l = 0; l < n_lanes; l++) {                               \
            int64_t *row_out = out + 4 * (g + l);                             \
            row_out[0] = best[l];                                             \
            row_out[1] = best_i[l];                                           \
            row_out[2] = best_j[l];                                           \
            row_out[3] = (int64_t)band * last_row[l];                         \
        }                                                                     \
    }                                                                         \
}

#ifdef X86
#define AVX512 __attribute__((target("avx512f,avx512bw")))
#define AVX2 __attribute__((target("avx2")))
LANE_KERNEL(extend_int16x32, int16_t, 32, NEG_INT16, AVX512, MAX512_16)
LANE_KERNEL(extend_int32x16, int32_t, 16, NEG_INT32, AVX512, MAX512_32)
LANE_KERNEL(extend_int16x16, int16_t, 16, NEG_INT16, AVX2, MAX256_16)
LANE_KERNEL(extend_int32x8, int32_t, 8, NEG_INT32, AVX2, MAX256_32)
#endif
LANE_KERNEL(extend_int16x8, int16_t, 8, NEG_INT16, , MAX128_16)
LANE_KERNEL(extend_int32x4, int32_t, 4, NEG_INT32, , VMAX)

/* The int32 lane count of the widest vector this CPU runs: 16, 8 or 4.
 * The int16 kernel of that vector has twice as many lanes. */
int64_t xdrop_lanes(void)
{
#ifdef X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw"))
        return 16;
    if (__builtin_cpu_supports("avx2"))
        return 8;
#endif
    return 4;
}

/* Extend n_tasks (a, b) pairs from their origin (0, 0) on `lanes` lanes of
 * `bits`-bit integers: 16 or 32.
 *
 * `sides` holds 2 * n_tasks descriptors, a then b for each task, into
 * `arena` (see "Descriptors" above).  Every task must satisfy the bound of
 * its element type (see "Exactness" above); the kernel does not check it.
 *
 * Returns 0, or -1 (doing nothing) when this CPU runs no kernel of that
 * element type and lane count, or when `xdrop` is 2^13 or more on int16
 * lanes.  On int32 lanes `xdrop` is taken into int32 by clamping at
 * INT32_MAX, which keeps the x-drop test `row_best >= best - xdrop` exact:
 * best lies in [0, 2^30) and every row maximum above -(2^28 + 2^30) (the
 * int32 bound), so any xdrop >= 2^30 + 2^28 passes every lane, clamped or
 * not, and a smaller one is represented exactly.
 */
int xdrop_extend_batch(int64_t bits, int64_t lanes, int64_t n_tasks,
                       const uint8_t *arena, const xdrop_side *sides,
                       int32_t match, int32_t mismatch, int32_t gap,
                       int64_t xdrop, int64_t band, int64_t max_rows,
                       void *scratch, int64_t *out)
{
    const int32_t x = xdrop > INT32_MAX ? INT32_MAX : (int32_t)xdrop;
    if ((bits != 16 && bits != 32) || bits * lanes > 32 * xdrop_lanes()
        || (bits == 16 && xdrop >= 1 << 13))
        return -1;
#define RUN(NAME, T)                                                          \
    do {                                                                      \
        NAME(n_tasks, arena, sides, (T)match, (T)mismatch, (T)gap, (T)x,      \
             (int32_t)band, (int32_t)max_rows, scratch, out);                 \
        return 0;                                                             \
    } while (0)
    /* Every kernel fills one vector: bits * lanes is its width. */
    switch (bits * lanes) {
#ifdef X86
    case 512:
        if (bits == 16)
            RUN(extend_int16x32, int16_t);
        RUN(extend_int32x16, int32_t);
    case 256:
        if (bits == 16)
            RUN(extend_int16x16, int16_t);
        RUN(extend_int32x8, int32_t);
#endif
    case 128:
        if (bits == 16)
            RUN(extend_int16x8, int16_t);
        RUN(extend_int32x4, int32_t);
    default:
        return -1;
    }
#undef RUN
}

/* ---- k-mer front end ---------------------------------------------------
 *
 * 64-bit integer code below; unsigned overflow wraps, exactly as NumPy's
 * uint64 arithmetic in repro.kmers.hashing does.
 */

#define GOLDEN 0x9E3779B97F4A7C15ULL

/* repro.kmers.hashing.mix64: the splitmix64 finaliser. */
static inline uint64_t mix64(uint64_t z)
{
    z += GOLDEN;
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z;
}

/* Probe h (seed h + 1) of a Bloom filter of n_bits bits: the position
 * BloomFilter._positions computes, hash_with_seed(code, h + 1) % n_bits. */
static inline uint64_t bloom_position(uint64_t code, int64_t h, uint64_t n_bits)
{
    return mix64(code ^ ((uint64_t)(h + 1) * GOLDEN)) % n_bits;
}

static inline int bloom_has(const uint8_t *bits, uint64_t n_bits,
                            int64_t n_hashes, uint64_t code)
{
    for (int64_t h = 0; h < n_hashes; h++) {
        const uint64_t pos = bloom_position(code, h, n_bits);
        if (!(bits[pos >> 3] & (1u << (pos & 7))))
            return 0;
    }
    return 1;
}

/* Slot of `code` in an open-addressing table of `words` slots: the high
 * word of mix64(code) * words, uniform over [0, words) for any size. */
static inline uint64_t home_slot(uint64_t code, uint64_t words)
{
    return (uint64_t)(((unsigned __int128)mix64(code) * words) >> 64);
}

/* Add `code` to the set kept in `table` (`words` slots, zeroed by the
 * caller, at least one more than the codes ever added) and `*has_max`.
 * A filled slot holds code + 1, so 0 marks an empty one; the one code
 * whose successor wraps to 0, UINT64_MAX, is kept in `*has_max` instead.
 * Returns 1 when `code` was already in the set. */
static inline int set_add(uint64_t *table, uint64_t words, int *has_max,
                          uint64_t code)
{
    if (code == UINT64_MAX) {
        const int had = *has_max;
        *has_max = 1;
        return had;
    }
    for (uint64_t slot = home_slot(code, words);; slot = slot + 1 == words ? 0 : slot + 1) {
        if (table[slot] == code + 1)
            return 1;
        if (table[slot] == 0) {
            table[slot] = code + 1;
            return 0;
        }
    }
}

static inline int set_has(const uint64_t *table, uint64_t words, int has_max,
                          uint64_t code)
{
    if (code == UINT64_MAX)
        return has_max;
    for (uint64_t slot = home_slot(code, words);; slot = slot + 1 == words ? 0 : slot + 1) {
        if (table[slot] == code + 1)
            return 1;
        if (table[slot] == 0)
            return 0;
    }
}

/* present[i] = 1 when every probe bit of codes[i] is set in `bits`
 * (BloomFilter.contains_many). */
void bloom_test(const uint64_t *codes, int64_t n, const uint8_t *bits,
                uint64_t n_bits, int64_t n_hashes, uint8_t *present)
{
    for (int64_t i = 0; i < n; i++)
        present[i] = (uint8_t)bloom_has(bits, n_bits, n_hashes, codes[i]);
}

/* BloomFilter.insert_many: present[i] = 1 when codes[i] was (probably) in
 * the filter before the batch or repeats an earlier code of the batch, and
 * every code's probe bits end up set.
 *
 * Pass 1 tests every code against the pre-batch bits, as the NumPy body
 * does before it sets any bit.  Pass 2 adds the codes, in batch order, to
 * an open-addressing set in `table` (n + 1 or more zeroed words): a code
 * already in the set is an in-batch repeat, the NumPy body's "equal to an
 * earlier code in the stable sort".  Only a code's first occurrence sets
 * its bits, recomputing the positions pass 1 used instead of storing them;
 * a repeat's bits are the same bits, so the filter ends up identical. */
void bloom_insert(const uint64_t *codes, int64_t n, uint8_t *bits,
                  uint64_t n_bits, int64_t n_hashes, uint64_t *table,
                  uint64_t words, uint8_t *present)
{
    int has_max = 0;
    bloom_test(codes, n, bits, n_bits, n_hashes, present);
    for (int64_t i = 0; i < n; i++) {
        if (set_add(table, words, &has_max, codes[i])) {
            present[i] = 1;
            continue;
        }
        for (int64_t h = 0; h < n_hashes; h++) {
            const uint64_t pos = bloom_position(codes[i], h, n_bits);
            bits[pos >> 3] |= (uint8_t)(1u << (pos & 7));
        }
    }
}

/* key_mask: keep[i] = 1 when codes[i * stride] >> shift is one of the
 * n_keys keys.  The keys go into an open-addressing set in `table` (n_keys
 * + 1 or more zeroed words) and every code probes it; `stride` (in words)
 * lets the caller pass a column of a row-major array, and `shift` (0..63)
 * the code field of packed occurrence keys, without copying either. */
void key_gate(const uint64_t *keys, int64_t n_keys, uint64_t *table,
              uint64_t words, const uint64_t *codes, int64_t n_codes,
              int64_t stride, int64_t shift, uint8_t *keep)
{
    int has_max = 0;
    for (int64_t i = 0; i < n_keys; i++)
        set_add(table, words, &has_max, keys[i]);
    for (int64_t i = 0; i < n_codes; i++)
        keep[i] = (uint8_t)set_has(table, words, has_max, codes[i * stride] >> shift);
}

/* extract_kmers_batch over the reads' joined ASCII bytes.
 *
 * Read r is the next lengths[r] bytes of `text`; `lut` maps a byte to its
 * 2-bit code, or to a value above 3 for a byte outside the alphabet.  One
 * rolling loop per read keeps the forward code and the reverse complement
 * of the last k bases; each full window writes one row of (code, read
 * index, position, is_forward), the code being min(forward, reverse
 * complement) when `canonical` is set, and is_forward (code == forward)
 * only when `with_strand` is.  The caller sizes the output columns to
 * sum(max(0, lengths[r] - k + 1)) rows.
 *
 * Returns -1, or the index in `text` of the first byte outside the
 * alphabet (reads shorter than k are checked too, as the NumPy body
 * encodes every byte before it extracts). */
int64_t extract_kmers(const uint8_t *text, const int64_t *lengths,
                      int64_t n_reads, const uint8_t *lut, int64_t k,
                      int64_t canonical, int64_t with_strand,
                      uint64_t *codes, int64_t *read_index,
                      int64_t *positions, uint8_t *is_forward)
{
    const uint64_t mask = (1ULL << (2 * k)) - 1;
    const int rc_shift = (int)(2 * (k - 1));
    int64_t start = 0, row = 0;
    for (int64_t r = 0; r < n_reads; r++) {
        uint64_t fwd = 0, rc = 0;
        for (int64_t p = 0; p < lengths[r]; p++) {
            const uint64_t base = lut[text[start + p]];
            if (base > 3)
                return start + p;
            fwd = ((fwd << 2) | base) & mask;
            rc = (rc >> 2) | ((3 - base) << rc_shift);
            if (p + 1 < k)
                continue;
            const uint64_t code = canonical && rc < fwd ? rc : fwd;
            codes[row] = code;
            read_index[row] = r;
            positions[row] = p + 1 - k;
            if (with_strand)
                is_forward[row] = code == fwd;
            row++;
        }
        start += lengths[r];
    }
    return -1;
}

/* ---- routing by destination --------------------------------------------
 *
 * The packing step of every k-mer exchange, and of the overlap and read
 * requests: rows go into one buffer ordered by destination rank, then by
 * their order in the input.  That is a counting sort: count the rows per
 * destination, turn the counts into each destination's first row, scatter.
 * The scatter is stable, so every destination receives its rows in input
 * order, as NumPy's stable argsort on the ranks gives them.  A k-mer's owner
 * is the paper's mix64(code) % n_ranks (section 4;
 * repro.kmers.hashing.owner_of).
 */

/* Turn counts[d] into the first row of destination d.  The scatter then
 * advances every start past its destination's rows, and `counts_back`
 * turns those ends back into counts. */
static void counts_to_starts(int64_t *counts, int64_t n_ranks)
{
    int64_t start = 0;
    for (int64_t d = 0; d < n_ranks; d++) {
        const int64_t count = counts[d];
        counts[d] = start;
        start += count;
    }
}

static void counts_back(int64_t *ends, int64_t n_ranks)
{
    for (int64_t d = n_ranks - 1; d > 0; d--)
        ends[d] -= ends[d - 1];
}

/* bucket_by_destination and bucket_by_owner: scatter n rows of `width`
 * 8-byte words into `out` (n * width words) in destination order, and the
 * rows per destination into counts[0 .. n_ranks).
 *
 * dest[i] is row i's destination; when `dest` is NULL it is the owner of
 * the row's word 0, kept for the scatter in the caller's n-entry `owner`
 * column.  Returns 0, or -1 (with `out` unwritten) when a destination lies
 * outside [0, n_ranks) or owners are asked of no ranks. */
int64_t route_rows(const uint64_t *rows, int64_t n, int64_t width,
                   const int64_t *dest, int64_t n_ranks, uint32_t *owner,
                   uint64_t *out, int64_t *counts)
{
    for (int64_t d = 0; d < n_ranks; d++)
        counts[d] = 0;
    if (n > 0 && n_ranks <= 0)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t d;
        if (dest) {
            d = dest[i];
            if (d < 0 || d >= n_ranks)
                return -1;
        } else {
            d = (int64_t)(mix64(rows[i * width]) % (uint64_t)n_ranks);
            owner[i] = (uint32_t)d;
        }
        counts[d]++;
    }
    counts_to_starts(counts, n_ranks);
    for (int64_t i = 0; i < n; i++) {
        const int64_t d = dest ? dest[i] : (int64_t)owner[i];
        uint64_t *to = out + counts[d]++ * width;
        for (int64_t w = 0; w < width; w++)
            to[w] = rows[i * width + w];
    }
    counts_back(counts, n_ranks);
    return 0;
}

/* The occurrence exchange's packing.  Occurrence i, with rid =
 * rids[read_index[i]], goes to the owner of codes[i] as the occurrence key
 * (repro.kmers.hashtable.occurrence_key_bits)
 *     code << (rid_bits + position_bits + 1) | rid << (position_bits + 1)
 *          | position << 1 | strand
 * when the fields leave room for a code (code_shift = rid_bits +
 * position_bits + 1 < 64), else as the two-word row (code, payload) whose
 * payload is that key's low 63 bits at rid_bits = 32, position_bits = 31.
 * The caller passes one of those layouts.  Rows are written straight into
 * `out` (n or 2n words) in destination order, so no row is staged in input
 * order and no RID column is gathered.  `owner` is the caller's n-entry
 * scratch column.  Returns 0, or (nothing written) -1 when a read index
 * lies outside [0, n_rids) or owners are asked of no ranks, and -2, -3 or
 * -4 when a code, a RID or a position does not fit its width (RIDs and
 * positions are read as uint64, so a negative one does not fit either). */
int64_t route_occurrences(const uint64_t *codes, const int64_t *read_index,
                          const int64_t *rids, int64_t n_rids,
                          const int64_t *positions, const uint8_t *strands,
                          int64_t n, int64_t n_ranks, int64_t rid_bits,
                          int64_t position_bits, uint32_t *owner,
                          uint64_t *out, int64_t *counts)
{
    const int64_t code_shift = rid_bits + position_bits + 1;
    const int64_t width = code_shift < 64 ? 1 : 2;
    uint64_t code_or = 0, rid_or = 0, position_or = 0;
    for (int64_t d = 0; d < n_ranks; d++)
        counts[d] = 0;
    if (n > 0 && n_ranks <= 0)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        if (read_index[i] < 0 || read_index[i] >= n_rids)
            return -1;
        const uint32_t d = (uint32_t)(mix64(codes[i]) % (uint64_t)n_ranks);
        owner[i] = d;
        counts[d]++;
        code_or |= codes[i];
        rid_or |= (uint64_t)rids[read_index[i]];
        position_or |= (uint64_t)positions[i];
    }
    if (width == 1 && code_or >> (64 - code_shift))
        return -2;
    if (rid_or >> rid_bits)
        return -3;
    if (position_or >> position_bits)
        return -4;
    counts_to_starts(counts, n_ranks);
    for (int64_t i = 0; i < n; i++) {
        uint64_t *to = out + width * counts[owner[i]]++;
        const uint64_t payload = (uint64_t)rids[read_index[i]] << (position_bits + 1)
                                 | (uint64_t)positions[i] << 1 | strands[i];
        if (width == 1) {
            to[0] = codes[i] << code_shift | payload;
        } else {
            to[0] = codes[i];
            to[1] = payload;
        }
    }
    counts_back(counts, n_ranks);
    return 0;
}

/* ---- HyperLogLog register max ------------------------------------------
 *
 * HyperLogLog.add_many: code c hashes to h = mix64(c); register h >> (64 - p)
 * takes the maximum of itself and the rank of r = h << p, the number of
 * leading zeros of r plus one (64 - p + 1 when r is 0).
 *
 * The NumPy body finds the leading one of r as floor(log2(double(r))).  The
 * conversion rounds r to 53 bits and log2 rounds its result, so when the
 * bits after the leading one are nearly all ones the rank it gives can be
 * one below the exact rank.  Such a code is not ranked here: it goes to
 * `deferred`, and the caller runs the NumPy body on the deferred codes, so
 * the registers end up exactly as the NumPy body leaves them (a maximum does
 * not depend on the order of its updates).  A code is deferred when the
 * HLL_GUARD bits after r's leading one are all ones; any other r lies below
 * 2^(b+1) - 2^(b - HLL_GUARD) for leading bit b, so double(r) does too and
 * log2 stays more than 2^-33 / ln 2 (over 10^4 ulps at 64) below b + 1.  A
 * random code is deferred with probability 2^-32.
 */

#define HLL_GUARD 32

/* Returns the number of codes written to `deferred` (the caller's n-entry
 * column); the other codes are added to the 2^precision `registers`. */
int64_t hll_add(const uint64_t *codes, int64_t n, int64_t precision,
                uint8_t *registers, uint64_t *deferred)
{
    const uint64_t guard = ((1ULL << HLL_GUARD) - 1) << (63 - HLL_GUARD);
    int64_t n_deferred = 0;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t h = mix64(codes[i]);
        const uint64_t r = h << precision;
        uint8_t rank;
        if (r == 0) {
            rank = (uint8_t)(64 - precision + 1);
        } else {
            const int zeros = __builtin_clzll(r);
            if (((r << zeros) & guard) == guard) {
                deferred[n_deferred++] = codes[i];
                continue;
            }
            rank = (uint8_t)(zeros + 1);
        }
        uint8_t *reg = registers + (h >> (64 - precision));
        if (rank > *reg)
            *reg = rank;
    }
    return n_deferred;
}
