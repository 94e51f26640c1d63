/* The compiled tier of the pipeline: one C library, loaded through ctypes
 * by repro.native, holding the four hot loops that have a NumPy body as
 * their reference and fallback:
 *
 *   xdrop_extend_batch  the banded x-drop extension of stage 4
 *                       (repro.align.batched_xdrop._extend_numpy);
 *   bloom_test,         the Bloom filter's membership test and its
 *   bloom_insert        test-then-set of stage 1
 *                       (repro.kmers.bloom.BloomFilter);
 *   key_gate            stage 2's candidate-key gate
 *                       (repro.kmers.hashtable.key_mask);
 *   extract_kmers       the batch k-mer extraction of every stage
 *                       (repro.seq.kmer.extract_kmers_batch).
 *
 * Every entry point computes exactly what its NumPy body computes, so the
 * two tiers are interchangeable bit for bit.  All memory comes from the
 * caller: the library allocates nothing.
 *
 * Build: cc -O2 -shared -fPIC -o <lib>.so _native.c
 */

#include <stdint.h>

/* ---- banded x-drop extension -------------------------------------------
 *
 * One task per vector lane.  Tasks are taken in groups of `lanes`; the lanes
 * of a group step through DP rows together, and every lane runs exactly the
 * recurrence of the NumPy kernel `_extend_numpy`: the same sentinel, the
 * same row-0 initialisation, diagonal / up / left predecessors, `band` cells
 * per row, first-maximum tie-break, x-drop and end-of-read exits and the
 * batch-wide row cap.  The arithmetic is integer and identical, so scores,
 * spans and cell counts are bit-identical to the NumPy kernel.  Per-lane
 * masks cover the band edges (slots outside b or past the end of a) and
 * lanes whose task has finished; a finished lane computes only sentinel
 * rows until the whole group is done.  The caller orders tasks by length so
 * that the lanes of a group finish together.
 *
 * Lane width and dispatch.  `xdrop_lanes` picks the widest width this CPU
 * runs: 16 lanes with AVX-512F+BW, 8 with AVX2, otherwise 4.  The wide
 * kernels are compiled through `__attribute__((target(...)))`, so the build
 * command carries no -m flag: the library cache key (source, command,
 * machine name) cannot tell two x86-64 CPUs apart, and a library built with
 * -mavx512f would be reused on a CPU without AVX-512 and die with SIGILL.
 * The 4-lane kernel uses the baseline instruction set (SSE2 on x86-64) and
 * runs on any host GCC's vector extensions target, so no scalar loop is
 * kept beside it.  There is no 8-lane kernel without AVX2: emulated 256-bit
 * vectors ran slower than a scalar loop.
 *
 * Lanes are int32.  The caller guarantees
 *     (max len_a + max len_b + band) * max(|match|, |mismatch|, |gap|) < 2^30
 * so neither real scores nor sentinel-derived values (which drift below
 * NEG_INF by at most one penalty per row, as they do in the NumPy kernel)
 * can overflow.  The same bound makes the int32 x-drop test exact: see
 * `xdrop_extend_batch`.
 *
 * The caller's `scratch` holds the two DP rows of a group and its a and b
 * codes, interleaved lane-major.  The codes
 * are widened to int32 as they are interleaved, so a cell compares one
 * loaded vector: GCC 12 at -O2 lowers a uint8-to-int32
 * `__builtin_convertvector` to one scalar extract per lane, which made
 * uint8 codes run the 16-lane kernel 2.4x slower.
 */

#define NEG_INF (-(1 << 28))
/* Fills the lanes of a code block past their task's end; never read
 * unmasked. */
#define PAD_CODE 0xFF

/* Lane-wise select and maximum on vector operands; `m` is a comparison
 * result (all ones or all zeros per lane). */
#define SEL(m, x, y) (((m) & (x)) | (~(m) & (y)))
#define VMAX(x, y) SEL((x) > (y), (x), (y))

/* LANE_KERNEL(L, TARGET) defines extend_lanes<L>, the kernel at L lanes.
 *
 * Task t aligns a[a_off[t] .. a_off[t+1]) against b[b_off[t] .. b_off[t+1]).
 * scratch holds at least
 *     16 + L * (2 * (band + 1) + max_rows + min(max len_b, max_rows + band))
 * int32: 64 bytes of alignment slack, two DP rows of band + 1 lane vectors,
 * then one group's a codes (one vector per row) and b codes (one vector per
 * column, up to one band past the last row).  out receives n_tasks rows of
 * (score, length_a, length_b, cells).
 *
 * Slot w of a DP row is vector w, lane l holding task g + l; slot `band` of
 * both rows stays NEG_INF, the up neighbour of the last band slot.
 */
#define LANE_KERNEL(L, TARGET)                                                \
TARGET static void extend_lanes##L(                                           \
    int64_t n_tasks, const uint8_t *a, const int64_t *a_off,                  \
    const uint8_t *b, const int64_t *b_off, int32_t match, int32_t mismatch,  \
    int32_t gap, int32_t xdrop, int32_t band, int32_t max_rows,               \
    int32_t *scratch, int64_t *out)                                           \
{                                                                             \
    typedef int32_t vi __attribute__((vector_size(4 * L)));                   \
    const int32_t half = band / 2;                                            \
    const vi neg = (vi){} + NEG_INF;                                          \
    const vi gapv = (vi){} + gap;                                             \
    const vi mismatchv = (vi){} + mismatch;                                   \
    const vi bonus = (vi){} + (match - mismatch);                             \
    vi *const rows = (vi *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);      \
    vi *const block_a = rows + 2 * (band + 1);                                \
                                                                              \
    for (int64_t g = 0; g < n_tasks; g += L) {                                \
        const int64_t n_lanes = n_tasks - g < L ? n_tasks - g : L;            \
        vi la = (vi){}, lb = (vi){}, active = (vi){};                         \
        int64_t rows_a = 0, rows_b = 0;                                       \
        for (int64_t l = 0; l < n_lanes; l++) {                               \
            const int64_t len_a = a_off[g + l + 1] - a_off[g + l];            \
            const int64_t len_b = b_off[g + l + 1] - b_off[g + l];            \
            const int64_t need_a = len_a < max_rows ? len_a : max_rows;       \
            const int64_t reach_b = need_a + band;                            \
            const int64_t need_b = len_b < reach_b ? len_b : reach_b;         \
            la[l] = (int32_t)len_a;                                           \
            lb[l] = (int32_t)len_b;                                           \
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
            const uint8_t *ta = a + a_off[g + l], *tb = b + b_off[g + l];     \
            const int64_t copy_a = la[l] < rows_a ? la[l] : rows_a;           \
            const int64_t copy_b = lb[l] < rows_b ? lb[l] : rows_b;           \
            for (int64_t j = 0; j < copy_a; j++)                              \
                block_a[j][l] = ta[j];                                        \
            for (int64_t j = 0; j < copy_b; j++)                              \
                block_b[j][l] = tb[j];                                        \
        }                                                                     \
                                                                              \
        vi *prev = rows, *cur = rows + band + 1;                              \
        vi best = (vi){}, best_i = (vi){}, best_j = (vi){};                   \
        vi last_row = (vi){};                                                 \
        prev[band] = cur[band] = neg;                                         \
        for (int32_t w = 0; w < band; w++) {                                  \
            const vi j = (vi){} + (w - half);                                 \
            prev[w] = SEL((j >= 0) & (j <= lb), j * gap, neg);                \
        }                                                                     \
                                                                              \
        for (int32_t row = 1; row <= max_rows; row++) {                       \
            /* Band slot w holds column j = j0 + w; slots [lo, hi] of a lane  \
             * are valid (inside b, row inside a), all others hold NEG_INF.   \
             * A finished lane has no valid slot. */                          \
            const int32_t j0 = row - half;                                    \
            const int32_t lo = j0 < 0 ? -j0 : 0;                              \
            const vi reach = lb - j0;                                         \
            vi hi = SEL(reach < band - 1, reach, (vi){} + (band - 1));        \
            hi = SEL(active & (row <= la), hi, (vi){} - 1);                   \
            int32_t hi_max = -1;                                              \
            for (int l = 0; l < L; l++)                                       \
                hi_max = hi[l] > hi_max ? hi[l] : hi_max;                     \
            /* Masked slots bound the row maximum from below, as the NumPy    \
             * kernel's argmax over the whole band does. */                   \
            vi row_best = SEL(((vi){} + lo > 0) | (hi < band - 1), neg,       \
                              (vi){} + INT32_MIN);                            \
            vi best_slot = (vi){} - 1;                                        \
                                                                              \
            for (int32_t w = 0; w < lo; w++)                                  \
                cur[w] = neg;                                                 \
            if (lo <= hi_max) {                                               \
                const vi a_code = block_a[row - 1];                           \
                /* Left predecessor: a sequential scan equal to the NumPy     \
                 * kernel's prefix-max identity.  Left of `lo` the scan       \
                 * holds exactly NEG_INF (masked slots, non-positive gap).    \
                 * Slot `lo` is peeled: it may be column 0, which has no      \
                 * diagonal. */                                               \
                vi left = neg;                                                \
                {                                                             \
                    vi diag = neg;                                            \
                    if (j0 + lo >= 1) {                                       \
                        const vi eq = block_b[j0 + lo - 1] == a_code;         \
                        diag = prev[lo] + mismatchv + (eq & bonus);           \
                    }                                                         \
                    const vi up = prev[lo + 1] + gapv;                        \
                    const vi base = VMAX(diag, up);                           \
                    const vi chained = left + gapv;                           \
                    left = lo == 0 ? base : VMAX(base, chained);              \
                    const vi value = SEL(lo <= hi, left, neg);                \
                    cur[lo] = value;                                          \
                    const vi improved = value > row_best;                     \
                    row_best = SEL(improved, value, row_best);                \
                    best_slot = SEL(improved, (vi){} + lo, best_slot);        \
                }                                                             \
                for (int32_t w = lo + 1; w <= hi_max; w++) {                  \
                    const vi eq = block_b[j0 + w - 1] == a_code;              \
                    const vi diag = prev[w] + mismatchv + (eq & bonus);       \
                    const vi up = prev[w + 1] + gapv;                         \
                    const vi base = VMAX(diag, up);                           \
                    const vi chained = left + gapv;                           \
                    left = VMAX(base, chained);                               \
                    const vi value = SEL(w <= hi, left, neg);                 \
                    cur[w] = value;                                           \
                    const vi improved = value > row_best;                     \
                    row_best = SEL(improved, value, row_best);                \
                    best_slot = SEL(improved, (vi){} + w, best_slot);         \
                }                                                             \
            }                                                                 \
            for (int32_t w = hi_max < lo ? lo : hi_max + 1; w < band; w++)    \
                cur[w] = neg;                                                 \
                                                                              \
            const vi improved = active & (row_best > best);                   \
            best = SEL(improved, row_best, best);                             \
            best_i = SEL(improved, (vi){} + row, best_i);                     \
            best_j = SEL(improved, best_slot + j0, best_j);                   \
            last_row = SEL(active, (vi){} + row, last_row);                   \
            active &= (row_best >= best - xdrop) & (row < la);                \
            int any = 0;                                                      \
            for (int l = 0; l < L; l++)                                       \
                any |= active[l];                                             \
            if (!any)                                                         \
                break;                                                        \
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

#if defined(__x86_64__) || defined(__i386__)
#define X86 1
LANE_KERNEL(16, __attribute__((target("avx512f,avx512bw"))))
LANE_KERNEL(8, __attribute__((target("avx2"))))
#endif
LANE_KERNEL(4, )

/* The widest lane count this CPU runs: 16, 8 or 4. */
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

/* Extend n_tasks (a, b) pairs from their origin (0, 0) at `lanes` lanes.
 *
 * Returns 0, or -1 (doing nothing) when `lanes` is not a width this CPU
 * runs.  `xdrop` is taken into int32 by clamping at INT32_MAX, which keeps
 * the x-drop test `row_best >= best - xdrop` exact: best lies in [0, 2^30)
 * and every row maximum above -(2^28 + 2^30) (the int32 bound above), so
 * any xdrop >= 2^30 + 2^28 passes every lane, clamped or not, and a smaller
 * one is represented exactly.
 */
int xdrop_extend_batch(int64_t lanes, int64_t n_tasks,
                       const uint8_t *a, const int64_t *a_off,
                       const uint8_t *b, const int64_t *b_off,
                       int32_t match, int32_t mismatch, int32_t gap,
                       int64_t xdrop, int64_t band, int64_t max_rows,
                       int32_t *scratch, int64_t *out)
{
    const int32_t x = xdrop > INT32_MAX ? INT32_MAX : (int32_t)xdrop;
    if (lanes > xdrop_lanes())
        return -1;
    switch (lanes) {
#ifdef X86
    case 16:
        extend_lanes16(n_tasks, a, a_off, b, b_off, match, mismatch, gap, x,
                       (int32_t)band, (int32_t)max_rows, scratch, out);
        return 0;
    case 8:
        extend_lanes8(n_tasks, a, a_off, b, b_off, match, mismatch, gap, x,
                      (int32_t)band, (int32_t)max_rows, scratch, out);
        return 0;
#endif
    case 4:
        extend_lanes4(n_tasks, a, a_off, b, b_off, match, mismatch, gap, x,
                      (int32_t)band, (int32_t)max_rows, scratch, out);
        return 0;
    default:
        return -1;
    }
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

/* key_mask: keep[i] = 1 when codes[i * stride] is one of the n_keys keys.
 * The keys go into an open-addressing set in `table` (n_keys + 1 or more
 * zeroed words) and every code probes it; `stride` (in words) lets the
 * caller pass a column of a row-major array without copying it. */
void key_gate(const uint64_t *keys, int64_t n_keys, uint64_t *table,
              uint64_t words, const uint64_t *codes, int64_t n_codes,
              int64_t stride, uint8_t *keep)
{
    int has_max = 0;
    for (int64_t i = 0; i < n_keys; i++)
        set_add(table, words, &has_max, keys[i]);
    for (int64_t i = 0; i < n_codes; i++)
        keep[i] = (uint8_t)set_has(table, words, has_max, codes[i * stride]);
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
