/* Compiled tier of the banded x-drop extension (repro.align.batched_xdrop).
 *
 * Runs, one task at a time in a scalar loop, exactly the recurrence of the
 * NumPy kernel `_extend_numpy`: the same sentinel, the same row-0
 * initialisation, diagonal / up / left predecessors, `band` cells per row,
 * first-maximum tie-break, x-drop and end-of-read exits and the batch-wide
 * row cap.  The arithmetic is integer and identical, so scores, spans and
 * cell counts are bit-identical to the NumPy kernel.
 *
 * Lanes are int32.  The caller guarantees
 *     (max len_a + max len_b + band) * max(|match|, |mismatch|, |gap|) < 2^30
 * so neither real scores nor sentinel-derived values (which drift below
 * NEG_INF by at most one penalty per row, as they do in the NumPy kernel)
 * can overflow.  The scratch rows come from the caller, so any band >= 3
 * works without a fixed-size stack array.
 *
 * Build: cc -O2 -shared -fPIC -o <lib>.so _xdrop.c
 */
#include <stdint.h>

#define NEG_INF (-(1 << 28))

static inline int32_t max32(int32_t x, int32_t y) { return x > y ? x : y; }

/* Extend n_tasks (a, b) pairs from their origin (0, 0).
 *
 * Task t aligns a[a_off[t] .. a_off[t+1]) against b[b_off[t] .. b_off[t+1]).
 * scratch holds 2 * (band + 1) int32; out receives n_tasks rows of
 * (score, length_a, length_b, cells).
 */
void xdrop_extend_batch(int64_t n_tasks,
                        const uint8_t *a, const int64_t *a_off,
                        const uint8_t *b, const int64_t *b_off,
                        int32_t match, int32_t mismatch, int32_t gap,
                        int64_t xdrop, int64_t band, int64_t max_rows,
                        int32_t *scratch, int64_t *out)
{
    const int64_t half = band / 2;
    for (int64_t t = 0; t < n_tasks; t++) {
        const uint8_t *ta = a + a_off[t];
        const uint8_t *tb = b + b_off[t];
        const int64_t la = a_off[t + 1] - a_off[t];
        const int64_t lb = b_off[t + 1] - b_off[t];
        /* Two rows of band + 1 slots; slot `band` stays NEG_INF, the up
         * neighbour of the last band slot. */
        int32_t *prev = scratch, *cur = scratch + band + 1;
        int64_t best = 0, best_i = 0, best_j = 0, cells = 0;

        prev[band] = cur[band] = NEG_INF;

        for (int64_t w = 0; w < band; w++) {
            const int64_t j = w - half;
            prev[w] = (j >= 0 && j <= lb) ? (int32_t)(gap * j) : NEG_INF;
        }

        for (int64_t row = 1; row <= max_rows; row++) {
            /* Band slot w holds column j = j0 + w; slots [lo, hi] are valid
             * (inside b, row inside a), all others hold NEG_INF. */
            const int64_t j0 = row - half;
            const int64_t lo = j0 < 0 ? -j0 : 0;
            int64_t hi = row <= la ? lb - j0 : -1;
            if (hi > band - 1)
                hi = band - 1;
            const uint8_t a_code = row <= la ? ta[row - 1] : 0;
            /* Masked slots bound the row maximum from below, as the NumPy
             * kernel's argmax over the whole band does. */
            int32_t row_best = (lo > 0 || hi < band - 1) ? NEG_INF : INT32_MIN;
            int64_t best_slot = -1;

            for (int64_t w = 0; w < lo; w++)
                cur[w] = NEG_INF;
            /* Left predecessor: a sequential scan equal to the NumPy
             * kernel's prefix-max identity.  Left of `lo` the scan holds
             * exactly NEG_INF (masked slots, non-positive gap).  Slot `lo`
             * is peeled: it may be column 0, which has no diagonal. */
            int32_t left = NEG_INF;
            if (lo <= hi) {
                const int64_t j = j0 + lo;
                const int32_t diag = j >= 1
                    ? prev[lo] + (tb[j - 1] == a_code ? match : mismatch)
                    : NEG_INF;
                const int32_t base = max32(diag, prev[lo + 1] + gap);
                left = lo == 0 ? base : max32(base, left + gap);
                cur[lo] = left;
                if (left > row_best) {
                    row_best = left;
                    best_slot = lo;
                }
            }
            for (int64_t w = lo + 1; w <= hi; w++) {
                const int32_t diag = prev[w] + (tb[j0 + w - 1] == a_code ? match : mismatch);
                left = max32(max32(diag, prev[w + 1] + gap), left + gap);
                cur[w] = left;
                if (left > row_best) {
                    row_best = left;
                    best_slot = w;
                }
            }
            for (int64_t w = hi < lo ? lo : hi + 1; w < band; w++)
                cur[w] = NEG_INF;
            cells += band;

            if (row_best > best) {
                best = row_best;
                best_i = row;
                best_j = j0 + best_slot;
            }
            if (!(row_best >= best - xdrop && row < la))
                break;

            int32_t *swap = prev;
            prev = cur;
            cur = swap;
        }

        out[4 * t + 0] = best;
        out[4 * t + 1] = best_i;
        out[4 * t + 2] = best_j;
        out[4 * t + 3] = cells;
    }
}
