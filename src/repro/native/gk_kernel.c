/* Native GK batch kernel over int64 keys, state-identical to the sequential
 * semantics of repro.summaries.gk (_insert + _compress) and to the Python
 * batch kernel (_GKBase._process_batch): same tuples, same n /
 * since_compress / max_item_count trajectory.
 *
 * Schedule.  The batch is cut into chunks that end exactly at a compress
 * boundary (the first chunk tops up the current period), so no compress
 * ever runs mid-chunk.  Each chunk is applied in four steps:
 *
 *  1. Delta of every value, in arrival order.  Sequential insertion gives a
 *     value delta 0 iff it lands at either end of the tuple list, else
 *     floor(2 eps n) - 1 (clamped at 0).  Within a chunk the old tuples do
 *     not move, so a value strictly inside [min, max) of the chunk's old
 *     tuples is interior whatever its fresh neighbours are; a value outside
 *     is a new extreme iff it beats the running fresh extreme on its side
 *     (strictly below the fresh minimum, or not below the fresh maximum --
 *     the bisect_right tie rule).  floor(2 eps n) advances by a quotient and
 *     remainder step per value instead of a division.
 *  2. One stable sort of the chunk's (key, delta) pairs: equal keys keep
 *     arrival order, as repeated bisect_right insertion leaves them.
 *  3. One backward merge splices the sorted pairs into the tuple arrays
 *     (g = 1); on equal keys the old tuple stays first, again as
 *     bisect_right places a new value after every equal stored one.
 *  4. If the chunk ends the period, one compress pass at the trigger
 *     value's n: the right-to-left scan of the Python compress, run over a
 *     "live successor" index instead of shrinking arrays, marks deleted
 *     tuples, and one forward sweep compacts them.  Deletions only ever
 *     remove tuples right of the scan position, so every index the scan
 *     still reads is live and unmoved -- the decisions are the Python ones.
 *
 * A period of P values over s tuples thus costs O(P log P + s) instead of
 * the O(P * s) of shifting the arrays once per insert and once per deleted
 * run.  max_item_count follows _process_batch: the chunk's last pre-compress
 * size, then the post-compress size.
 *
 * All arithmetic that could overflow int64 is either guarded Python-side
 * (n + batch_len < 2^40, eps_p/eps_q < 2^62, values fit int64) or widened
 * to __int128 (the initial threshold product eps_p * n).  The library keeps
 * no global state; all scratch comes from the caller.
 */

#include <stdint.h>
#include <string.h>

/* Stable insertion-sort run length of the chunk sort. */
#define SORT_RUN 32

/* Stable sort of m interleaved (key, delta) pairs by key.  Returns the
 * buffer (pairs or tmp) holding the sorted result. */
static int64_t *sort_pairs(int64_t *pairs, int64_t *tmp, int64_t m) {
    for (int64_t lo = 0; lo < m; lo += SORT_RUN) {
        int64_t hi = lo + SORT_RUN < m ? lo + SORT_RUN : m;
        for (int64_t k = lo + 1; k < hi; k++) {
            int64_t key = pairs[2 * k];
            int64_t delta = pairs[2 * k + 1];
            int64_t j = k;
            while (j > lo && pairs[2 * (j - 1)] > key) {
                pairs[2 * j] = pairs[2 * (j - 1)];
                pairs[2 * j + 1] = pairs[2 * (j - 1) + 1];
                j--;
            }
            pairs[2 * j] = key;
            pairs[2 * j + 1] = delta;
        }
    }
    int64_t *src = pairs, *dst = tmp;
    for (int64_t width = SORT_RUN; width < m; width *= 2) {
        for (int64_t lo = 0; lo < m; lo += 2 * width) {
            int64_t mid = lo + width < m ? lo + width : m;
            int64_t hi = lo + 2 * width < m ? lo + 2 * width : m;
            int64_t a = lo, b = mid, w = lo;
            if (mid == hi || src[2 * (mid - 1)] <= src[2 * mid]) {
                memcpy(dst + 2 * lo, src + 2 * lo,
                       (size_t)(hi - lo) * 2 * sizeof(int64_t));
                continue;
            }
            while (a < mid && b < hi) {
                /* Ties take the left run first: the merge stays stable. */
                int64_t from = src[2 * b] < src[2 * a] ? b++ : a++;
                dst[2 * w] = src[2 * from];
                dst[2 * w + 1] = src[2 * from + 1];
                w++;
            }
            if (a < mid) {
                memcpy(dst + 2 * w, src + 2 * a,
                       (size_t)(mid - a) * 2 * sizeof(int64_t));
            } else if (b < hi) {
                memcpy(dst + 2 * w, src + 2 * b,
                       (size_t)(hi - b) * 2 * sizeof(int64_t));
            }
        }
        int64_t *swap = src;
        src = dst;
        dst = swap;
    }
    return src;
}

/* Splice m sorted fresh (key, delta) pairs into `size` live tuples (the
 * arrays have room for size + m); returns the new size. */
static int64_t splice(int64_t *vals, int64_t *gs, int64_t *deltas,
                      int64_t size, const int64_t *sorted, int64_t m) {
    int64_t i = size - 1, j = m - 1, w = size + m - 1;
    while (j >= 0) {
        int64_t key = sorted[2 * j];
        if (i >= 0 && vals[i] > key) {
            vals[w] = vals[i];
            gs[w] = gs[i];
            deltas[w] = deltas[i];
            i--;
        } else {
            vals[w] = key;
            gs[w] = 1;
            deltas[w] = sorted[2 * j + 1];
            j--;
        }
        w--;
    }
    return size + m;
}

/* Drop the tuples whose mark is negative, from index `first` on (every
 * tuple before it is live).  Returns the new size. */
static int64_t compact(int64_t *vals, int64_t *gs, int64_t *deltas,
                       int64_t size, const int64_t *marks, int64_t first) {
    int64_t w = first;
    for (int64_t r = first; r < size; r++) {
        vals[w] = vals[r];
        gs[w] = gs[r];
        deltas[w] = deltas[r];
        w += marks[r] >= 0;
    }
    return w;
}

/* Band-based compress (GreenwaldKhanna._compress); bands is scratch. */
static int64_t compress_band(int64_t *vals, int64_t *gs, int64_t *deltas,
                             int64_t size, int64_t threshold, int64_t *bands) {
    if (threshold < 1 || size < 3) {
        return size;
    }
    /* Band alpha >= 1 holds deltas in (limit[alpha], limit[alpha - 1]],
     * limit[alpha] = p - 2^alpha - (p mod 2^alpha) and limit[0] = p - 1;
     * band 0 holds delta >= p (gk._band).  A band-alpha width p - delta
     * lies in [2^(alpha-1), 2^(alpha+1)), so alpha is bit_length(width) or
     * one less: one table probe decides.  p < 2^41 (Python-side guard), so
     * no limit overflows. */
    int64_t p = threshold;
    int64_t limit[63];
    limit[0] = p - 1;
    for (int alpha = 1; alpha < 63; alpha++) {
        int64_t wide = (int64_t)1 << alpha;
        limit[alpha] = p - wide - (p & (wide - 1));
    }
    for (int64_t k = 0; k < size; k++) {
        int64_t delta = deltas[k];
        int64_t width = p - delta > 0 ? p - delta : 1;
        int alpha = 63 - __builtin_clzll((uint64_t)width);
        alpha = alpha > 1 ? alpha : 1;
        alpha += delta <= limit[alpha];
        bands[k] = delta >= p ? 0 : alpha;
    }
    int64_t succ = size - 1, first_deleted = size;
    int64_t i = size - 2;
    while (i >= 1) {
        int64_t band = bands[i];
        if (band <= bands[succ]) {
            int64_t start = i;
            int64_t g_total = gs[i];
            while (start - 1 >= 1 && bands[start - 1] < band) {
                start -= 1;
                g_total += gs[start];
            }
            if (g_total + gs[succ] + deltas[succ] < threshold) {
                gs[succ] += g_total;
                for (int64_t k = start; k <= i; k++) {
                    bands[k] = -1;
                }
                first_deleted = start;
                i = start - 1;
                continue;
            }
        }
        succ = i;
        i -= 1;
    }
    return compact(vals, gs, deltas, size, bands, first_deleted);
}

/* Greedy compress (GreenwaldKhannaGreedy._compress); marks is scratch. */
static int64_t compress_greedy(int64_t *vals, int64_t *gs, int64_t *deltas,
                               int64_t size, int64_t threshold,
                               int64_t *marks) {
    if (threshold < 1 || size < 3) {
        return size;
    }
    int64_t succ = size - 1, first_deleted = size;
    marks[size - 1] = 0;
    for (int64_t i = size - 2; i >= 1; i--) {
        if (gs[i] + gs[succ] + deltas[succ] < threshold) {
            gs[succ] += gs[i];
            marks[i] = -1;
            first_deleted = i;
        } else {
            marks[i] = 0;
            succ = i;
        }
    }
    return compact(vals, gs, deltas, size, marks, first_deleted);
}

/* Apply a batch of int64 keys to GK tuple state.
 *
 * vals/gs/deltas hold `size` live tuples and have capacity for
 * size + batch_len.  scratch holds size + batch_len mark entries followed
 * by 4 * min(period, batch_len) sort entries.  state is
 * [n, since_compress, max_item_count], updated in place.  Returns the new
 * tuple count.
 */
int64_t gk_batch(int64_t *vals, int64_t *gs, int64_t *deltas, int64_t size,
                 const int64_t *batch, int64_t batch_len, int64_t *state,
                 int64_t period, int64_t eps_p, int64_t eps_q, int32_t greedy,
                 int64_t *scratch) {
    int64_t n = state[0];
    int64_t since = state[1];
    int64_t max_count = state[2];
    int64_t chunk_cap = period < batch_len ? period : batch_len;
    int64_t *marks = scratch;
    int64_t *pairs = scratch + size + batch_len;
    int64_t *tmp = pairs + 2 * chunk_cap;
    /* floor(2 eps n) == threshold, carried with its remainder. */
    __int128 product = (__int128)eps_p * n;
    int64_t threshold = (int64_t)(product / eps_q);
    int64_t remainder = (int64_t)(product % eps_q);
    int64_t step = eps_p / eps_q, step_rem = eps_p % eps_q;
    int64_t start = 0;
    while (start < batch_len) {
        int64_t take = period - since;
        if (take < 1) {
            take = 1;
        }
        if (take > batch_len - start) {
            take = batch_len - start;
        }
        const int64_t *chunk = batch + start;
        int64_t low = size > 0 ? vals[0] : 0;
        int64_t high = size > 0 ? vals[size - 1] : 0;
        int64_t fresh_low = 0, fresh_high = 0;
        int has_low = 0, has_high = 0;
        int64_t compress_at = threshold;
        for (int64_t k = 0; k < take; k++) {
            int64_t v = chunk[k];
            int64_t delta = threshold > 0 ? threshold - 1 : 0;
            if (size == 0) {
                /* Empty summary (first chunk only): both fresh extremes. */
                if (!has_low) {
                    delta = 0;
                    fresh_low = fresh_high = v;
                    has_low = has_high = 1;
                } else if (v < fresh_low) {
                    delta = 0;
                    fresh_low = v;
                } else if (!(v < fresh_high)) {
                    delta = 0;
                    fresh_high = v;
                }
            } else if (v < low) {
                if (!has_low || v < fresh_low) {
                    delta = 0;
                    fresh_low = v;
                    has_low = 1;
                }
            } else if (v >= high) {
                if (!has_high || !(v < fresh_high)) {
                    delta = 0;
                    fresh_high = v;
                    has_high = 1;
                }
            }
            pairs[2 * k] = v;
            pairs[2 * k + 1] = delta;
            compress_at = threshold;
            threshold += step;
            remainder += step_rem;
            if (remainder >= eps_q) {
                remainder -= eps_q;
                threshold += 1;
            }
        }
        size = splice(vals, gs, deltas, size, sort_pairs(pairs, tmp, take),
                      take);
        start += take;
        n += take;
        since += take;
        if (since >= period) {
            /* Sequential processing sees the trigger value's count only
             * after compressing, at the trigger value's n. */
            if (size - 1 > max_count) {
                max_count = size - 1;
            }
            if (greedy) {
                size = compress_greedy(vals, gs, deltas, size, compress_at,
                                       marks);
            } else {
                size = compress_band(vals, gs, deltas, size, compress_at,
                                     marks);
            }
            since = 0;
        }
        if (size > max_count) {
            max_count = size;
        }
    }
    state[0] = n;
    state[1] = since;
    state[2] = max_count;
    return size;
}
