/* Block-Max WAND DAAT walk behind Searcher.scores_topk_wand
 * (pipelines/search.py).  Semantics are a LINE-FOR-LINE mirror of the
 * reference Python walk (wand_topk_py in tests/test_wand.py) so ranks
 * and scores stay bitwise identical:
 *
 *  - live lists sorted by (current doc, term order) each iteration
 *    (Python: stable sort of term-ordered `lists` by cursor doc);
 *  - pivot = first cursor prefix whose term-ORDER-folded upper bounds
 *    could still beat theta (>= on the score component only);
 *  - aligned prefix: block-max refinement bound and the score both
 *    folded in term order; tuple compare (score, -doc) exactly like
 *    Python tuple comparison (equality first, then element compare —
 *    NaN-propagation identical);
 *  - k-bounded binary min-heap of (score, -doc) keys (heapq order).
 *
 * Compile with -ffp-contract=off: FMA contraction would change the
 * IEEE rounding of the folds and break bitwise parity with numpy.
 */

#include <stdint.h>

typedef struct { double s; int64_t negdoc; } key_t_;

/* Python tuple ordering: (s1,-d1) < (s2,-d2) */
static int key_lt(key_t_ a, key_t_ b) {
    if (a.s == b.s) return a.negdoc < b.negdoc;
    return a.s < b.s;
}

static void heap_siftdown(key_t_ *h, long startpos, long pos) {
    key_t_ item = h[pos];
    while (pos > startpos) {
        long parent = (pos - 1) >> 1;
        if (key_lt(item, h[parent])) { h[pos] = h[parent]; pos = parent; }
        else break;
    }
    h[pos] = item;
}

static void heap_siftup(key_t_ *h, long pos, long n) {
    long startpos = pos, child = 2 * pos + 1;
    key_t_ item = h[pos];
    while (child < n) {
        if (child + 1 < n && !key_lt(h[child], h[child + 1])) child += 1;
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h[pos] = item;
    heap_siftdown(h, startpos, pos);
}

static void heap_push(key_t_ *h, long *n, key_t_ item) {
    h[*n] = item;
    *n += 1;
    heap_siftdown(h, 0, *n - 1);
}

static void heap_replace_root(key_t_ *h, long n, key_t_ item) {
    h[0] = item;
    heap_siftup(h, 0, n);
}

/* lower_bound (np.searchsorted side="left") on sorted int64 */
static long lower_bound(const int64_t *a, long lo, long hi, int64_t x) {
    while (lo < hi) {
        long mid = (lo + hi) >> 1;
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

#define MAX_TERMS 64

long wand_topk(
    long m,
    const long *n_per_term,
    const int64_t **ids_list,
    const double **part_list,
    const double **bmax_list,
    const double *ub,
    long bs,
    int bm25,
    double inv_norm_bound,
    const int64_t *stat_ids,
    const double *norm,
    long n_stats,
    long k,
    int64_t *out_ids,
    double *out_scores)
{
    if (m <= 0 || m > MAX_TERMS || k <= 0) return -1;
    long cursor[MAX_TERMS];
    long live[MAX_TERMS];       /* term indexes, (curdoc, term) sorted */
    long prefix[MAX_TERMS];     /* scratch: term-order-sorted subsets  */
    key_t_ heap[4096];
    if (k > 4096) return -1;
    long heap_n = 0;
    for (long t = 0; t < m; t++) cursor[t] = 0;

    for (;;) {
        /* live lists, sorted by (current doc, term order) — insertion
         * sort; m is the query term count */
        long nl = 0;
        for (long t = 0; t < m; t++) {
            if (cursor[t] >= n_per_term[t]) continue;
            int64_t d = ids_list[t][cursor[t]];
            long j = nl;
            while (j > 0) {
                long o = live[j - 1];
                int64_t od = ids_list[o][cursor[o]];
                if (od > d) { live[j] = live[j - 1]; j--; }
                else break;  /* stable: equal docs keep term order */
            }
            live[j] = t;
            nl++;
        }
        if (nl == 0) break;

        int have_theta = heap_n >= k;
        double theta_s = have_theta ? heap[0].s : 0.0;
        int64_t theta_negdoc = have_theta ? heap[0].negdoc : 0;

        /* pivot: term-order fold of each cursor prefix's ubs */
        long pivot = -1;
        for (long i = 0; i < nl; i++) {
            long np_ = 0;
            for (long j = 0; j <= i; j++) {  /* collect + insertion sort */
                long t = live[j], q = np_;
                while (q > 0 && prefix[q - 1] > t) {
                    prefix[q] = prefix[q - 1]; q--;
                }
                prefix[q] = t;
                np_++;
            }
            double cum = 0.0;
            for (long j = 0; j < np_; j++) cum += ub[prefix[j]];
            if (!have_theta || cum * inv_norm_bound >= theta_s) {
                pivot = i;
                break;
            }
        }
        if (pivot < 0) break;

        long pl = live[pivot];
        int64_t pivot_doc = ids_list[pl][cursor[pl]];

        if (ids_list[live[0]][cursor[live[0]]] == pivot_doc) {
            /* aligned prefix at pivot_doc, term order */
            long na = 0;
            for (long j = 0; j < nl; j++) {
                long t = live[j];
                if (ids_list[t][cursor[t]] != pivot_doc) break;
                long q = na;
                while (q > 0 && prefix[q - 1] > t) {
                    prefix[q] = prefix[q - 1]; q--;
                }
                prefix[q] = t;
                na++;
            }
            double nv;
            if (bm25) nv = 1.0;
            else {
                long pos = lower_bound(stat_ids, 0, n_stats, pivot_doc);
                if (pos >= n_stats) pos = n_stats - 1;  /* unreachable:
                    every scored doc has a docstats row */
                nv = norm[pos];
            }
            double blockub = 0.0;
            for (long j = 0; j < na; j++) {
                long t = prefix[j];
                blockub += bmax_list[t][cursor[t] / bs];
            }
            key_t_ bound = { blockub / nv, -pivot_doc };
            /* Python: theta is None or bound_key > theta (tuple) */
            int enter = !have_theta;
            if (!enter) {
                key_t_ th = { theta_s, theta_negdoc };
                enter = key_lt(th, bound);   /* bound > theta */
            }
            if (enter) {
                double s = 0.0;
                for (long j = 0; j < na; j++) {
                    long t = prefix[j];
                    s += part_list[t][cursor[t]];
                }
                key_t_ keyv = { s / nv, -pivot_doc };
                if (heap_n < k) heap_push(heap, &heap_n, keyv);
                else if (key_lt(heap[0], keyv))
                    heap_replace_root(heap, heap_n, keyv);
            }
            for (long j = 0; j < na; j++) cursor[prefix[j]] += 1;
        } else {
            /* advance every list before the pivot to >= pivot_doc */
            for (long j = 0; j < pivot; j++) {
                long t = live[j];
                cursor[t] = lower_bound(
                    ids_list[t], cursor[t], n_per_term[t], pivot_doc);
            }
        }
    }

    /* heap -> (score desc, doc asc): sort keys DESCENDING by tuple
     * order (Python heap.sort(reverse=True)); insertion sort, k small */
    for (long i = 1; i < heap_n; i++) {
        key_t_ item = heap[i];
        long j = i;
        while (j > 0 && key_lt(heap[j - 1], item)) {
            heap[j] = heap[j - 1]; j--;
        }
        heap[j] = item;
    }
    for (long i = 0; i < heap_n; i++) {
        out_ids[i] = -heap[i].negdoc;
        out_scores[i] = heap[i].s;
    }
    return heap_n;
}
