/* The batch kernel's replay pass (repro.cache.batch), compiled: one call
 * replays one window of accesses against group residency and totals the
 * outcomes, the work Residency.replay and the numpy fold of
 * repro.cache.base do on the fallback route.
 *
 * Access k requests file files[k], of csum[k + 1] - csum[k] bytes; its
 * group is labels[files[k]], or the file itself when labels is NULL.  A
 * resident group hits and, when `touch` is set (LRU), moves to the newest
 * end; a group larger than the cache bypasses (the file streams, nothing
 * is cached); any other group evicts from the oldest end until it fits
 * and is admitted.  An access after its run's head meets the state the
 * head left, so no run is collapsed.
 *
 * Residency is a flag per group plus an intrusive doubly linked list from
 * oldest to newest (prev/next, -1 ends it).  state = {hits, bytes hit,
 * bytes fetched, bypasses, bytes admitted, used, head, tail}: the call
 * reads used, head and tail (the resident bytes and the list ends, carried
 * across calls) and writes all eight, the first five as the window's
 * totals.  hit_out[k] is set for each hit unless hit_out is NULL.
 *
 * Every group id is checked before any state changes.  The return value
 * is the first access whose file has no label or whose group is outside
 * [0, n_groups), or -1 once the window is replayed.
 */
#include <stdint.h>

int64_t replay_window(const int64_t *files, const int64_t *csum, int64_t n,
                      uint8_t *hit_out, const int64_t *labels,
                      int64_t n_labels, const int64_t *sizes, int64_t n_groups,
                      int64_t capacity, int touch, uint8_t *resident,
                      int64_t *prev, int64_t *next, int64_t *state)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t g = files[k];
        if (labels) {
            if (g < 0 || g >= n_labels)
                return k;
            g = labels[g];
        }
        if (g < 0 || g >= n_groups)
            return k;
    }
    int64_t hits = 0, bytes_hit = 0, fetched = 0, bypasses = 0, admitted = 0;
    int64_t used = state[5], head = state[6], tail = state[7];
    for (int64_t k = 0; k < n; k++) {
        int64_t g = labels ? labels[files[k]] : files[k];
        if (resident[g]) {
            if (touch && g != tail) {
                /* Unlink g (it has a successor), then append it. */
                if (prev[g] >= 0)
                    next[prev[g]] = next[g];
                else
                    head = next[g];
                prev[next[g]] = prev[g];
                prev[g] = tail;
                next[g] = -1;
                next[tail] = g;
                tail = g;
            }
            hits++;
            bytes_hit += csum[k + 1] - csum[k];
            if (hit_out)
                hit_out[k] = 1;
            continue;
        }
        int64_t size = sizes[g];
        if (size > capacity) {
            bypasses++;
            fetched += csum[k + 1] - csum[k];
            continue;
        }
        used += size;
        while (used > capacity) { /* evict the oldest group */
            used -= sizes[head];
            resident[head] = 0;
            head = next[head];
            if (head >= 0)
                prev[head] = -1;
            else
                tail = -1;
        }
        resident[g] = 1;
        prev[g] = tail;
        next[g] = -1;
        if (tail >= 0)
            next[tail] = g;
        else
            head = g;
        tail = g;
        fetched += size;
        admitted += size;
    }
    state[0] = hits;
    state[1] = bytes_hit;
    state[2] = fetched;
    state[3] = bypasses;
    state[4] = admitted;
    state[5] = used;
    state[6] = head;
    state[7] = tail;
    return -1;
}
