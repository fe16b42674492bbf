/* The residency loop of repro.cache.batch, compiled: Residency.replay
 * over dense group ids.  A resident group hits and, when `touch` is set
 * (LRU), moves to the newest end; a group larger than the cache
 * bypasses; any other group evicts from the oldest end until it fits
 * and is appended.  Each request writes one code: HIT_CODE, BYPASS_CODE
 * or the admitted group's size.
 *
 * Residency is a flag per group plus an intrusive doubly linked list
 * from oldest to newest (prev/next, -1 ends it).  state = {head, tail,
 * used} carries the list ends and the resident bytes across calls.
 */
#include <stdint.h>

#define HIT_CODE (-1)
#define BYPASS_CODE (-2)

void residency_replay(const int64_t *groups, int64_t n, const int64_t *sizes,
                      int64_t capacity, int touch, uint8_t *resident,
                      int64_t *prev, int64_t *next, int64_t *state,
                      int64_t *codes)
{
    int64_t head = state[0], tail = state[1], used = state[2];
    for (int64_t k = 0; k < n; k++) {
        int64_t g = groups[k];
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
            codes[k] = HIT_CODE;
            continue;
        }
        int64_t size = sizes[g];
        if (size > capacity) {
            /* Larger than the whole cache: stream, cache nothing. */
            codes[k] = BYPASS_CODE;
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
        codes[k] = size;
    }
    state[0] = head;
    state[1] = tail;
    state[2] = used;
}
