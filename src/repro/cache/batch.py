"""Whole-trace replay for the group-residency policies, in one run loop.

:class:`GroupedReplayKernel` replays an entire trace against the three
policies whose request outcome depends only on whether the request's
*group* is resident: file-LRU (group = file), file-FIFO (group = file,
no recency touch on a hit) and filecule-LRU (group = filecule label).

Per window of at most ``WINDOW`` accesses, cut at the progress marks:

1. **Runs** (numpy): map the window's accesses to groups and collapse
   adjacent same-group accesses into runs.  A job's files within one
   filecule have contiguous ids, so a filecule run covers ~7 accesses
   at paper scale; in file mode a run is a repeated file id.  Every
   access after a run's head meets the state the head left (the group
   resident, or too large to cache), so the head decides the run.
2. **Loop** (Python): walk the run heads through an ``OrderedDict`` of
   group → size with exactly the reference policies' operations
   (:class:`~repro.cache.lru.FileLRU`, :class:`~repro.cache.fifo.FileFIFO`,
   :class:`~repro.cache.filecule_lru.FileculeLRU`): a resident group
   hits and, under LRU, moves to the recent end; a group larger than
   the cache bypasses; any other group evicts from the old end until
   it fits and is inserted.  Each run records one code: hit, bypassed,
   or the admitted group's size.
3. **Fold** (numpy): the codes, run lengths and
   :attr:`~repro.traces.trace.Trace.access_size_cumsum` give the six
   :class:`~repro.cache.base.CacheMetrics` counters and the optional
   hit mask.  A hit run hits throughout; an admitted run's head misses
   and fetches the whole group while the rest of the run hits; a
   bypassed run streams every access's own file and caches nothing.

There is one path, with no switch on capacity or hit rate.  The kernel
is bit-identical to per-access replay (the test suite gates all
policies) and never materializes :attr:`Trace.replay_columns`, so a
batch run keeps paper-scale memory at the numpy columns plus one dict
entry per resident group.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.base import CacheMetrics

#: Accesses per numpy window: bounds the per-window run arrays and code
#: list, while the per-window numpy calls stay a few ns per access.
WINDOW = 16384

#: Run codes; an admitted run records its group's size (>= 0) instead.
_HIT = -1
_BYPASS = -2


class GroupedReplayKernel:
    """One-shot whole-trace replay of ``trace`` against a grouped policy.

    Parameters
    ----------
    trace:
        The trace to replay (all of it, in canonical access order).
    capacity:
        Cache capacity in bytes.
    group_sizes:
        Plain-list size of each group in bytes (for file granularity,
        the trace's file sizes; for filecules, the partition's sizes).
    labels:
        Optional numpy file-id → group-id map.  ``None`` means file
        granularity (the access's file id *is* its group).  Negative
        labels raise ``KeyError`` exactly like
        :class:`~repro.cache.filecule_lru.FileculeLRU`.
    touch_on_hit:
        ``True`` for LRU recency semantics, ``False`` for FIFO
        (insertion order only).
    hit_out:
        Optional writable boolean array of length ``trace.n_accesses``.
        When given, the kernel marks ``hit_out[k] = True`` for every
        access ``k`` that hits (misses and bypasses are left untouched)
        — the per-access outcome mask the hierarchical replay
        (:mod:`repro.engine.hierarchy`) uses to derive the next tier's
        demand stream.  It is folded from the same run codes as the
        counters, which it does not change.
    """

    def __init__(
        self,
        trace,
        *,
        capacity: int,
        group_sizes: list,
        labels=None,
        touch_on_hit: bool = True,
        hit_out=None,
    ) -> None:
        if hit_out is not None:
            if len(hit_out) != trace.n_accesses:
                raise ValueError(
                    f"hit_out length {len(hit_out)} != trace accesses "
                    f"{trace.n_accesses}"
                )
            if hit_out.dtype != np.bool_:
                raise ValueError(f"hit_out must be bool, got {hit_out.dtype}")
        self._trace = trace
        self._capacity = int(capacity)
        self._group_sizes = group_sizes
        self._labels = labels
        self._touch_on_hit = touch_on_hit
        self._hit_out = hit_out
        self._spent = False

    def __call__(
        self, metrics: CacheMetrics, checkpoint=None, every: int = 0
    ) -> None:
        """Replay the trace, folding outcome totals into ``metrics``.

        ``checkpoint(done, evicted_bytes)``, when given, is called at
        every ``done = k * every < n`` (``every > 0``) and once at
        ``done == n``, after ``metrics`` has been brought up to the
        totals of the first ``done`` accesses.  Windows are cut at the
        marks; the cumulative ``evicted_bytes`` is derived as admitted −
        resident bytes, so the eviction loop counts nothing.
        """
        if self._spent:
            raise RuntimeError("batch kernels are single-use; build a new one")
        self._spent = True

        trace = self._trace
        af = trace.access_files
        n = len(af)
        csum = trace.access_size_cumsum
        sizes = trace.file_sizes
        labels = self._labels
        gsizes = self._group_sizes
        capacity = self._capacity
        touch = self._touch_on_hit
        ho = self._hit_out

        entries: OrderedDict[int, int] = OrderedDict()  # group -> size
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        used = 0  # resident bytes
        admitted = 0  # bytes ever admitted

        marks = [n]
        if checkpoint is not None and every > 0:
            marks = [*range(every, n, every), n]
        lo = 0
        for hi in marks:
            hits = bytes_hit = fetched = bypasses = 0
            for i in range(lo, hi, WINDOW):
                j = min(i + WINDOW, hi)
                win = af[i:j]
                if labels is None:
                    groups = win
                else:
                    groups = labels[win]
                    if groups.min() < 0:
                        p = int(np.argmax(groups < 0))
                        raise KeyError(
                            f"file {int(win[p])} has no filecule; partition "
                            f"does not match the replayed trace"
                        )
                heads = np.flatnonzero(groups[1:] != groups[:-1]) + 1
                heads = np.concatenate(([0], heads))

                codes: list[int] = []
                record = codes.append
                for g in groups[heads].tolist():
                    if g in entries:
                        if touch:
                            move_to_end(g)
                        record(_HIT)
                        continue
                    size = gsizes[g]
                    if size > capacity:
                        # Larger than the whole cache: stream, cache nothing.
                        record(_BYPASS)
                        continue
                    used += size
                    while used > capacity:
                        used -= popitem(False)[1]
                    entries[g] = size
                    record(size)

                code = np.array(codes, dtype=np.int64)
                bounds = np.append(heads, j - i)
                run_len = np.diff(bounds)
                run_bytes = np.diff(csum[i + bounds])
                bypass = code == _BYPASS
                bypass_count = int(run_len[bypass].sum())
                bypass_bytes = int(run_bytes[bypass].sum())
                admit = code >= 0
                admit_heads = heads[admit]
                admit_bytes = int(code[admit].sum())
                admitted += admit_bytes
                # Every access hits except those of bypassed runs and
                # the heads of admitted runs.
                hits += j - i - bypass_count - len(admit_heads)
                bytes_hit += (
                    int(csum[j] - csum[i])
                    - bypass_bytes
                    - int(sizes[win[admit_heads]].sum())
                )
                fetched += admit_bytes + bypass_bytes
                bypasses += bypass_count
                if ho is not None:
                    miss = np.repeat(bypass, run_len)
                    miss[admit_heads] = True
                    ho[i:j] |= ~miss
            metrics.record_totals(
                requests=hi - lo,
                hits=hits,
                bytes_requested=int(csum[hi] - csum[lo]),
                bytes_hit=bytes_hit,
                bytes_fetched=fetched,
                bypasses=bypasses,
            )
            if checkpoint is not None:
                checkpoint(hi, admitted - used)
            lo = hi
