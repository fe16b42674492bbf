"""One residency loop for the group-residency policies, offline and online.

Three policies decide a request's outcome only by whether the request's
*group* is resident: file-LRU (group = file), file-FIFO (group = file,
no recency touch on a hit) and filecule-LRU (group = filecule label).
:class:`Residency` is their shared state, an ``OrderedDict`` of group
→ size plus the resident bytes, and :meth:`Residency.replay` its one
step.  It performs exactly the reference policies' operations
(:class:`~repro.cache.lru.FileLRU`, :class:`~repro.cache.fifo.FileFIFO`,
:class:`~repro.cache.filecule_lru.FileculeLRU`): a resident group hits
and, under LRU, moves to the recent end; a group larger than the cache
bypasses; any other group evicts from the old end until it fits and is
inserted.  Each request records one request code
(:data:`~repro.cache.base.HIT_CODE`, :data:`~repro.cache.base.BYPASS_CODE`
or the admitted group's size), the code every policy's ``request``
returns.

Two callers share it.  The service's file advisor
(:class:`~repro.cache.online.BatchedFileCache`) replays one job's files
at a time.  :class:`GroupedReplayKernel` replays a whole trace through
:func:`~repro.cache.base.replay_windows`, the window driver the
per-access route shares, and supplies its loop: one call per window of
the compiled pass in ``residency.c`` (:mod:`repro.cache.native`).  The
pass walks the window's accesses, maps each to its group, decides it
against the same residency state and adds its bytes, read from
:attr:`~repro.traces.trace.Trace.access_size_cumsum`, into the window's
totals and the optional hit mask.  It collapses no runs: an access after
its run's head meets the state the head left (the group resident, or
too large to cache), so replaying it gives the head's outcome.

Without a compiler the kernel runs the same window in Python:

1. **Runs** (numpy): map the window's accesses to groups and collapse
   adjacent same-group accesses into runs.  A job's files within one
   filecule have contiguous ids, so a filecule run covers ~7 accesses
   at paper scale; in file mode a run is a repeated file id.  The head
   decides the run.
2. **Loop**: :meth:`Residency.replay` walks the run heads.
3. **Fold**: :func:`~repro.cache.base.fold_runs`, the numpy fold the
   per-access route also calls, turns the codes and run lengths into
   the window's totals and hit mask.

Both loops check every group id in a window before replaying any of it,
and refuse a bad one with the same error.  There is one path, with no
switch on capacity or hit rate.  The kernel is bit-identical to
per-access replay on both loops (the test suite gates all policies), and
a batch run keeps paper-scale memory at the numpy columns plus 17 bytes
per catalog group: a resident flag and two recency-list links.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache import native
from repro.cache.base import (
    BYPASS_CODE,
    HIT_CODE,
    CacheMetrics,
    fold_runs,
    replay_windows,
)
from repro.traces.trace import check_ids


class Residency:
    """Persistent group → size residency under LRU or FIFO eviction.

    ``touch_on_hit`` is ``True`` for LRU recency, ``False`` for FIFO
    (insertion order only).  ``entries`` runs from least to most
    recently admitted (or, under LRU, touched); ``used`` is the resident
    bytes.
    """

    __slots__ = ("capacity", "touch_on_hit", "entries", "used")

    def __init__(self, capacity: int, touch_on_hit: bool = True) -> None:
        self.capacity = int(capacity)
        self.touch_on_hit = touch_on_hit
        self.entries: OrderedDict[int, int] = OrderedDict()
        self.used = 0

    def replay(self, groups, size_of) -> list[int]:
        """Request ``groups`` in order; one code per request.

        ``size_of[g]`` is read only when ``g`` misses, as the size the
        group is admitted (or bypassed) with.
        """
        entries = self.entries
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        touch = self.touch_on_hit
        capacity = self.capacity
        used = self.used
        codes: list[int] = []
        record = codes.append
        for g in groups:
            if g in entries:
                if touch:
                    move_to_end(g)
                record(HIT_CODE)
                continue
            size = size_of[g]
            if size > capacity:
                # Larger than the whole cache: stream, cache nothing.
                record(BYPASS_CODE)
                continue
            used += size
            while used > capacity:
                used -= popitem(False)[1]
            entries[g] = size
            record(size)
        self.used = used
        return codes


class GroupedReplayKernel:
    """One-shot whole-trace replay of ``trace`` against a grouped policy.

    Parameters
    ----------
    trace:
        The trace to replay (all of it, in canonical access order).
    capacity:
        Cache capacity in bytes.
    group_sizes:
        int64 array of each group's size in bytes (for file granularity,
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
        Optional writable boolean array of length ``trace.n_accesses``
        (:func:`~repro.engine.replay.simulate` checks both).  The kernel
        marks ``hit_out[k] = True`` for every access ``k`` that hits
        (misses and bypasses are left untouched), from the same outcomes
        as the counters, which it does not change.
    """

    def __init__(
        self,
        trace,
        *,
        capacity: int,
        group_sizes: np.ndarray,
        labels=None,
        touch_on_hit: bool = True,
        hit_out=None,
    ) -> None:
        self._trace = trace
        self._capacity = int(capacity)
        self._touch = touch_on_hit
        self._group_sizes = group_sizes
        self._labels = labels
        self._hit_out = hit_out
        self._spent = False

    def __call__(
        self, metrics: CacheMetrics, checkpoint=None, every: int = 0
    ) -> None:
        """Replay the trace, folding outcome totals into ``metrics``.

        ``checkpoint(done, evicted_bytes)`` and ``every`` are those of
        :func:`~repro.cache.base.replay_windows`.  File ids outside
        ``[0, trace.n_files)`` (checked in ``access_size_cumsum``) and
        group ids outside ``[0, len(group_sizes))`` raise IndexError, a
        file without a filecule label KeyError, and a ``hit_out`` of
        another length ValueError; each before any access is replayed
        in the window (or, for ``hit_out``, the trace) it concerns.
        """
        if self._spent:
            raise RuntimeError("batch kernels are single-use; build a new one")
        self._spent = True

        trace = self._trace
        af = trace.access_files
        labels = self._labels
        gsizes = self._group_sizes
        n_groups = len(gsizes)
        hit_out = self._hit_out
        if hit_out is not None and len(hit_out) != len(af):
            # The compiled pass writes one flag per access of a window.
            raise ValueError(
                f"hit_out length {len(hit_out)} != trace accesses {len(af)}"
            )

        def groups_of(i, j):
            """Window ``[i, j)``'s group ids; a bad one raises."""
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
            check_ids(groups, n_groups, i, "group")
            return groups

        replay = native.residency_loop()
        if replay is None:
            residency = Residency(self._capacity, self._touch)
            size_list = gsizes.tolist()

            def loop(i, j):
                groups = groups_of(i, j)
                heads = np.flatnonzero(groups[1:] != groups[:-1]) + 1
                heads = np.concatenate(([0], heads))
                codes = residency.replay(groups[heads].tolist(), size_list)
                totals = fold_runs(trace, i, j, heads, codes, hit_out)
                return (*totals, residency.used)

        else:
            af = np.ascontiguousarray(af)
            csum = trace.access_size_cumsum
            state = np.array([0, 0, 0, 0, 0, 0, -1, -1], dtype=np.int64)
            # The capacity is clamped because ctypes wraps an int past
            # int64; the resident flags and prev/next links are dense
            # over group ids.
            args = (
                labels, 0 if labels is None else len(labels), gsizes, n_groups,
                min(self._capacity, 2**63 - 1), self._touch,
                np.zeros(n_groups, np.uint8), np.empty(n_groups, np.int64),
                np.empty(n_groups, np.int64), state,
            )
            # The pass writes the mask in place when it can; a strided or
            # read-only one takes each window's hits through a buffer.
            buffered = hit_out is not None and not hit_out.flags.carray

            def loop(i, j):
                mask = None
                if hit_out is not None:
                    mask = np.zeros(j - i, np.bool_) if buffered else hit_out[i:j]
                bad = replay(af[i:j], csum[i:], j - i, mask, *args)
                if bad >= 0:
                    groups_of(i, j)  # raises the fallback's error
                    raise RuntimeError(f"replay_window refused access {i + bad}")
                if buffered:
                    hit_out[i:j] |= mask
                return state.tolist()[:6]

        replay_windows(trace, loop, metrics, checkpoint, every)
