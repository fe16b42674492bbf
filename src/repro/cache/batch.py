"""Vectorized whole-trace replay for batch-capable policies.

:class:`GroupedReplayKernel` replays an entire trace against the three
policies whose request semantics reduce to *group residency* — file-LRU
(group = file), file-FIFO (group = file, no recency touch) and
filecule-LRU (group = filecule label).  For these policies a request's
outcome depends only on whether its group is resident, so the stream
can be resolved window-at-a-time with numpy doing the heavy indexing
and a tight all-Python loop (no numpy scalar boxing) handling whatever
actually mutates state.

Per window of ``WINDOW`` accesses:

1. **Probe** (numpy): gather each access's group and its residency.
   In filecule mode, adjacent accesses to the same filecule are first
   collapsed into *runs* (a job's files within one filecule have
   contiguous ids, so the mean run covers ~7 accesses at paper scale);
   the walk then costs per run, not per access.
2. **Bulk** (numpy): a fully-hit window, or the leading hit-run up to
   the first probed miss, is accounted with prefix-sum arithmetic
   (:attr:`~repro.traces.trace.Trace.access_size_cumsum`) and one fancy
   recency assignment — numpy's last-write-wins on duplicate indices
   matches "latest touch wins".
3. **Walk** (Python): the remainder runs on plain lists and dict
   *overlays*: ``ores`` (residency changes since the probe) and
   ``olast`` (recency touches this window).  Truth for an access is
   ``ores.get(group, probed_hint)`` — every post-probe insert and
   eviction is in ``ores``, so the probed hint is exact for untouched
   groups.  In LRU modes every walked item consumes one sequence
   number (even bypasses, which are never resident, so stamping them
   is harmless): the window's recency flush is then just one fancy
   assignment from the probe's own group array, with no per-access
   list building.  Counters fall out by subtraction — the loop books
   only the minority side (hits in the LRU walk, where eviction-bound
   windows are mostly misses; misses in the FIFO walk) plus bypasses.

Eviction is lazy-deletion LRU over a log of (group array, base
sequence) chunks.  When a chunk reaches the eviction cursor, one numpy
pass filters it down to the entries that were still the group's latest
touch; the surviving few are consumed one by one.  The kernel keeps the
invariant that the numpy state arrays (``last``/``resident``) only
change together with a re-scan of that pending buffer, so consuming an
entry needs *only* overlay dict lookups — a pending entry can be stale
only if this window's ``olast``/``ores`` says so.  When the log runs
dry mid-window (caches smaller than a window's working set), the
evictor walks the current window's in-flight items directly.

The kernel is bit-identical to per-access replay (the test suite gates
all policies), accounts bypasses exactly like the per-access policies
(group larger than the cache: stream the requested file, cache
nothing), and never materializes :attr:`Trace.replay_columns`, so a
batch run keeps paper-scale memory at the numpy columns alone.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cache.base import CacheMetrics

#: Accesses probed per numpy window.  Large enough to amortize the
#: probe gathers to ~10 ns/access, small enough that a window's walk
#: overlays stay cache-friendly.
WINDOW = 16384

#: Minimum leading hit-run (in walk items) worth resolving with numpy
#: bulk ops — below this the fixed cost of arange/fancy-assign exceeds
#: the Python walk.
MIN_BULK_RUN = 48

#: Minimum probed-hit run (in walk items) worth consuming with one
#: C-level ``dict.update`` instead of the per-item loop — below this
#: the slice/isdisjoint fixed costs exceed the loop.
MIN_DICT_RUN = 8


class GroupedReplayKernel:
    """One-shot vectorized replay of ``trace`` against a grouped policy.

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
        demand stream.  Recording rides the existing accounting sites,
        so the mask is exactly the outcome per-access replay would
        produce; counters are unchanged either way.
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
        marks; the cumulative ``evicted_bytes`` is derived as fetched −
        bypassed − resident bytes, so the eviction loop counts nothing.
        """
        if self._spent:
            raise RuntimeError("batch kernels are single-use; build a new one")
        self._spent = True

        trace = self._trace
        af = trace.access_files
        n = len(af)
        csum = trace.access_size_cumsum
        sizes_np = trace.file_sizes
        labels = self._labels
        gsizes = self._group_sizes
        capacity = self._capacity
        touch = self._touch_on_hit
        ho = self._hit_out
        n_groups = len(gsizes)

        resident = np.zeros(n_groups, dtype=bool)
        last = np.full(n_groups, -1, dtype=np.int64)

        # Touch log: ``[group_array, base_seq]`` chunks in global
        # sequence order (the k-th entry has sequence ``base_seq + k``).
        # The eviction path scans a chunk once with numpy, keeping only
        # still-latest entries as the parallel lists ``(scan_g, scan_s)``.
        # Both are stored *reversed* so consuming the next candidate is
        # a pair of C-level ``list.pop()`` calls — no cursor arithmetic
        # on the hottest branch of the eviction loop.
        log: deque = deque()
        scan_g: list = []
        scan_s: list = []

        # Outcome counters since the last fold into ``metrics``.
        hits = 0
        bytes_hit = 0
        fetched = 0
        bypasses = 0
        bypassed_bytes = 0
        inserted = 0  # bytes ever admitted, up to the last fold
        used = 0
        seq = 0

        # Per-window walk overlays (cleared, not rebound, so the
        # closures below can bind the lookup methods once).
        ores: dict = {}
        olast: dict = {}
        ores_get = ores.get
        olast_get = olast.get
        # A probed-hit run may be bulk-consumed only if none of its
        # groups were touched by this window's residency overlay —
        # evicted groups sit in ``ores`` as ``False``, so a keys-view
        # disjointness test is a conservative (and allocation-free)
        # poisoning check.
        ores_keys_disjoint = ores.keys().isdisjoint
        flight: list = []  # current window's walk items, for the evictor
        wbase = 0
        wcur = 0

        arange = np.arange
        asarray = np.asarray
        flatnonzero = np.flatnonzero

        def rescan() -> None:
            # Re-validate the pending scanned buffer.  Called after
            # every write to ``last``/``resident``, restoring the
            # invariant that a pending entry can only be invalidated by
            # this window's overlays — which is what lets the consume
            # paths below get away with dict lookups alone.
            nonlocal scan_g, scan_s
            if scan_g:
                # The buffer is stored reversed; flip to sequence order
                # for validation, then back for pop() consumption.
                sg = asarray(scan_g, dtype=np.int64)[::-1]
                ss = asarray(scan_s, dtype=np.int64)[::-1]
                vpos = flatnonzero((last[sg] == ss) & resident[sg])
                scan_g = sg[vpos][::-1].tolist()
                scan_s = ss[vpos][::-1].tolist()

        # The eviction loop below exists twice: as this closure (used by
        # the FIFO and filecule walks) and inlined in the file-LRU walk,
        # its hottest caller — keep the two in sync.  Candidate validity
        # needs *no* numpy reads: a scanned entry is latest-and-resident
        # as of the last rescan, so only this window's overlays can
        # invalidate it; an in-flight item with no ``olast`` entry is a
        # bypass (never resident); and any other candidate with an
        # untouched residency overlay was resident when touched (hits
        # imply residency, inserts record ``ores``) and still is.
        def evict_until_fits(gsize: int) -> None:
            nonlocal used, scan_g, scan_s, wcur
            while used + gsize > capacity:
                # Next candidate in global sequence order: the scanned
                # buffer, then the next log chunk (scan it), then this
                # window's in-flight items.
                while True:
                    if scan_g:
                        g2 = scan_g.pop()
                        s2 = scan_s.pop()
                        infl = False
                        break
                    if log:
                        cg, cbase = log.popleft()
                        seqs = cbase + arange(len(cg))
                        vpos = flatnonzero((last[cg] == seqs) & resident[cg])
                        if not len(vpos):
                            continue
                        scan_g = cg[vpos][::-1].tolist()
                        scan_s = (cbase + vpos)[::-1].tolist()
                        continue
                    # Every resident group's latest touch is in the log
                    # or in flight, so the cursor cannot run off the end
                    # while anything remains to evict.
                    g2 = flight[wcur]
                    s2 = wbase + wcur
                    wcur += 1
                    infl = True
                    break
                # Re-validate against the overlays: a later touch
                # supersedes, an earlier eviction deduplicates.
                l2 = olast_get(g2)
                if l2 is None:
                    if infl:
                        continue
                elif l2 != s2:
                    continue
                if ores_get(g2) is False:
                    continue
                ores[g2] = False
                used -= gsizes[g2]

        i = 0
        folded = 0  # accesses already folded into ``metrics``
        # The next fold point: a progress mark, or the end of the trace.
        mark = min(every, n) if checkpoint is not None and every > 0 else n
        while True:
            if i == mark:
                metrics.record_totals(
                    requests=i - folded,
                    hits=hits,
                    bytes_requested=int(csum[i] - csum[folded]),
                    bytes_hit=bytes_hit,
                    bytes_fetched=fetched,
                    bypasses=bypasses,
                )
                inserted += fetched - bypassed_bytes
                hits = bytes_hit = fetched = bypasses = bypassed_bytes = 0
                folded = i
                if checkpoint is not None:
                    checkpoint(i, inserted - used)
                if i == n:
                    break
                mark = min(i + every, n)
            j = min(i + WINDOW, mark)
            win = af[i:j]
            end = j - i

            # ---------------- probe (numpy) --------------------------
            if labels is None:
                # File granularity: every access is its own walk item.
                items = win
                starts = ends = None
                mask = resident[items]
            else:
                gwin = labels[win]
                if gwin.min() < 0:
                    p = int(np.argmax(gwin < 0))
                    raise KeyError(
                        f"file {int(win[p])} has no filecule; partition "
                        f"does not match the replayed trace"
                    )
                # Collapse adjacent same-filecule accesses into runs:
                # one walk item per run.
                change = flatnonzero(gwin[1:] != gwin[:-1]) + 1
                starts = np.concatenate(([0], change))
                ends = np.concatenate((change, [end]))
                items = gwin[starts]
                mask = resident[items]
            n_items = len(items)

            first = int(mask.argmin())  # first probed-miss item
            if mask[first]:
                # No probed miss: the whole window hits in bulk.
                hits += end
                bytes_hit += int(csum[j] - csum[i])
                if ho is not None:
                    ho[i:j] = True
                if touch:
                    last[items] = arange(seq, seq + n_items)
                    log.append([items, seq])
                    seq += n_items
                    rescan()
                i = j
                continue
            if first >= MIN_BULK_RUN:
                # Bulk the leading hit-run; sound because no state has
                # changed since the probe.
                facc = first if starts is None else int(starts[first])
                hits += facc
                bytes_hit += int(csum[i + facc] - csum[i])
                if ho is not None:
                    ho[i : i + facc] = True
                if touch:
                    seg = items[:first]
                    last[seg] = arange(seq, seq + first)
                    log.append([seg, seq])
                    seq += first
                    rescan()
            else:
                first = 0

            # ---------------- walk (Python) --------------------------
            gl = items[first:].tolist()
            ml = mask[first:].tolist()
            wbase = seq
            wcur = 0
            wn = 0  # touch-log length this window
            garr = None
            if labels is None:
                szl = sizes_np[win[first:]].tolist()
                mc = mb = bp = bpb = 0
                if touch:
                    # LRU: every item consumes a sequence number, so
                    # the flush reuses the probe's own array and the
                    # loop books only hits (misses fall out of the
                    # subtraction below — in eviction-bound windows
                    # misses are the majority, so they carry no counter
                    # ops at all).  Access streams are bursty — hit
                    # runs average ~100 accesses at paper scale — so
                    # probed-hit runs untouched by this window's
                    # evictions are consumed with one C-level
                    # ``dict.update`` each, and only misses (plus the
                    # rare poisoned run) pay the per-item loop.  The
                    # eviction loop is the inlined twin of
                    # ``evict_until_fits`` — this is the kernel's
                    # hottest path by far.
                    flight = gl
                    wn = end - first
                    hc = hb = 0
                    cb0 = i + first
                    hoff = cb0 - wbase  # access index of seq = hoff + seq
                    wm = mask[first:]
                    # Hit runs long enough to bulk; everything between
                    # two bulked runs — miss runs and short hit runs
                    # alike — is one contiguous per-item block, so a
                    # low-hit-rate window degenerates to the plain loop
                    # instead of thousands of tiny slices.
                    pad = np.zeros(wn + 2, dtype=np.int8)
                    pad[1:-1] = wm
                    d = pad[1:] - pad[:-1]
                    rs = flatnonzero(d == 1)
                    re_ = flatnonzero(d == -1)
                    long = flatnonzero(re_ - rs >= MIN_DICT_RUN)
                    blocks = []
                    pos = 0
                    for p in long.tolist():
                        a, b = int(rs[p]), int(re_[p])
                        if pos < a:
                            blocks.append((pos, a, False))
                        blocks.append((a, b, True))
                        pos = b
                    if pos < wn:
                        blocks.append((pos, wn, False))
                    for a, b, bulk in blocks:
                        if bulk and ores_keys_disjoint(seg := gl[a:b]):
                            olast.update(
                                zip(seg, range(wbase + a, wbase + b))
                            )
                            hc += b - a
                            hb += int(csum[cb0 + b] - csum[cb0 + a])
                            if ho is not None:
                                ho[cb0 + a : cb0 + b] = True
                            continue
                        seq = wbase + a
                        for g, r0, s in zip(gl[a:b], ml[a:b], szl[a:b]):
                            if ores_get(g, r0):
                                olast[g] = seq
                                hc += 1
                                hb += s
                                if ho is not None:
                                    ho[hoff + seq] = True
                            elif s > capacity:
                                # Larger than the whole cache: stream
                                # the file without caching (bypass).
                                bp += 1
                                bpb += s
                            else:
                                while used + s > capacity:
                                    while True:
                                        if scan_g:
                                            g2 = scan_g.pop()
                                            s2 = scan_s.pop()
                                            infl = False
                                            break
                                        if log:
                                            cg, cbase = log.popleft()
                                            seqs = cbase + arange(len(cg))
                                            vpos = flatnonzero(
                                                (last[cg] == seqs)
                                                & resident[cg]
                                            )
                                            if not len(vpos):
                                                continue
                                            scan_g = cg[vpos][
                                                ::-1
                                            ].tolist()
                                            scan_s = (cbase + vpos)[
                                                ::-1
                                            ].tolist()
                                            continue
                                        g2 = flight[wcur]
                                        s2 = wbase + wcur
                                        wcur += 1
                                        infl = True
                                        break
                                    l2 = olast_get(g2)
                                    if l2 is None:
                                        if infl:
                                            continue
                                    elif l2 != s2:
                                        continue
                                    if ores_get(g2) is False:
                                        continue
                                    ores[g2] = False
                                    used -= gsizes[g2]
                                ores[g] = True
                                olast[g] = seq
                                used += s
                            seq += 1
                    seq = wbase + wn
                    mc = wn - hc - bp
                    mb = int(csum[j] - csum[cb0]) - hb - bpb
                    garr = items[first:]
                else:
                    # FIFO: hits do not touch; only inserts enter the
                    # log, collected in a side list.  The mask-recording
                    # twin below differs only in the enumerate index and
                    # the hit write — keep the two in sync.
                    wg: list = []
                    wappend = wg.append
                    flight = wg
                    if ho is None:
                        for g, r0, s in zip(gl, ml, szl):
                            if ores_get(g, r0):
                                pass
                            elif s > capacity:
                                bp += 1
                                bpb += s
                            else:
                                if used + s > capacity:
                                    evict_until_fits(s)
                                ores[g] = True
                                olast[g] = seq
                                wappend(g)
                                seq += 1
                                used += s
                                mc += 1
                                mb += s
                    else:
                        cb0 = i + first
                        for k, (g, r0, s) in enumerate(zip(gl, ml, szl)):
                            if ores_get(g, r0):
                                ho[cb0 + k] = True
                            elif s > capacity:
                                bp += 1
                                bpb += s
                            else:
                                if used + s > capacity:
                                    evict_until_fits(s)
                                ores[g] = True
                                olast[g] = seq
                                wappend(g)
                                seq += 1
                                used += s
                                mc += 1
                                mb += s
                    wn = len(wg)
                    if wn:
                        garr = asarray(wg, dtype=np.int64)
                walk_acc = end - first
                hits += walk_acc - mc - bp
                bytes_hit += int(csum[j] - csum[i + first]) - mb - bpb
                fetched += mb + bpb
                bypasses += bp
                bypassed_bytes += bpb
            else:
                rs = starts[first:]
                bl = (csum[i + ends[first:]] - csum[i + rs]).tolist()
                ll = (ends[first:] - rs).tolist()
                fs = sizes_np[win[rs]].tolist()
                flight = gl
                if ho is None:
                    for g, r0, rb, rl, rf in zip(gl, ml, bl, ll, fs):
                        if ores_get(g, r0):
                            # Whole run hits (the filecule is resident).
                            hits += rl
                            bytes_hit += rb
                            olast[g] = seq
                        else:
                            gsize = gsizes[g]
                            if gsize > capacity:
                                # Every access of the run bypasses:
                                # stream each requested file, cache
                                # nothing.
                                fetched += rb
                                bypasses += rl
                                bypassed_bytes += rb
                            else:
                                if used + gsize > capacity:
                                    evict_until_fits(gsize)
                                ores[g] = True
                                olast[g] = seq
                                used += gsize
                                # The run's first access misses and
                                # fetches the whole filecule; the rest
                                # of the run hits.
                                fetched += gsize
                                hits += rl - 1
                                bytes_hit += rb - rf
                        seq += 1
                else:
                    # Mask-recording twin: each run carries its absolute
                    # access bounds so hit spans land as slice writes.
                    # Keep the accounting in sync with the loop above.
                    ral = (i + rs).tolist()
                    rzl = (i + ends[first:]).tolist()
                    for g, r0, rb, rl, rf, ra, rz in zip(
                        gl, ml, bl, ll, fs, ral, rzl
                    ):
                        if ores_get(g, r0):
                            hits += rl
                            bytes_hit += rb
                            olast[g] = seq
                            ho[ra:rz] = True
                        else:
                            gsize = gsizes[g]
                            if gsize > capacity:
                                fetched += rb
                                bypasses += rl
                                bypassed_bytes += rb
                            else:
                                if used + gsize > capacity:
                                    evict_until_fits(gsize)
                                ores[g] = True
                                olast[g] = seq
                                used += gsize
                                fetched += gsize
                                hits += rl - 1
                                bytes_hit += rb - rf
                                # First access of the run misses; the
                                # rest hit from the fresh load.
                                ho[ra + 1 : rz] = True
                        seq += 1
                wn = n_items - first
                garr = items[first:]

            # ------------- flush overlays into numpy state -----------
            if wn:
                # Duplicate indices: numpy keeps the last write — the
                # group's latest touch, exactly what ``last`` means.
                last[garr] = arange(wbase, wbase + wn)
                log.append([garr, wbase])
            if ores:
                no = len(ores)
                okeys = np.fromiter(ores.keys(), dtype=np.int64, count=no)
                ovals = np.fromiter(ores.values(), dtype=bool, count=no)
                resident[okeys] = ovals
            if wn or ores:
                rescan()
            ores.clear()
            olast.clear()
            flight = []
            i = j
