"""Array-backed online cache advisor for the service ingest hot path.

:class:`BatchedFileCache` is a drop-in for :class:`~repro.cache.lru.FileLRU`
(and, with ``touch_on_hit=False``, :class:`~repro.cache.fifo.FileFIFO`)
that keeps residency, stored sizes, and recency in flat numpy arrays
instead of an ``OrderedDict``.  The payoff is :meth:`request_window`:
the service's coalesced ingest path hands it a whole window of deduped
job segments in columnar form and the kernel answers with per-job hit
counts plus aggregate outcome totals — probing residency with one
vector gather and accounting the (dominant) leading all-hit run in bulk,
instead of one ``request`` call per access.

The per-access :meth:`request` stays available and exact, so mixed
traffic — coalesced ingest windows interleaved with single-job ingests —
sees one consistent cache model.  Semantics are bit-identical to the
dict-backed policies, including the subtle bits:

* a hit never updates the stored size (the size charged at insertion
  sticks until eviction, exactly like ``FileLRU``);
* misses larger than the whole cache bypass (streamed uncached);
* eviction order is least-recently-*touched* (LRU) or insertion order
  (FIFO), implemented as a lazy-deletion touch log: stale log entries
  (re-touched or already-evicted files) are skipped by validating each
  candidate's logged sequence number against the live recency array.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cache.base import HIT, ReplacementPolicy, RequestOutcome

#: Touch-log entries are flushed into immutable chunks at this size.
_CHUNK = 32768


class BatchedFileCache(ReplacementPolicy):
    """File-granularity LRU/FIFO over flat arrays with a windowed API.

    Parameters
    ----------
    capacity_bytes:
        Modelled cache capacity.
    touch_on_hit:
        ``True`` for LRU semantics (hits refresh recency), ``False`` for
        FIFO (eviction strictly by insertion order).
    """

    def __init__(self, capacity_bytes: int, touch_on_hit: bool = True) -> None:
        super().__init__(capacity_bytes)
        self.name = "file-lru" if touch_on_hit else "file-fifo"
        self.touch_on_hit = touch_on_hit
        n = 1024
        self._resident = np.zeros(n, dtype=bool)
        self._stored = np.zeros(n, dtype=np.int64)
        # No "never touched" sentinel needed: eviction validity always
        # checks residency too, and a resident file has been touched at
        # least once — so zero-fill is safe and keeps growth calloc-cheap.
        self._last = np.zeros(n, dtype=np.int64)
        self._seq = 0
        self._n_resident = 0
        # Lazy-deletion touch log: (ids, base_seq) chunks in seq order;
        # entry k of a chunk was touched at base_seq + k.  _tail is the
        # mutable chunk being appended; _head_pos indexes the next
        # eviction candidate within the oldest chunk.
        self._log: deque = deque()
        self._tail: list[int] = []
        self._tail_base = 0
        self._head_pos = 0
        self._logged = 0  # live-entry upper bound, for compaction

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _grow(self, n: int) -> None:
        size = self._resident.size
        if n <= size:
            return
        size = max(n, 2 * size)
        # np.zeros is calloc-backed: the kernel hands over lazily-zeroed
        # pages, so growing to a multi-million-file catalog costs one
        # small memcpy instead of a full-array fill (np.full here was
        # ~40 ms per site at paper scale, paid per advisor).
        for attr in ("_resident", "_stored", "_last"):
            old = getattr(self, attr)
            new = np.zeros(size, dtype=old.dtype)
            new[: old.size] = old
            setattr(self, attr, new)

    def _push_tail(self, file_id: int) -> None:
        tail = self._tail
        if not tail:
            self._tail_base = self._seq
        tail.append(file_id)
        if len(tail) >= _CHUNK:
            self._log.append((tail, self._tail_base))
            self._tail = []

    def _touch(self, file_id: int) -> None:
        self._last[file_id] = self._seq
        self._push_tail(file_id)
        self._seq += 1
        self._logged += 1

    def _compact(self) -> None:
        """Rebuild the log from live recency when stale entries dominate.

        Reassigns dense sequence numbers in the existing recency order
        (argsort of unique ``_last`` values), which preserves eviction
        order exactly while bounding log memory to O(resident files).
        """
        ids = np.flatnonzero(self._resident)
        order = np.argsort(self._last[ids], kind="stable")
        ids = ids[order]
        self._last[ids] = np.arange(ids.size, dtype=np.int64)
        self._seq = int(ids.size)
        self._log = deque([(ids, 0)]) if ids.size else deque()
        self._tail = []
        self._head_pos = 0
        self._logged = int(ids.size)

    def _evict_until(self, need: int) -> None:
        """Evict in log order until ``need`` bytes fit."""
        resident = self._resident
        stored = self._stored
        last = self._last
        used = self.used_bytes
        capacity = self.capacity_bytes
        listener = self.evict_listener
        log = self._log
        pos = self._head_pos
        while used + need > capacity:
            while not log:
                if not self._tail:
                    raise RuntimeError(
                        f"{self.name}: nothing left to evict "
                        f"(used={used}, need={need})"
                    )
                log.append((self._tail, self._tail_base))
                self._tail = []
            chunk, base = log[0]
            if pos >= len(chunk):
                log.popleft()
                pos = 0
                continue
            f = int(chunk[pos])
            seq = base + pos
            pos += 1
            self._logged -= 1
            # Lazy deletion: only the *latest* touch of a still-resident
            # file is a valid candidate.
            if last[f] != seq or not resident[f]:
                continue
            size = int(stored[f])
            resident[f] = False
            self._n_resident -= 1
            used -= size
            if listener is not None:
                listener(size)
        self._head_pos = pos
        self.used_bytes = used

    # ------------------------------------------------------------------
    # per-access API (bit-identical to FileLRU / FileFIFO)
    # ------------------------------------------------------------------
    def __contains__(self, file_id: int) -> bool:
        f = int(file_id)
        return 0 <= f < self._resident.size and bool(self._resident[f])

    def request(self, file_id: int, size: int, now: float) -> RequestOutcome:
        f = int(file_id)
        if f < self._resident.size and self._resident[f]:
            if self.touch_on_hit:
                self._touch(f)
            return HIT
        if size > self.capacity_bytes:
            return RequestOutcome(hit=False, bytes_fetched=size, bypassed=True)
        if self.used_bytes + size > self.capacity_bytes:
            self._evict_until(size)
        self._grow(f + 1)
        self._resident[f] = True
        self._stored[f] = size
        self._n_resident += 1
        self._touch(f)
        self.used_bytes += size
        if self._logged > 4 * self._n_resident + _CHUNK:
            self._compact()
        return RequestOutcome(hit=False, bytes_fetched=size)

    # ------------------------------------------------------------------
    # windowed API (the coalesced ingest path)
    # ------------------------------------------------------------------
    def request_window(
        self, flat: np.ndarray, offsets: np.ndarray, sizes: np.ndarray
    ) -> tuple[list[int], tuple[int, int, int, int, int, int]]:
        """Process a window of deduped job segments in access order.

        ``flat``/``offsets`` are the CSR-shaped unique file ids of the
        window's jobs; ``sizes`` the aligned request sizes.  Returns
        ``(per-job hit counts, (requests, hits, bytes_requested,
        bytes_hit, bytes_fetched, bypasses))`` — the exact outcome
        aggregates :meth:`request` called per access would produce.

        The leading run of accesses that are *all* hits (the dominant
        shape once the modelled cache is warm) is accounted in bulk: one
        residency gather finds the first miss, one fancy assignment
        applies the LRU touches.  From the first miss on, accesses are
        walked individually — evictions may change residency mid-window,
        so the scalar path is the only exact one there.
        """
        n_jobs = offsets.size - 1
        total = int(flat.size)
        job_hits = [0] * n_jobs
        if total == 0:
            return job_hits, (0, 0, 0, 0, 0, 0)
        self._grow(int(flat.max()) + 1)
        res = self._resident[flat]
        first_miss = total if bool(res.all()) else int(np.argmin(res))
        if first_miss:
            prefix = flat[:first_miss]
            if self.touch_on_hit:
                base = self._seq
                # Duplicate ids across jobs: later assignment wins, which
                # is exactly the touch order of the sequential walk.
                self._last[prefix] = np.arange(
                    base, base + first_miss, dtype=np.int64
                )
                if self._tail:
                    self._log.append((self._tail, self._tail_base))
                    self._tail = []
                self._log.append((np.array(prefix), base))
                self._seq = base + first_miss
                self._logged += first_miss
        requests = total
        hits = first_miss
        bytes_requested = int(sizes.sum())
        bytes_hit = int(sizes[:first_miss].sum())
        bytes_fetched = 0
        bypasses = 0
        offs = offsets.tolist()
        # Per-job hit credit for the bulk prefix.
        j = 0
        while j < n_jobs and offs[j + 1] <= first_miss:
            job_hits[j] = offs[j + 1] - offs[j]
            j += 1
        if j < n_jobs and first_miss > offs[j]:
            job_hits[j] = first_miss - offs[j]
        if first_miss < total:
            # Scalar walk of the remainder, attributing hits per job.
            # ``_touch``/``_push_tail`` are inlined on local mirrors of
            # the log state (seq, logged, tail, used) — the walk is the
            # advisor hot loop under eviction pressure, and the
            # attribute round-trips per access are its dominant cost.
            # The mirrors are synced to ``self`` around ``_evict_until``
            # (which flushes the tail and decrements ``_logged``) and
            # written back once at the end.
            ids = flat[first_miss:].tolist()
            szs = sizes[first_miss:].tolist()
            resident = self._resident
            stored = self._stored
            last = self._last
            log = self._log
            capacity = self.capacity_bytes
            touch = self.touch_on_hit
            seq = self._seq
            logged = self._logged
            tail = self._tail
            tail_append = tail.append
            used = self.used_bytes
            n_resident = self._n_resident
            k = first_miss
            for f, size in zip(ids, szs):
                while offs[j + 1] <= k:
                    j += 1
                k += 1
                if resident[f]:
                    hits += 1
                    bytes_hit += size
                    job_hits[j] += 1
                    if not touch:
                        continue
                else:
                    bytes_fetched += size
                    if size > capacity:
                        bypasses += 1
                        continue
                    if used + size > capacity:
                        self._seq = seq
                        self._logged = logged
                        self.used_bytes = used
                        self._n_resident = n_resident
                        self._evict_until(size)
                        logged = self._logged
                        used = self.used_bytes
                        n_resident = self._n_resident
                        tail = self._tail
                        tail_append = tail.append
                    resident[f] = True
                    stored[f] = size
                    n_resident += 1
                    used += size
                # inlined _touch(f)
                last[f] = seq
                if not tail:
                    self._tail_base = seq
                tail_append(f)
                seq += 1
                logged += 1
                if len(tail) >= _CHUNK:
                    log.append((tail, self._tail_base))
                    tail = []
                    tail_append = tail.append
                    self._tail = tail
            self._seq = seq
            self._logged = logged
            self._tail = tail
            self.used_bytes = used
            self._n_resident = n_resident
        if self._logged > 4 * self._n_resident + _CHUNK:
            self._compact()
        return job_hits, (
            requests,
            hits,
            bytes_requested,
            bytes_hit,
            bytes_fetched,
            bypasses,
        )


def batched_policy_for(spec) -> "BatchedFileCache | None":
    """A :class:`BatchedFileCache` factory for eligible policy specs.

    Returns a constructor taking ``capacity_bytes`` when ``spec`` (a
    :class:`~repro.registry.spec.BoundSpec`) names a plain ``file-lru``
    or ``file-fifo`` with no parameter overrides — the two policies
    whose semantics the kernel replicates bit-for-bit — else ``None``
    (callers keep the registry-built policy and the per-access path).
    """
    if getattr(spec, "params", ()):
        return None
    name = getattr(spec, "name", None)
    if name == "file-lru":
        return lambda capacity: BatchedFileCache(capacity, touch_on_hit=True)
    if name == "file-fifo":
        return lambda capacity: BatchedFileCache(capacity, touch_on_hit=False)
    return None
