"""Replacement-policy interface, request codes, their fold and the one
replay driver.

A policy owns its contents and eviction decisions.  It answers each
timestamped file request with one int code: :data:`HIT_CODE`,
:data:`BYPASS_CODE` (the requested file streams through and nothing is
cached) or, for any other miss, the bytes it admitted (``>= 0``; a
group-granularity policy admits the whole group).  The same codes come
out of :meth:`~repro.cache.batch.Residency.replay`.
:func:`replay_windows` drives both replay routes window by window and
folds each window's totals into :class:`CacheMetrics`.  The Python
loops behind it (the per-access route and the batch kernel's fallback)
turn their codes into those totals with :func:`fold_runs`, the one
reference fold; the batch kernel's compiled pass (``residency.c``)
totals its windows itself and is tested against it.  The *miss rate*
(fraction of file requests that miss) is the paper's Figure 10 metric;
byte-level counters support the byte-miss-rate view used by the related
file-bundle work (§7).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import repeat

import numpy as np

#: Request codes; a miss that admits records the admitted bytes (>= 0).
HIT_CODE = -1
BYPASS_CODE = -2

#: Accesses per replay window: bounds the per-window run arrays and code
#: lists of the Python loops, while the per-window calls stay a few ns
#: per access.
WINDOW = 16384


@dataclass(slots=True)
class CacheMetrics:
    """Aggregated outcome of one simulation run."""

    name: str = ""
    capacity_bytes: int = 0
    requests: int = 0
    hits: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0
    bytes_fetched: int = 0
    bypasses: int = 0

    def record_totals(
        self,
        requests: int,
        hits: int,
        bytes_requested: int,
        bytes_hit: int,
        bytes_fetched: int,
        bypasses: int,
    ) -> None:
        """Fold the totals of a window of requests in, one call per window."""
        self.requests += requests
        self.hits += hits
        self.bytes_requested += bytes_requested
        self.bytes_hit += bytes_hit
        self.bytes_fetched += bytes_fetched
        self.bypasses += bypasses

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def miss_rate(self) -> float:
        """Fraction of file requests that missed (paper's Figure 10)."""
        return self.misses / self.requests if self.requests else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    @property
    def byte_miss_rate(self) -> float:
        """Fraction of requested bytes that were not served from cache."""
        if self.bytes_requested == 0:
            return 0.0
        return 1.0 - self.bytes_hit / self.bytes_requested

    @property
    def fetch_overhead(self) -> float:
        """Bytes pulled into the cache per missed requested byte.

        1.0 for file-granularity policies; > 1.0 for group-granularity
        policies, quantifying their prefetch cost.
        """
        missed_bytes = self.bytes_requested - self.bytes_hit
        if missed_bytes <= 0:
            return 0.0
        return self.bytes_fetched / missed_bytes

    def as_row(self) -> list:
        return [
            self.name,
            self.capacity_bytes,
            self.requests,
            self.miss_rate,
            self.byte_miss_rate,
            self.fetch_overhead,
        ]


def replay_windows(trace, loop, metrics, checkpoint=None, every=0):
    """Replay ``trace`` through ``loop`` in windows, folding its totals.

    ``loop(i, j)`` replays accesses ``[i, j)``, marks their hits in the
    run's hit mask if it has one, and returns the window's five totals
    and the bytes resident afterwards: ``(hits, bytes_hit,
    bytes_fetched, bypasses, bytes_admitted, resident)``.  The compiled
    pass (:mod:`repro.cache.native`) totals its window itself; the two
    Python loops, the per-access route and the kernel's fallback, fold
    their request codes with :func:`fold_runs`.

    Windows hold at most :data:`WINDOW` accesses and are cut at every
    ``done = k * every < n`` (when ``checkpoint`` is given and ``every
    > 0``) and at ``done == n``.  At each of those marks ``metrics``
    holds the totals of the first ``done`` accesses, and then
    ``checkpoint(done, evicted_bytes)`` gets the cumulative evicted
    volume, derived as admitted minus resident bytes.
    """
    n = trace.n_accesses
    csum = trace.access_size_cumsum
    marks = [n]
    if checkpoint is not None and every > 0:
        marks = [*range(every, n, every), n]
    admitted = resident = 0
    lo = 0
    for hi in marks:
        hits = bytes_hit = fetched = bypasses = 0
        for i in range(lo, hi, WINDOW):
            window = loop(i, min(i + WINDOW, hi))
            hits += window[0]
            bytes_hit += window[1]
            fetched += window[2]
            bypasses += window[3]
            admitted += window[4]
            resident = window[5]
        metrics.record_totals(
            requests=hi - lo,
            hits=hits,
            bytes_requested=int(csum[hi] - csum[lo]),
            bytes_hit=bytes_hit,
            bytes_fetched=fetched,
            bypasses=bypasses,
        )
        if checkpoint is not None:
            checkpoint(hi, admitted - resident)
        lo = hi


def fold_runs(trace, i, j, heads, codes, hit_out=None):
    """The numpy fold of one window's run codes into its five totals.

    Accesses ``[i, j)`` of ``trace`` form runs starting at the offsets
    ``heads`` from ``i`` (``heads[0] == 0``), with one request code per
    run.  The head decides its run: a hit run hits throughout; an
    admitting head misses and fetches its code's bytes, and the rest of
    its run hits; a bypassed run streams every access's own file and
    caches nothing.  A per-access loop makes every access its own run.
    Returns ``(hits, bytes_hit, bytes_fetched, bypasses,
    bytes_admitted)`` and sets ``hit_out[i + k]`` for every hit ``k``.
    """
    csum = trace.access_size_cumsum
    code = np.asarray(codes, dtype=np.int64)
    bounds = np.append(heads, j - i)
    run_len = np.diff(bounds)
    run_bytes = np.diff(csum[i + bounds])
    bypass = code == BYPASS_CODE
    bypass_count = int(run_len[bypass].sum())
    bypass_bytes = int(run_bytes[bypass].sum())
    admit = code >= 0
    admit_heads = heads[admit]
    admit_bytes = int(code[admit].sum())
    if hit_out is not None:
        miss = np.repeat(bypass, run_len)
        miss[admit_heads] = True
        hit_out[i:j] |= ~miss
    # Every access hits except those of bypassed runs and the heads of
    # admitting runs.
    head_bytes = trace.file_sizes[trace.access_files[i + admit_heads]]
    return (
        j - i - bypass_count - len(admit_heads),
        int(csum[j] - csum[i]) - bypass_bytes - int(head_bytes.sum()),
        admit_bytes + bypass_bytes,
        bypass_count,
        admit_bytes,
    )


class ReplacementPolicy(ABC):
    """Base class: a fixed-capacity object store with pluggable eviction.

    Subclasses implement :meth:`request`; shared capacity bookkeeping
    lives here.  Policies are single-use — create a fresh instance per
    simulation run.
    """

    #: Human-readable policy name (class default; instances may override).
    name: str = "policy"

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.used_bytes = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def _charge(self, size: int) -> None:
        """Account an insertion; callers must have evicted to fit first."""
        self.used_bytes += size
        if self.used_bytes > self.capacity_bytes:
            raise RuntimeError(
                f"{self.name}: used {self.used_bytes} exceeds capacity "
                f"{self.capacity_bytes} — eviction logic is broken"
            )

    def _release(self, size: int) -> None:
        self.used_bytes -= size
        if self.used_bytes < 0:
            raise RuntimeError(f"{self.name}: negative occupancy")

    def batch_kernel(self, trace, hit_out=None):
        """Optional whole-trace replay kernel for this policy over ``trace``.

        Policies whose request semantics reduce to pure group residency
        (see :mod:`repro.cache.batch`: one compiled residency pass per
        window of accesses) return a single-use callable
        ``kernel(metrics, checkpoint=None, every=0) -> None`` (see
        :meth:`repro.cache.batch.GroupedReplayKernel.__call__`) that
        replays the *entire* trace through :func:`replay_windows`,
        bit-identically to calling :meth:`request` once per access.  The
        default is ``None``: no batch implementation, replay per access.

        ``hit_out`` is :func:`~repro.engine.replay.simulate`'s
        per-access outcome mask, already checked there: a writable
        boolean array of length ``trace.n_accesses`` in which the
        kernel marks every hit ``True`` (misses and bypasses stay
        ``False``).  Policies that cannot record it for a given
        configuration must decline (return ``None``).

        Implementations must decline (return ``None``) whenever batch
        replay could diverge from per-access replay for this *instance*
        — e.g. the policy already holds entries (kernels assume a fresh
        cache).
        """
        return None

    def begin_job(self, file_ids, now: float) -> None:
        """Hook: a job is about to request exactly ``file_ids`` at ``now``.

        The simulator, :meth:`request_window` and the SAM stations
        announce each job's input set before its per-file requests.  Bundle-aware policies (Otoo et al.'s
        file-bundle caching, learned-group prefetchers) need this; plain
        policies ignore it.
        """

    def request_window(
        self,
        flat: list[int],
        offsets: list[int],
        sizes: list[int],
        nows: list[float],
    ) -> list[int]:
        """Serve a window of jobs, one access at a time; one code each.

        Job ``j`` requests ``flat[offsets[j]:offsets[j + 1]]`` (sizes
        aligned in ``sizes``) at clock ``nows[j]``: :meth:`begin_job`,
        then :meth:`request` per file.  Returns the request codes in
        access order.  This is the reference an override must match.
        """
        begin_job = self.begin_job
        request = self.request
        codes: list[int] = []
        for lo, hi, now in zip(offsets, offsets[1:], nows):
            files = flat[lo:hi]
            begin_job(files, now)
            codes += map(request, files, sizes[lo:hi], repeat(now))
        return codes

    @abstractmethod
    def request(self, file_id: int, size: int, now: float) -> int:
        """Serve one file request, updating contents as needed.

        Returns :data:`HIT_CODE`, :data:`BYPASS_CODE` or the bytes the
        miss admitted.
        """

    @abstractmethod
    def __contains__(self, file_id: int) -> bool:
        """Whether the file is currently cached (no LRU side effects)."""
