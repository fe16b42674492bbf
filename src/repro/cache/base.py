"""Replacement-policy interface and metrics accounting.

A policy owns its contents and eviction decisions; the simulator only
feeds it timestamped file requests and aggregates the outcomes into
:class:`CacheMetrics`.  The *miss rate* (fraction of file requests that
miss) is the paper's Figure 10 metric; byte-level counters support the
byte-miss-rate view used by the related file-bundle work (§7).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class RequestOutcome:
    """Result of one file request against a policy.

    ``bytes_fetched`` is what the miss pulled into the cache — for
    group-granularity policies this exceeds the requested file's size
    (the whole filecule/group is loaded).  ``bypassed`` marks objects
    larger than the cache, which are streamed without being cached.
    """

    hit: bool
    bytes_fetched: int = 0
    bypassed: bool = False


#: Shared outcome for plain cache hits.  Frozen dataclass construction
#: costs several hundred ns (three ``object.__setattr__`` calls); hits
#: carry no per-request payload, so every policy returns this singleton
#: instead of allocating.  Policies similarly memoize their miss
#: outcomes, which are per-file (or per-group) constants.
HIT = RequestOutcome(hit=True)


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

    def record(self, size: int, outcome: RequestOutcome) -> None:
        # Hot path: one call per access.  Hits read exactly one outcome
        # attribute; misses skip the (almost always zero-delta) bypass
        # and fetched updates when they can.  Adding 0 is the identity,
        # so the counters are bit-identical to the naive form.
        self.requests += 1
        self.bytes_requested += size
        if outcome.hit:
            self.hits += 1
            self.bytes_hit += size
            return
        fetched = outcome.bytes_fetched
        if fetched:
            self.bytes_fetched += fetched
        if outcome.bypassed:
            self.bypasses += 1

    def record_totals(
        self,
        requests: int,
        hits: int,
        bytes_requested: int,
        bytes_hit: int,
        bytes_fetched: int,
        bypasses: int,
    ) -> None:
        """Fold pre-aggregated outcome totals in — one call per batch.

        Bit-identical to calling :meth:`record` once per access; lets a
        caller that already walks the accesses (the service's ingest hot
        loop) accumulate locals and pay one method call per job instead
        of one per file.
        """
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


class ReplacementPolicy(ABC):
    """Base class: a fixed-capacity object store with pluggable eviction.

    Subclasses implement :meth:`request`; shared capacity bookkeeping
    lives here.  Policies are single-use — create a fresh instance per
    simulation run.
    """

    #: Human-readable policy name (class default; instances may override).
    name: str = "policy"

    #: Optional observation hook: called with the byte count of every
    #: release (eviction) as it happens.  Set by instrumented simulation
    #: runs (:mod:`repro.obs.instrument`); must never mutate the policy.
    evict_listener = None

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
        if self.evict_listener is not None:
            self.evict_listener(size)

    def batch_kernel(self, trace, hit_out=None):
        """Optional whole-trace replay kernel for this policy over ``trace``.

        Policies whose request semantics reduce to pure group residency
        (see :mod:`repro.cache.batch`: one ``OrderedDict`` loop over
        runs of same-group accesses, folded with numpy) return a
        single-use callable ``kernel(metrics, checkpoint=None, every=0)
        -> None`` (see
        :meth:`repro.cache.batch.GroupedReplayKernel.__call__`) that
        replays the *entire* trace and folds outcome totals into the
        metrics, bit-identically to calling :meth:`request` once per
        access.  The default is ``None``: no batch implementation,
        replay per access.

        ``hit_out`` optionally requests the per-access outcome mask: a
        writable boolean array of length ``trace.n_accesses`` in which
        the kernel marks every hit ``True`` (misses and bypasses stay
        ``False``).  The hierarchical replay uses this to derive the
        next tier's demand stream; policies that cannot record it for a
        given configuration must decline (return ``None``).

        Implementations must decline (return ``None``) whenever batch
        replay could diverge from per-access replay for this *instance*
        — e.g. the policy already holds entries (kernels assume a fresh
        cache) or an ``evict_listener`` is attached (kernels do not
        observe individual evictions).
        """
        return None

    def begin_job(self, file_ids, now: float) -> None:
        """Hook: a job is about to request exactly ``file_ids`` at ``now``.

        The simulator announces each job's full input set before replaying
        its per-file requests.  Bundle-aware policies (Otoo et al.'s
        file-bundle caching, learned-group prefetchers) need this; plain
        policies ignore it.
        """

    @abstractmethod
    def request(self, file_id: int, size: int, now: float) -> RequestOutcome:
        """Serve one file request, updating contents as needed."""

    @abstractmethod
    def __contains__(self, file_id: int) -> bool:
        """Whether the file is currently cached (no LRU side effects)."""
