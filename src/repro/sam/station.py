"""A SAM station: per-site disk cache plus fetch logic.

Each site runs a station.  A project (job) presents its input file list;
for every file the station resolves the cheapest source:

1. a *pinned replica* at this site (placed by a replication strategy and
   registered in the :class:`~repro.sam.catalog.ReplicaCatalog`) — free;
2. the local demand cache (any :class:`repro.cache.ReplacementPolicy`) —
   free on hit, and misses are admitted;
3. a disk replica at another site — a WAN transfer;
4. the tape archive at the hub — staging plus (off-hub) a WAN transfer.

The job's data stall is the latest completion among its fetches; the
station accumulates byte counters per source class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.base import HIT_CODE, ReplacementPolicy
from repro.sam.catalog import ReplicaCatalog
from repro.sam.events import Simulation
from repro.sam.storage import TapeArchive, TransferModel


@dataclass(slots=True)
class StationMetrics:
    """Per-station byte and stall accounting."""

    site: int
    projects: int = 0
    requests: int = 0
    bytes_requested: int = 0
    bytes_pinned: int = 0
    bytes_cache_hit: int = 0
    bytes_wan: int = 0
    bytes_tape: int = 0
    stall_seconds: list[float] = field(default_factory=list)

    @property
    def local_byte_fraction(self) -> float:
        """Fraction of requested bytes served without WAN/tape traffic."""
        if self.bytes_requested == 0:
            return 0.0
        return (self.bytes_pinned + self.bytes_cache_hit) / self.bytes_requested

    @property
    def mean_stall_seconds(self) -> float:
        if not self.stall_seconds:
            return 0.0
        return float(np.mean(self.stall_seconds))


class Station:
    """One site's data-handling station."""

    def __init__(
        self,
        sim: Simulation,
        site: int,
        cache: ReplacementPolicy,
        catalog: ReplicaCatalog,
        transfers: TransferModel,
        tape: TapeArchive,
        file_sizes: np.ndarray,
    ) -> None:
        self._sim = sim
        self.site = site
        self.cache = cache
        self._catalog = catalog
        self._transfers = transfers
        self._tape = tape
        self._sizes = file_sizes
        self.metrics = StationMetrics(site=site)

    def _fetch_remote(self, file_id: int, size: int) -> float:
        """Fetch a non-local file; returns absolute completion time."""
        source = self._catalog.best_source(file_id, self.site)
        hub = self._transfers.hub_site
        if self._catalog.has_replica(file_id, source):
            if source == self.site:
                # pinned replica raced in after the caller's check; free
                return self._sim.now
            self.metrics.bytes_wan += size
            return self._transfers.transfer(source, self.site, size)
        # no disk replica anywhere: stage from tape at the hub, then cross
        # the WAN unless we are the hub
        staged_at = self._tape.stage(size)
        self.metrics.bytes_tape += size
        if self.site == hub:
            return staged_at
        self.metrics.bytes_wan += size
        done = self._transfers.transfer(hub, self.site, size)
        return max(staged_at, done)

    def run_project(self, file_ids: np.ndarray) -> float:
        """Execute one project's data phase now; returns the data stall
        in seconds (time until the last input byte is on site).  The
        cache's ``begin_job`` gets the inputs it will be asked for."""
        start = self._sim.now
        done = start
        self.metrics.projects += 1
        files = np.asarray(file_ids, dtype=np.int64).tolist()
        pinned = [self._catalog.has_replica(f, self.site) for f in files]
        self.cache.begin_job([f for f, here in zip(files, pinned) if not here], start)
        for f, here in zip(files, pinned):
            size = int(self._sizes[f])
            self.metrics.requests += 1
            self.metrics.bytes_requested += size
            if here:
                self.metrics.bytes_pinned += size
                continue
            code = self.cache.request(f, size, start)
            if code == HIT_CODE:
                self.metrics.bytes_cache_hit += size
                continue
            # group-granularity caches pull the whole group into the
            # cache; the transfer must be priced at those bytes, not just
            # the requested file's (a bypass streams the file itself)
            volume = code if code > 0 else size
            done = max(done, self._fetch_remote(f, volume))
        stall = done - start
        self.metrics.stall_seconds.append(stall)
        return stall
