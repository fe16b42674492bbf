"""Unit and integration tests for SAM stations and trace replay."""

import numpy as np
import pytest

from repro.cache.base import HIT_CODE
from repro.cache.bundle import FileBundleCache
from repro.cache.lru import FileLRU
from repro.cache.filecule_lru import FileculeLRU
from repro.core.identify import find_filecules
from repro.sam.catalog import ReplicaCatalog
from repro.sam.events import Simulation
from repro.sam.scheduler import replay_trace
from repro.sam.station import Station
from repro.sam.storage import TapeArchive, TransferModel
from tests.conftest import make_trace


def build_station(n_files=5, n_sites=2, site=1, capacity=1000, sizes=None):
    sim = Simulation()
    catalog = ReplicaCatalog(n_files, n_sites, hub_site=0)
    transfers = TransferModel(sim, n_sites)
    tape = TapeArchive(sim)
    sizes = (
        np.asarray(sizes) if sizes is not None else np.full(n_files, 100)
    )
    station = Station(
        sim, site, FileLRU(capacity), catalog, transfers, tape, sizes
    )
    return sim, catalog, station


class TestStation:
    def test_cold_fetch_goes_to_tape(self):
        sim, catalog, station = build_station()
        stall = station.run_project(np.array([0, 1]))
        assert stall > 0
        assert station.metrics.bytes_tape == 200
        assert station.metrics.bytes_wan == 200

    def test_cache_hit_after_fetch(self):
        sim, catalog, station = build_station()
        station.run_project(np.array([0]))
        station.run_project(np.array([0]))
        assert station.metrics.bytes_cache_hit == 100

    def test_pinned_replica_free(self):
        sim, catalog, station = build_station()
        catalog.register(0, 1)
        stall = station.run_project(np.array([0]))
        assert stall == 0.0
        assert station.metrics.bytes_pinned == 100
        assert station.metrics.bytes_tape == 0

    def test_remote_replica_cheaper_than_tape(self):
        sim, catalog, s1 = build_station(n_sites=3, site=1)
        catalog.register(0, 2)
        s1.run_project(np.array([0]))
        assert s1.metrics.bytes_wan == 100
        assert s1.metrics.bytes_tape == 0

    def test_hub_station_skips_wan(self):
        sim, catalog, station = build_station(site=0)
        station.run_project(np.array([0]))
        assert station.metrics.bytes_tape == 100
        assert station.metrics.bytes_wan == 0

    def test_metrics_fractions(self):
        sim, catalog, station = build_station()
        catalog.register(0, 1)
        station.run_project(np.array([0, 1]))
        assert station.metrics.local_byte_fraction == pytest.approx(0.5)
        assert station.metrics.projects == 1
        assert station.metrics.requests == 2


class TestReplayTrace:
    @pytest.fixture()
    def trace(self):
        return make_trace(
            [[0, 1], [0, 1], [2]],
            file_sizes=[100, 100, 100],
            job_nodes=[0, 1, 1],
            node_sites=[0, 1],
            node_domains=[0, 0],
            site_names=["hub", "remote"],
        )

    def test_report_aggregates(self, trace):
        report = replay_trace(trace, cache_capacity=10_000)
        assert len(report.stations) == 2
        assert report.total_requested_bytes == 500
        assert report.tape_bytes > 0
        assert 0.0 <= report.local_byte_fraction <= 1.0
        assert report.mean_stall_seconds >= 0.0
        assert report.p95_stall_seconds >= report.mean_stall_seconds * 0.0

    def test_prepinned_catalog_reduces_traffic(self, trace):
        baseline = replay_trace(trace, cache_capacity=10_000)
        catalog = ReplicaCatalog(trace.n_files, trace.n_sites)
        for f in range(3):
            catalog.register(f, 0)
            catalog.register(f, 1)
        pinned = replay_trace(trace, cache_capacity=10_000, catalog=catalog)
        assert pinned.tape_bytes == 0
        assert pinned.local_byte_fraction == 1.0
        assert pinned.mean_stall_seconds <= baseline.mean_stall_seconds

    def test_filecule_cache_factory(self, trace):
        partition = find_filecules(trace)
        report = replay_trace(
            trace,
            cache_factory=lambda cap, site: FileculeLRU(cap, partition),
            cache_capacity=10_000,
        )
        assert report.total_requested_bytes == 500

    def test_generated_trace_runs(self, tiny_trace):
        report = replay_trace(tiny_trace, cache_capacity=10**12)
        traced_jobs = int((tiny_trace.files_per_job > 0).sum())
        assert sum(s.projects for s in report.stations) == traced_jobs

    def test_stations_announce_each_project_to_their_cache(self, tiny_trace):
        """A bundle-aware cache learns the job from ``begin_job``: each
        station's cache-hit bytes equal its site's projects replayed in
        start order through ``begin_job`` + ``request``."""
        trace = tiny_trace
        accessed = np.unique(trace.access_files)
        capacity = int(0.02 * int(trace.file_sizes[accessed].sum()))
        report = replay_trace(
            trace,
            cache_factory=lambda cap, site: FileBundleCache(cap),
            cache_capacity=capacity,
        )
        caches = [FileBundleCache(capacity) for _ in range(trace.n_sites)]
        want = [0] * trace.n_sites
        ptr = trace.job_access_ptr
        for j in np.argsort(trace.job_starts, kind="stable"):
            files = trace.access_files[ptr[j] : ptr[j + 1]].tolist()
            if not files:
                continue
            site = int(trace.job_sites[j])
            now = float(trace.job_starts[j])
            caches[site].begin_job(files, now)
            for f in files:
                size = int(trace.file_sizes[f])
                if caches[site].request(f, size, now) == HIT_CODE:
                    want[site] += size
        assert sum(want) > 0
        assert [s.bytes_cache_hit for s in report.stations] == want
