"""Instrumentation hooks: observation-only contract and collectors.

The acceptance criterion for the hooks is equivalence: an instrumented
run must produce *identical* miss rates and byte counts to an
uninstrumented one, across policies and capacities.
"""

import io

import numpy as np
import pytest

from repro.cache.arc import AdaptiveReplacementCache
from repro.cache.filecule_lru import FileculeLRU
from repro.cache.gds import GreedyDualSize
from repro.cache.lru import FileLRU
from repro.cache.simulator import simulate, sweep
from repro.core.identify import find_filecules
from repro.obs.instrument import (
    Instrumentation,
    MultiInstrumentation,
    ProgressReporter,
    SimStats,
    progress_from_env,
)
from tests.conftest import make_trace


@pytest.fixture()
def trace():
    return make_trace(
        [[0, 1], [0, 1], [2, 3], [0, 1], [2], [4], [0, 1, 4]],
        file_sizes=[10, 10, 30, 5, 20],
    )


POLICIES = {
    "file-lru": lambda c: FileLRU(c),
    "gds": lambda c: GreedyDualSize(c),
    "arc": lambda c: AdaptiveReplacementCache(c),
}


class TestObservationOnly:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("capacity", [15, 40, 1000])
    def test_identical_results_with_and_without(
        self, trace, policy_name, capacity
    ):
        factory = POLICIES[policy_name]
        plain = simulate(trace, factory, capacity)
        observed = simulate(
            trace, factory, capacity, instrumentation=SimStats()
        )
        assert observed.miss_rate == plain.miss_rate
        assert observed.hits == plain.hits
        assert observed.misses == plain.misses
        assert observed.bytes_fetched == plain.bytes_fetched
        assert observed.bypasses == plain.bypasses

    def test_filecule_policy_identical(self, trace):
        partition = find_filecules(trace)
        factory = lambda c: FileculeLRU(c, partition)  # noqa: E731
        plain = simulate(trace, factory, 40)
        observed = simulate(trace, factory, 40, instrumentation=SimStats())
        assert observed.miss_rate == plain.miss_rate

    def test_sweep_identical(self, trace):
        caps = [20, 100]
        plain = sweep(trace, {"lru": POLICIES["file-lru"]}, caps)
        observed = sweep(
            trace,
            {"lru": POLICIES["file-lru"]},
            caps,
            instrumentation=SimStats(),
        )
        assert observed.miss_rates("lru") == plain.miss_rates("lru")

    def test_evict_listener_reset_after_run(self, trace):
        # FileLRU takes the kernel route, GDS the per-access loop; both
        # derive the evicted volume at their checkpoints.
        for policy_class in (FileLRU, GreedyDualSize):
            held = []
            factory = lambda c: held.append(policy_class(c)) or held[-1]  # noqa: E731
            stats = SimStats()
            simulate(trace, factory, 25, instrumentation=stats)
            assert stats.bytes_evicted > 0


class TestSimStats:
    def test_totals_mirror_cache_metrics(self, trace):
        stats = SimStats()
        metrics = simulate(
            trace, POLICIES["file-lru"], 25, instrumentation=stats
        )
        assert stats.accesses == metrics.requests
        assert stats.hits == metrics.hits
        assert stats.misses == metrics.misses
        assert stats.bypasses == metrics.bypasses
        assert stats.bytes_requested == metrics.bytes_requested
        assert stats.bytes_fetched == metrics.bytes_fetched
        assert stats.hit_rate == metrics.hit_rate

    def test_eviction_volume_observed(self, trace):
        stats = SimStats()
        simulate(trace, POLICIES["file-lru"], 25, instrumentation=stats)
        # capacity 25 cannot hold the working set: something must be evicted
        assert stats.bytes_evicted > 0

    def test_no_evictions_when_everything_fits(self, trace):
        stats = SimStats()
        simulate(trace, POLICIES["file-lru"], 10_000, instrumentation=stats)
        assert stats.bytes_evicted == 0

    def test_snapshot_shape(self, trace):
        stats = SimStats()
        simulate(trace, POLICIES["file-lru"], 25, instrumentation=stats)
        snap = stats.snapshot()
        assert snap["accesses"] == stats.accesses
        assert snap["bytes_evicted"] == stats.bytes_evicted
        assert 0.0 <= snap["hit_rate"] <= 1.0

    def test_final_progress_always_fires(self, trace):
        stats = SimStats()  # progress_every == 0: only the final call
        simulate(trace, POLICIES["file-lru"], 25, instrumentation=stats)
        assert stats.progress_calls == 1


class TestProgressReporter:
    def test_periodic_lines_to_stream(self, trace):
        out = io.StringIO()
        reporter = ProgressReporter(
            "t", progress_every=3, min_interval_s=0.0, stream=out
        )
        simulate(trace, POLICIES["file-lru"], 25, instrumentation=reporter)
        lines = out.getvalue().splitlines()
        assert lines, "expected at least one progress line"
        assert "[t file-lru@25 B]" in lines[0]
        assert "hit=" in lines[0] and "eta=" in lines[0]
        assert "100.0%" in lines[-1]

    def test_throttling_suppresses_intermediate_lines(self, trace):
        out = io.StringIO()
        reporter = ProgressReporter(
            "t", progress_every=1, min_interval_s=3600.0, stream=out
        )
        simulate(trace, POLICIES["file-lru"], 25, instrumentation=reporter)
        lines = out.getvalue().splitlines()
        # first checkpoint + forced final line only
        assert len(lines) == 2

    def test_progress_every_validated(self):
        with pytest.raises(ValueError):
            ProgressReporter(progress_every=0)

    @pytest.mark.parametrize("batch", [None, False])
    def test_zero_access_run_reports_complete(self, trace, batch):
        """A run with no accesses (an outer hierarchy tier absorbed them
        all) is reported complete instead of dividing by zero, on the
        kernel route (``None``) and the per-access route alike."""
        empty = trace.subset_accesses(np.zeros(trace.n_accesses, bool))
        out = io.StringIO()
        reporter = ProgressReporter("t", progress_every=1, stream=out)
        metrics = simulate(
            empty, "file-lru", 100, instrumentation=reporter, batch=batch
        )
        assert metrics.requests == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert "100.0% 0/0" in lines[0]


class TestMultiInstrumentation:
    def test_fans_out_to_all_children(self, trace):
        a, b = SimStats(), SimStats()
        multi = MultiInstrumentation(a, b)
        simulate(trace, POLICIES["file-lru"], 25, instrumentation=multi)
        assert a.accesses == b.accesses == trace.n_accesses
        assert a.bytes_evicted == b.bytes_evicted > 0

    def test_progress_every_is_min_of_children(self):
        quiet = SimStats()
        chatty = ProgressReporter(progress_every=7, stream=io.StringIO())
        assert MultiInstrumentation(quiet, chatty).progress_every == 7
        assert MultiInstrumentation(quiet).progress_every == 0


class TestProgressFromEnv:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        assert progress_from_env("x") is None
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert progress_from_env("x") is None

    def test_enabled_when_truthy(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        reporter = progress_from_env("x", stream=io.StringIO())
        assert isinstance(reporter, ProgressReporter)
        assert reporter.label == "x"


class TestBaseClassIsNoOp:
    def test_all_hooks_return_none(self, trace):
        inst = Instrumentation()
        metrics = simulate(
            trace, POLICIES["file-lru"], 25, instrumentation=inst
        )
        assert metrics.requests == trace.n_accesses
