"""The vectorized batch replay kernel: equivalence, contract, memory.

The batch kernel (:mod:`repro.cache.batch`) must be invisible to every
consumer: ``simulate(batch=None)`` silently routes batch-capable
policies through it, and the results are *bit-identical* — every
:class:`~repro.cache.base.CacheMetrics` field — to the per-access path,
for every registered policy spec, including the degenerate capacities
(1 byte, everything-fits).
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro import registry
from repro.cache.base import CacheMetrics
from repro.cache.batch import GroupedReplayKernel
from repro.engine import simulate
from repro.obs.instrument import MultiInstrumentation, ProgressReporter, SimStats
from repro.traces.trace import Trace
from tests.conftest import RESIDENCY_LOOPS, make_trace, residency_loop_of

#: Capacity fractions covering eviction-dominated, mixed and
#: no-eviction regimes, plus the degenerate extremes below.
FRACTIONS = (0.001, 0.05, 0.5)


def _factory(spec, trace, partition):
    return lambda c: registry.build(
        spec.name, c, trace=trace, partition=partition
    )


def _caps(trace):
    total = trace.total_bytes()
    return [1, *[max(1, int(f * total)) for f in FRACTIONS], total]


def _observers():
    stats = SimStats()
    reporter = ProgressReporter(
        "t", progress_every=997, min_interval_s=0.0, stream=io.StringIO()
    )
    return stats, reporter, MultiInstrumentation(stats, reporter)


def test_every_spec_bit_identical_to_per_access(tiny_trace, tiny_partition):
    """batch=None (auto) equals batch=False for all 15 registered specs,
    with and without a SimStats and a ProgressReporter attached — and
    for the batch-capable specs both routes show the observers the same
    counters and lines, less the throughput and ETA fields.  The three
    batch-capable specs run on both residency loops."""
    for loop, spec in [
        (loop, spec)
        for loop in RESIDENCY_LOOPS
        for spec in registry.list_specs()
        if loop == "compiled" or spec.supports_batch
    ]:
        with residency_loop_of(loop):
            factory = _factory(spec, tiny_trace, tiny_partition)
            for cap in _caps(tiny_trace):
                auto = simulate(tiny_trace, factory, cap, name=spec.name)
                serial = simulate(
                    tiny_trace, factory, cap, name=spec.name, batch=False
                )
                assert auto == serial, (spec.name, cap)
                seen = []
                for batch in (None, False) if spec.supports_batch else (None,):
                    stats, reporter, both = _observers()
                    observed = simulate(
                        tiny_trace,
                        factory,
                        cap,
                        name=spec.name,
                        instrumentation=both,
                        batch=batch,
                    )
                    assert observed == auto, (spec.name, cap, batch)
                    lines = [
                        line.split(" acc/s")[0].rsplit(" ", 1)[0]
                        for line in reporter.stream.getvalue().splitlines()
                    ]
                    seen.append((stats.snapshot(), lines))
                assert seen[0] == seen[-1], (spec.name, cap)


def test_supports_batch_flag_matches_kernel_offer(tiny_trace, tiny_partition):
    """The registry flag and the instance contract agree, per spec."""
    for spec in registry.list_specs():
        policy = registry.build(
            spec.name, 10**9, trace=tiny_trace, partition=tiny_partition
        )
        kernel = policy.batch_kernel(tiny_trace)
        if spec.supports_batch:
            assert kernel is not None, spec.name
        else:
            assert kernel is None, spec.name


def test_batch_true_demands_a_kernel(tiny_trace):
    with pytest.raises(ValueError, match="no.*batch kernel"):
        simulate(tiny_trace, "file-lfu", 10**9, batch=True)


@pytest.mark.parametrize("bad", ["negative", "n_files"])
@pytest.mark.parametrize("batch", [True, False], ids=["kernel", "per-access"])
@pytest.mark.parametrize("spec", ["file-lru", "file-fifo"])
def test_out_of_range_file_id_fails_on_both_routes(spec, batch, bad):
    """A trace built without validation (as the store and subsets build
    them) may name a file outside the catalog.  Both
    routes refuse it with an IndexError naming the first bad access,
    instead of charging file 2's size to id -1 or reading past the
    sizes."""
    n_files = 3
    file_id = -1 if bad == "negative" else n_files
    trace = Trace(
        file_sizes=[10, 20, 30],
        file_tiers=[1] * n_files,
        file_datasets=[0] * n_files,
        job_users=[0, 0],
        job_nodes=[0, 0],
        job_tiers=[1, 1],
        job_starts=[0.0, 3600.0],
        job_ends=[3600.0, 7200.0],
        access_jobs=[0, 0, 1, 1],
        access_files=[0, file_id, 1, file_id],
        user_domains=[0],
        node_sites=[0],
        node_domains=[0],
        site_names=["site0"],
        domain_names=[".d0"],
        canonical=True,
        validate=False,
    )
    with pytest.raises(IndexError, match=f"access 1 requests file {file_id},"):
        simulate(trace, spec, 100, batch=batch)


def test_kernel_checks_group_ids_before_its_loop():
    """Group ids the sizes do not cover are refused per window, naming
    the access, before either residency loop reads them."""
    trace = make_trace([[0, 1], [2]], file_sizes=[1, 2, 3])
    for loop in RESIDENCY_LOOPS:
        kernel = GroupedReplayKernel(
            trace,
            capacity=10,
            group_sizes=np.array([1, 2], dtype=np.int64),
            labels=np.array([0, 1, 5], dtype=np.int64),
        )
        with residency_loop_of(loop), pytest.raises(
            IndexError, match="access 2 requests group 5, outside"
        ):
            kernel(CacheMetrics(name="x", capacity_bytes=10))


@pytest.mark.parametrize("batch", [None, False], ids=["kernel", "per-access"])
def test_hit_out_checked_before_either_route(tiny_trace, batch):
    """A hit mask of the wrong length or dtype is a ValueError on both
    routes, raised before any access is replayed."""
    n = tiny_trace.n_accesses
    cap = max(1, tiny_trace.total_bytes() // 20)
    for mask in (
        np.zeros(n - 1, dtype=bool),
        np.zeros(n + 1, dtype=bool),
        np.zeros(n, dtype=np.int8),
    ):
        with pytest.raises(ValueError, match="hit_out"):
            simulate(tiny_trace, "file-lru", cap, batch=batch, hit_out=mask)
        assert not mask.any()


@pytest.mark.parametrize("loop", RESIDENCY_LOOPS)
def test_kernel_refuses_a_hit_out_of_another_length(tiny_trace, loop):
    """A kernel built directly, without simulate()'s check, refuses a
    hit mask that does not hold one flag per access before replaying
    any of them: the compiled pass must not write past it."""
    n = tiny_trace.n_accesses
    for mask in (np.zeros(n - 1, dtype=bool), np.zeros(n + 1, dtype=bool)):
        policy = registry.build("file-lru", 10**9)
        metrics = CacheMetrics(name="x", capacity_bytes=10**9)
        with residency_loop_of(loop), pytest.raises(ValueError, match="hit_out"):
            policy.batch_kernel(tiny_trace, mask)(metrics)
        assert metrics.requests == 0 and not mask.any()


@pytest.mark.parametrize("route", ["compiled", "python", "per-access"])
@pytest.mark.parametrize("spec", ["file-lru", "filecule-lru"])
def test_strided_hit_out_marks_the_same_accesses(
    tiny_trace, tiny_partition, spec, route
):
    """A strided hit mask, which simulate() accepts, is marked at the
    same accesses as a contiguous one, on the kernel's two loops and on
    the per-access route, and nothing outside the view is written."""
    n = tiny_trace.n_accesses
    cap = max(1, tiny_trace.total_bytes() // 20)
    batch = False if route == "per-access" else None
    contiguous = np.zeros(n, dtype=bool)
    backing = np.zeros(2 * n, dtype=bool)
    strided = backing[::2]
    with residency_loop_of("python" if route == "python" else "compiled"):
        for mask in (contiguous, strided):
            simulate(
                tiny_trace,
                spec,
                cap,
                partition=tiny_partition,
                batch=batch,
                hit_out=mask,
            )
    assert contiguous.any() and not contiguous.all()
    assert strided.tolist() == contiguous.tolist()
    assert not backing[1::2].any()


def test_filecule_lru_without_intra_job_hits_declines(
    tiny_trace, tiny_partition
):
    """The intra_job_hits=False variant has per-job-timestamp state the
    kernel does not model: it must decline batching (and batch=True must
    refuse loudly rather than silently fall back)."""
    policy = registry.build(
        "filecule-lru?intra_job_hits=false",
        10**9,
        partition=tiny_partition,
    )
    assert policy.batch_kernel(tiny_trace) is None
    with pytest.raises(ValueError, match="no.*batch kernel"):
        simulate(
            tiny_trace,
            "filecule-lru?intra_job_hits=false",
            10**9,
            partition=tiny_partition,
            batch=True,
        )
    # And the auto path still matches per-access replay exactly.
    auto = simulate(
        tiny_trace,
        "filecule-lru?intra_job_hits=false",
        10**9,
        partition=tiny_partition,
    )
    serial = simulate(
        tiny_trace,
        "filecule-lru?intra_job_hits=false",
        10**9,
        partition=tiny_partition,
        batch=False,
    )
    assert auto == serial


def test_batch_true_with_instrumentation_runs_the_kernel(tiny_trace):
    """Instrumentation no longer conflicts with batch=True: the kernel
    runs (the per-access list columns are never built), its metrics and
    observed totals equal per-access replay's, and a policy without a
    kernel still refuses batch=True loudly."""
    cap = max(1, tiny_trace.total_bytes() // 20)
    stats = SimStats()
    batched = simulate(
        tiny_trace, "file-lru", cap, instrumentation=stats, batch=True
    )
    assert "replay_columns" not in tiny_trace.__dict__
    reference = SimStats()
    serial = simulate(
        tiny_trace, "file-lru", cap, instrumentation=reference, batch=False
    )
    assert batched == serial == simulate(tiny_trace, "file-lru", cap)
    assert stats.snapshot() == reference.snapshot()
    assert stats.accesses == tiny_trace.n_accesses
    assert stats.bytes_evicted > 0
    with pytest.raises(ValueError, match="no.*batch kernel"):
        simulate(
            tiny_trace,
            "file-lfu",
            10**9,
            instrumentation=SimStats(),
            batch=True,
        )


def test_instrumented_replay_uses_kernel_and_matches(
    tiny_trace, tiny_partition
):
    """batch=None with instrumentation takes the kernel route — the
    kernel is called with a checkpoint and the list columns stay unbuilt
    — and every counter SimStats and the metrics see equals the
    uninstrumented and per-access runs."""
    cap = max(1, tiny_trace.total_bytes() // 20)
    for spec in ("file-lru", "file-fifo", "filecule-lru"):
        calls = []

        def factory(c, spec=spec):
            policy = registry.build(
                spec, c, trace=tiny_trace, partition=tiny_partition
            )
            offer = policy.batch_kernel

            def batch_kernel(trace, hit_out=None):
                kernel = offer(trace, hit_out)

                def spy(metrics, *args):
                    calls.append(args)
                    return kernel(metrics, *args)

                return spy

            policy.batch_kernel = batch_kernel
            return policy

        stats = SimStats()
        instrumented = simulate(
            tiny_trace, factory, cap, name=spec, instrumentation=stats
        )
        assert len(calls) == 1 and callable(calls[0][0]), spec
        assert "replay_columns" not in tiny_trace.__dict__, spec
        plain = simulate(
            tiny_trace, spec, cap, name=spec, partition=tiny_partition
        )
        reference = SimStats()
        serial = simulate(
            tiny_trace,
            spec,
            cap,
            name=spec,
            partition=tiny_partition,
            instrumentation=reference,
            batch=False,
        )
        assert instrumented == plain == serial, spec
        assert stats.snapshot() == reference.snapshot(), spec
        assert stats.accesses == tiny_trace.n_accesses, spec
        assert stats.progress_calls == reference.progress_calls == 1, spec


def test_kernel_is_single_use(tiny_trace):
    policy = registry.build("file-lru", 10**9)
    kernel = policy.batch_kernel(tiny_trace)
    from repro.cache.base import CacheMetrics

    kernel(CacheMetrics(name="x", capacity_bytes=10**9))
    with pytest.raises(RuntimeError):
        kernel(CacheMetrics(name="x", capacity_bytes=10**9))


def test_partition_mismatch_keyerror_parity(tiny_trace, small_trace):
    """A partition that doesn't cover the trace raises the same KeyError
    on both paths (the kernel window-checks instead of per-access)."""
    from repro.core.identify import find_filecules

    foreign = find_filecules(small_trace)
    cap = 10**12
    for batch in (False, True):
        with pytest.raises(KeyError, match="has no filecule"):
            simulate(
                tiny_trace,
                "filecule-lru",
                cap,
                partition=foreign,
                batch=batch,
            )


def test_batch_path_does_not_materialize_replay_columns(
    tiny_trace, tiny_partition
):
    """Neither route builds the ~40 B/access whole-trace list columns:
    the kernel reads numpy windows, the per-access loop converts one
    window at a time."""
    assert "replay_columns" not in tiny_trace.__dict__
    simulate(tiny_trace, "file-lru", 10**9, batch=True)
    simulate(
        tiny_trace,
        "filecule-lru",
        10**9,
        partition=tiny_partition,
        batch=True,
    )
    assert "replay_columns" not in tiny_trace.__dict__

    # The per-access route leaves them unbuilt too.
    before = simulate(tiny_trace, "file-lru", 10**9, batch=False)
    assert "replay_columns" not in tiny_trace.__dict__
    after = simulate(tiny_trace, "file-lru", 10**9, batch=False)
    assert before == after
